package cluster

import (
	"fmt"

	"github.com/shus-lab/hios/internal/units"
)

// AutoscalerOptions configures the replica autoscaler. The zero value
// disables it; with Enabled set, every zero field selects the documented
// default. The autoscaler watches each (node, deployment) replica pool
// independently: every Interval it samples the pool's outstanding
// depth — queued plus in-service requests, the concurrency signal — into
// a sliding window of Window samples and tracks the pool's deadline
// attainment over the same window, then — once the window is full and
// the pool is out of cooldown — scales the pool by one replica at a
// time:
//
//   - up, when the window-averaged outstanding depth reaches HighDepth
//     per live replica (the pool is persistently behind);
//   - down, when the averaged depth is at or below LowDepth per live
//     replica AND windowed attainment is at least AttainmentFloor (the
//     pool is persistently idle and not missing deadlines).
//
// Including in-service requests in the depth signal is what makes the
// thresholds a hysteresis band: a pool that exactly keeps up still shows
// its utilization (busy replicas per replica), so it sits between
// LowDepth and HighDepth and holds still instead of thrashing around an
// empty queue.
//
// Each decision starts a Cooldown during which the pool holds still, so
// a burst cannot thrash replicas faster than its signal settles.
type AutoscalerOptions struct {
	// Enabled turns the autoscaler on. The zero value leaves every pool
	// at its FleetSpec replica count.
	Enabled bool
	// Interval between scaling evaluations (0 = 50 ms).
	Interval units.Millis
	// Window is the number of samples in the sliding window (0 = 8).
	Window int
	// HighDepth is the scale-up threshold in outstanding requests per
	// live replica, averaged over the window (0 = 3).
	HighDepth float64
	// LowDepth is the scale-down threshold in outstanding requests per
	// live replica (0 = 0.5).
	LowDepth float64
	// AttainmentFloor blocks scale-down while windowed attainment is
	// below it (0 = 0.9).
	AttainmentFloor float64
	// Cooldown is the hold-still time after each decision (0 = 200 ms).
	Cooldown units.Millis
	// MinReplicas and MaxReplicas bound every pool (0 = 1 and 8).
	MinReplicas int
	MaxReplicas int
}

// fill normalizes the defaulted fields in place.
func (a *AutoscalerOptions) fill() {
	// Validate already rejected negatives, so <= 0 means "unset".
	if a.Interval <= 0 {
		a.Interval = units.Millis(50)
	}
	if a.Window == 0 {
		a.Window = 8
	}
	if a.HighDepth <= 0 {
		a.HighDepth = 3
	}
	if a.LowDepth <= 0 {
		a.LowDepth = 0.5
	}
	if a.AttainmentFloor <= 0 {
		a.AttainmentFloor = 0.9
	}
	if a.Cooldown <= 0 {
		a.Cooldown = units.Millis(200)
	}
	if a.MinReplicas == 0 {
		a.MinReplicas = 1
	}
	if a.MaxReplicas == 0 {
		a.MaxReplicas = 8
	}
}

// Validate reports inconsistent autoscaler options. The disabled zero
// value is always valid; zero fields with documented defaults are valid.
func (a AutoscalerOptions) Validate() error {
	if !a.Enabled {
		return nil
	}
	if !finite(float64(a.Interval), float64(a.Cooldown), a.HighDepth, a.LowDepth, a.AttainmentFloor) {
		return fmt.Errorf("%w: non-finite interval, cooldown, depth threshold or attainment floor", ErrBadAutoscaler)
	}
	if a.Interval < 0 || a.Cooldown < 0 {
		return fmt.Errorf("%w: negative interval or cooldown", ErrBadAutoscaler)
	}
	if a.Window < 0 {
		return fmt.Errorf("%w: negative window %d", ErrBadAutoscaler, a.Window)
	}
	if a.HighDepth < 0 || a.LowDepth < 0 {
		return fmt.Errorf("%w: negative depth threshold", ErrBadAutoscaler)
	}
	if a.HighDepth > 0 && a.LowDepth > a.HighDepth {
		return fmt.Errorf("%w: low-depth %g above high-depth %g", ErrBadAutoscaler, a.LowDepth, a.HighDepth)
	}
	if a.AttainmentFloor < 0 || a.AttainmentFloor > 1 {
		return fmt.Errorf("%w: attainment floor %g outside [0, 1]", ErrBadAutoscaler, a.AttainmentFloor)
	}
	if a.MinReplicas < 0 || a.MaxReplicas < 0 {
		return fmt.Errorf("%w: negative replica bound", ErrBadAutoscaler)
	}
	if a.MinReplicas > 0 && a.MaxReplicas > 0 && a.MinReplicas > a.MaxReplicas {
		return fmt.Errorf("%w: min replicas %d above max %d", ErrBadAutoscaler, a.MinReplicas, a.MaxReplicas)
	}
	return nil
}

// tick runs one autoscaler evaluation over every pool in deterministic
// (node, deployment) order at time now.
func (e *engine) tick(now units.Millis) {
	a := &e.o.Autoscaler
	for ni := range e.nodes {
		for di := range e.nodes[ni].pools {
			p := &e.nodes[ni].pools[di]

			// Slide the windows: the time-weighted average outstanding
			// depth over the tick, plus the completion / deadline-met
			// deltas since the previous tick.
			p.touch(now)
			slot := p.winIdx
			p.depthWin[slot] = (p.outInt - p.lastOut).Ratio(a.Interval)
			p.lastOut = p.outInt
			p.doneWin[slot] = p.done - p.lastDone
			p.metWin[slot] = p.met - p.lastMet
			p.lastDone, p.lastMet = p.done, p.met
			p.winIdx = (p.winIdx + 1) % a.Window
			if p.winFill < a.Window {
				p.winFill++
				continue // act only on a full window
			}

			depthSum, doneSum, metSum := 0.0, 0, 0
			for i := 0; i < a.Window; i++ {
				depthSum += p.depthWin[i]
				doneSum += p.doneWin[i]
				metSum += p.metWin[i]
			}
			avgDepth := depthSum / float64(a.Window)
			attain := 1.0
			if doneSum > 0 {
				attain = float64(metSum) / float64(doneSum)
			}

			if now < p.cooldownUntil {
				continue
			}
			switch {
			case avgDepth >= a.HighDepth*float64(p.live) && p.live < a.MaxReplicas:
				e.scale(ni, di, p.live+1, now)
			case avgDepth <= a.LowDepth*float64(p.live) && attain >= a.AttainmentFloor && p.live > a.MinReplicas:
				e.scale(ni, di, p.live-1, now)
			}
		}
	}
	next := now + a.Interval
	if next < e.o.Horizon {
		e.events.Push(next, event{kind: evTick})
	}
}

// scale moves pool (ni, di) to the target replica count, records the
// scaling event, and starts the cooldown. Scale-up brings a fresh
// replica (the next unused index) online immediately; scale-down retires
// an idle replica immediately when one exists, or lazily at its next
// free event otherwise.
func (e *engine) scale(ni, di, target int, now units.Millis) {
	p := &e.nodes[ni].pools[di]
	e.scales = append(e.scales, ScaleEvent{T: now, Node: ni, Deployment: di, From: p.live, To: target})
	p.cooldownUntil = now + e.o.Autoscaler.Cooldown
	if target > p.live {
		p.idle.Push(len(p.starts))
		p.starts = append(p.starts, 0)
		p.target = target
		p.setLive(target, now)
		e.dispatch(ni, di, now)
		return
	}
	p.target = target
	if len(p.idle) > 0 {
		p.idle.Pop() // retire the lowest idle replica now
		p.setLive(p.live-1, now)
	}
	// Otherwise every replica is busy; the next evFree retires one.
}
