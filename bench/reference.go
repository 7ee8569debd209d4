package main

import (
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// refEvery is how often a run times the reference computation between
// requests.
const refEvery = 250 * time.Millisecond

// refSeconds is about one copy of the reference's time on the quiet host
// the baseline in README.md was measured on. setup_s is the median of the
// set-up times relative to the reference, times refSeconds: set-up time in
// seconds of a host whose speed does not drift.
const refSeconds = 0.012

var refSink uint64

// reference times copies of fixed work started at once, one goroutine
// each. The work shares no code with the program: map probes, a sort and
// allocation over a few megabytes, the mix the schedulers spend their time
// on. A shared host's speed drifts by a third within minutes, and request
// times drift with it; dividing them by the reference, timed in the same
// process just before and after them (see relative), divides the host's
// speed out. A workload whose requests use every core runs one copy per
// core, so that the reference sees the same share of the host.
func reference(copies int) time.Duration {
	sinks := make([]uint64, copies)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sinks[c] = refWork()
		}()
	}
	wg.Wait()
	d := time.Since(t0)
	for _, s := range sinks {
		refSink += s
	}
	return d
}

// relative divides each time xs[k] by the mean of the two reference times
// around it, refs[before[k]] and refs[before[k]+1]; a nil before means
// before[k] = k. The references nearest in time track the host's speed
// while xs[k] was measured better than a median over the run does.
func relative(xs []float64, before []int, refs []float64) []float64 {
	out := make([]float64, len(xs))
	for k, x := range xs {
		j := k
		if before != nil {
			j = before[k]
		}
		out[k] = x / ((refs[j] + refs[j+1]) / 2)
	}
	return out
}

func refWork() uint64 {
	rng := rand.New(rand.NewPCG(1, 2))
	m := make(map[uint64]uint64)
	for i := range 30000 {
		m[rng.Uint64N(100000)] += uint64(i)
	}
	xs := make([]uint64, 80000)
	for i := range xs {
		xs[i] = rng.Uint64()
	}
	slices.Sort(xs)
	var s uint64
	for i := range 100000 {
		s += m[uint64(i)] + xs[i%len(xs)]
	}
	return s
}
