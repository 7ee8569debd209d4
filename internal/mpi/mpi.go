// Package mpi is an in-process stand-in for the CUDA-aware MPI layer the
// paper's HIOS engine uses for inter-GPU tensor transfers. A Comm spans a
// fixed number of ranks (one per simulated GPU worker); ranks exchange
// tagged float32 tensors through mailboxes, each send carrying the
// transfer delay the caller charges for it, so the executor experiences
// the same communication/computation overlap structure the real system
// does.
//
// Semantics mirror the MPI subset HIOS needs: point-to-point tagged
// send/receive (MPI_Send/MPI_Recv with CUDA device pointers in the
// original). Sends are asynchronous (buffered); receives block until the
// matching message has fully "arrived" after its delay. The package never
// reads wall-clock time itself — the detclock invariant holds here too —
// so delayed sends require the caller to inject a Clock; without one,
// delivery is instant and deterministic.
package mpi

import (
	"fmt"
	"sync"
	"time"
)

// Clock supplies the wall-clock operations delayed sends run on. The
// package itself never reads time — delay modeling engages only when
// the measurement layer injects real clock functions (internal/runtime
// passes time.Now and time.Sleep, the one place wall-clock is legal).
// A zero Clock gives a clockless communicator: messages deliver
// instantly and any delayed send is rejected.
type Clock struct {
	Now   func() time.Time
	Sleep func(time.Duration)
}

// set reports whether the clock can time transfers.
func (c Clock) set() bool { return c.Now != nil && c.Sleep != nil }

// Comm is a communicator over a fixed set of ranks.
type Comm struct {
	size  int
	clock Clock

	mu    sync.Mutex
	boxes map[boxKey]chan envelope

	sent, received int64
	bytesMoved     int64
}

type boxKey struct {
	src, dst, tag int
}

type envelope struct {
	data    []float32
	readyAt time.Time
}

// NewComm creates a communicator with the given number of ranks and
// clock. A half-set clock can compute a deadline it cannot sleep to, so
// it is rejected up front.
func NewComm(size int, clock Clock) (*Comm, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: communicator needs at least 1 rank, got %d", size)
	}
	if (clock.Now != nil) != (clock.Sleep != nil) {
		return nil, fmt.Errorf("mpi: clock must set both Now and Sleep, or neither")
	}
	return &Comm{size: size, clock: clock, boxes: make(map[boxKey]chan envelope)}, nil
}

// Rank returns the handle for rank i.
func (c *Comm) Rank(i int) (*Rank, error) {
	if i < 0 || i >= c.size {
		return nil, fmt.Errorf("mpi: rank %d out of range [0, %d)", i, c.size)
	}
	return &Rank{id: i, comm: c}, nil
}

// box returns (creating if needed) the mailbox for (src, dst, tag).
func (c *Comm) box(k boxKey) chan envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.boxes[k]
	if !ok {
		// Generous buffering keeps sends non-blocking for the message
		// patterns the executor generates (one tensor per edge).
		b = make(chan envelope, 64)
		c.boxes[k] = b
	}
	return b
}

// Stats reports message counts and payload volume.
func (c *Comm) Stats() (sent, received, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent, c.received, c.bytesMoved
}

// Rank is one endpoint of a communicator.
type Rank struct {
	id   int
	comm *Comm
}

// Send delivers data to rank dst under the given tag, arriving delay
// after the send; the executor charges the cost model's per-edge
// transfer time. A positive delay requires the communicator to have a
// Clock. The payload is copied, so the caller may reuse its buffer. Send
// does not block on the receiver (buffered mailbox); it returns an error
// for invalid ranks.
func (r *Rank) Send(dst, tag int, data []float32, delay time.Duration) error {
	if dst < 0 || dst >= r.comm.size {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	if dst == r.id {
		return fmt.Errorf("mpi: rank %d sending to itself", dst)
	}
	var readyAt time.Time
	if delay > 0 {
		if !r.comm.clock.set() {
			return fmt.Errorf("mpi: delayed send needs a clock; construct the communicator with one")
		}
		readyAt = r.comm.clock.Now().Add(delay)
	}
	cp := make([]float32, len(data))
	copy(cp, data)
	box := r.comm.box(boxKey{src: r.id, dst: dst, tag: tag})
	select {
	case box <- envelope{data: cp, readyAt: readyAt}:
	default:
		// Mailbox full: block (backpressure), like an un-buffered
		// MPI_Send past the eager threshold.
		box <- envelope{data: cp, readyAt: readyAt}
	}
	r.comm.mu.Lock()
	r.comm.sent++
	r.comm.bytesMoved += int64(4 * len(data))
	r.comm.mu.Unlock()
	return nil
}

// Recv blocks until the message from rank src with the given tag arrives
// (send order per (src, dst, tag) is preserved) and its delay has
// elapsed, then returns the payload.
func (r *Rank) Recv(src, tag int) ([]float32, error) {
	if src < 0 || src >= r.comm.size {
		return nil, fmt.Errorf("mpi: recv from invalid rank %d", src)
	}
	box := r.comm.box(boxKey{src: src, dst: r.id, tag: tag})
	env := <-box
	// readyAt is only ever set by a clocked send, so the clock is
	// guaranteed present here.
	if !env.readyAt.IsZero() {
		if wait := env.readyAt.Sub(r.comm.clock.Now()); wait > 0 {
			r.comm.clock.Sleep(wait)
		}
	}
	r.comm.mu.Lock()
	r.comm.received++
	r.comm.mu.Unlock()
	return env.data, nil
}
