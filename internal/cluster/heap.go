package cluster

// The deterministic event-loop building blocks of the serving engine.
// The (time, sequence) total order — the heart of the byte-identical
// replay contract (DESIGN.md §7, §9) — is implemented here once. None of
// these heaps satisfies container/heap: the interface would box one
// element per operation in the dispatch loop (measured at 7523 -> 98
// allocs/op on BenchmarkServeEDF), so each is a typed binary heap with
// the sift loops written out.

import "github.com/shus-lab/hios/internal/units"

// timed pairs an event payload with its total-order key.
type timed[E any] struct {
	at      units.Millis
	seq     int
	payload E
}

// eventHeap is a deterministic discrete-event queue: a typed binary
// min-heap ordered by (time, push sequence). The sequence number is
// assigned internally at push, so simultaneous events pop in push order
// and the pop sequence is a pure function of the push sequence — no
// caller can accidentally break the total order. Reserve hands out a
// sequence number for an event the caller delivers itself, merged into
// the pop order with Before.
type eventHeap[E any] struct {
	items []timed[E]
	seq   int
	high  int // high-water mark of Len
}

// Len returns the number of queued events.
func (h *eventHeap[E]) Len() int { return len(h.items) }

// Push queues payload at time at, after every event already queued for
// the same instant.
func (h *eventHeap[E]) Push(at units.Millis, payload E) {
	h.items = append(h.items, timed[E]{at: at, seq: h.seq, payload: payload})
	h.seq++
	if n := len(h.items); n > h.high {
		h.high = n
	}
	h.up(len(h.items) - 1)
}

// Reserve consumes the next push sequence number without queuing an
// event: the caller holds that event outside the heap under the number
// and delivers it first while Before reports its key earliest.
func (h *eventHeap[E]) Reserve() { h.seq++ }

// Before reports whether the key (at, seq) precedes every queued event;
// it is true on an empty heap.
func (h *eventHeap[E]) Before(at units.Millis, seq int) bool {
	return len(h.items) == 0 || earlier(at, seq, h.items[0].at, h.items[0].seq)
}

// Pop removes and returns the earliest event: its time and payload.
func (h *eventHeap[E]) Pop() (units.Millis, E) {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	h.items = s[:n]
	if n > 0 {
		h.down(0)
	}
	return x.at, x.payload
}

func (h *eventHeap[E]) less(i, j int) bool {
	return earlier(h.items[i].at, h.items[i].seq, h.items[j].at, h.items[j].seq)
}

// earlier reports whether the event key (at, seq) precedes (bt, bseq)
// in the engine's total order.
func earlier(at units.Millis, seq int, bt units.Millis, bseq int) bool {
	// Exact IEEE inequality keeps the order strict-weak; ties fall
	// through to the deterministic sequence number (cf. sim.eventHeap).
	if at != bt { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
		return at < bt
	}
	return seq < bseq
}

func (h *eventHeap[E]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *eventHeap[E]) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.less(r, l) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.items[i], h.items[j] = h.items[j], h.items[i]
		i = j
	}
}

// replicaHeap is a min-heap of replica indices: the idle set of one
// replica pool. Popping the smallest index keeps replica selection
// deterministic and stable under scale-up (new replicas get the highest
// indices and are used last).
type replicaHeap struct {
	items []int
}

// Len returns the number of idle replicas.
func (h *replicaHeap) Len() int { return len(h.items) }

// Push returns a replica to the idle set.
func (h *replicaHeap) Push(v int) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[i] >= h.items[p] {
			break
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

// Pop removes and returns the lowest idle replica index.
func (h *replicaHeap) Pop() int {
	s := h.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	h.items = s[:n]
	i, m := 0, n
	for {
		l := 2*i + 1
		if l >= m {
			break
		}
		j := l
		if r := l + 1; r < m && s[r] < s[l] {
			j = r
		}
		if s[j] >= s[i] {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return x
}

// qitem is one queued request reference with its ordering key.
type qitem struct {
	deadline units.Millis
	seq      int
	ref      int
}

// requestQueue is one replica pool's pending-request queue: a min-heap
// over (absolute deadline, enqueue sequence) when byDeadline is set
// (EDF), or plain enqueue sequence otherwise (FIFO). The keys are stored
// by value with the reference, so ordering never dereferences the
// request table.
type requestQueue struct {
	byDeadline bool
	items      []qitem
}

// Len returns the number of queued requests.
func (q *requestQueue) Len() int { return len(q.items) }

// Push queues the request identified by ref with the given absolute
// deadline and enqueue sequence number (the FIFO key and EDF tie-break).
func (q *requestQueue) Push(deadline units.Millis, seq, ref int) {
	q.items = append(q.items, qitem{deadline: deadline, seq: seq, ref: ref})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the reference of the first request in queue
// order.
func (q *requestQueue) Pop() int {
	s := q.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	q.items = s[:n]
	if n > 0 {
		q.down(0)
	}
	return x.ref
}

func (q *requestQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if q.byDeadline {
		// Exact IEEE inequality; equal deadlines fall through to the
		// deterministic enqueue order.
		if a.deadline != b.deadline { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
			return a.deadline < b.deadline
		}
	}
	return a.seq < b.seq
}

func (q *requestQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *requestQueue) down(i int) {
	n := len(q.items)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.less(r, l) {
			j = r
		}
		if !q.less(j, i) {
			break
		}
		q.items[i], q.items[j] = q.items[j], q.items[i]
		i = j
	}
}
