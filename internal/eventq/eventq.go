// Package eventq is the deterministic event queue under both
// discrete-event engines: the schedule simulator (internal/sim) and the
// serving engine (internal/cluster).
//
// Events pop in (time, sequence) order, the total order the
// byte-identical replay contract rests on (DESIGN.md §7). The sequence
// number is assigned inside the queue on Push, so simultaneous events pop
// in push order and the pop sequence is a pure function of the push
// sequence: no caller can break the total order.
//
// Queue does not satisfy container/heap: that interface trades in `any`
// and would box one element per operation in the engines' hot loops
// (measured at 7523 -> 98 allocs/op on the serving engine's EDF
// benchmark), so it is a typed binary heap with the sift loops written
// out.
package eventq

import "github.com/shus-lab/hios/internal/units"

// item pairs a payload with its total-order key.
type item[E any] struct {
	at      units.Millis
	seq     int
	payload E
}

// Queue is a min-heap of payloads ordered by (time, push sequence). The
// zero value is an empty queue. Reserve hands out a sequence number for
// an event the caller delivers itself, merged into the pop order with
// Before.
type Queue[E any] struct {
	items []item[E]
	seq   int
	high  int // high-water mark of Len
}

// Len returns the number of queued events.
func (q *Queue[E]) Len() int { return len(q.items) }

// High returns the largest Len the queue has reached.
func (q *Queue[E]) High() int { return q.high }

// Seq returns the sequence number the next Push or Reserve takes.
func (q *Queue[E]) Seq() int { return q.seq }

// Push queues payload at time at, after every event already queued for
// the same instant.
func (q *Queue[E]) Push(at units.Millis, payload E) {
	q.items = append(q.items, item[E]{at: at, seq: q.seq, payload: payload})
	q.seq++
	n := len(q.items)
	q.high = max(q.high, n)
	q.up(n - 1)
}

// Reserve consumes the next sequence number without queuing an event:
// the caller holds that event outside the queue under the number and
// delivers it first while Before reports its key earliest.
func (q *Queue[E]) Reserve() { q.seq++ }

// Before reports whether the key (at, seq) precedes every queued event;
// it is true on an empty queue.
func (q *Queue[E]) Before(at units.Millis, seq int) bool {
	return len(q.items) == 0 || Earlier(at, seq, q.items[0].at, q.items[0].seq)
}

// Pop removes and returns the earliest event: its time and payload. The
// queue must not be empty.
func (q *Queue[E]) Pop() (units.Millis, E) {
	s := q.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	x := s[n]
	q.items = s[:n]
	if n > 0 {
		q.down(0)
	}
	return x.at, x.payload
}

// Earlier reports whether the key (at, seq) precedes (bt, bseq) in the
// (time, sequence) total order.
func Earlier(at units.Millis, seq int, bt units.Millis, bseq int) bool {
	// Exact IEEE inequality keeps the order strict-weak; ties fall
	// through to the deterministic sequence number.
	if at != bt { //lint:floatexact comparator tie-break: epsilon would break the strict weak order
		return at < bt
	}
	return seq < bseq
}

func (q *Queue[E]) less(i, j int) bool {
	return Earlier(q.items[i].at, q.items[i].seq, q.items[j].at, q.items[j].seq)
}

func (q *Queue[E]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *Queue[E]) down(i int) {
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
