package eventq

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/shus-lab/hios/internal/units"
)

// replay drives a Queue with the operations encoded in ops and checks
// every result against a reference: a slice of the queued events in push
// order, stably sorted by time before each pop, so ties pop in push
// order. Each byte is one operation; its low three bits pick it (0-3
// push, 4 reserve, 5 Before on an earlier reserved key, 6-7 pop) and the
// rest pick one of six times, so most keys tie. fifo queues every event
// at time 0, the request queue's FIFO key. replay returns the number of
// pops that tied with the previous pop's time.
func replay(t testing.TB, ops []byte, fifo bool) (ties int) {
	t.Helper()
	var q Queue[int]
	var ref []item[int]
	var reserved []item[int]
	seq, high := 0, 0
	last := units.Millis(-1)
	pop := func(step int) {
		slices.SortStableFunc(ref, func(a, b item[int]) int {
			switch {
			case a.at < b.at:
				return -1
			case b.at < a.at:
				return 1
			}
			return 0
		})
		want := ref[0]
		ref = ref[1:]
		at, got := q.Pop()
		if at != want.at || got != want.payload { //lint:floatexact replay identity: both sides must pop the same bits
			t.Fatalf("step %d: popped (%v, %d), reference (%v, %d)", step, at, got, want.at, want.payload)
		}
		if at == last { //lint:floatexact counting same-instant pops
			ties++
		}
		last = at
	}
	for i, b := range ops {
		at := units.Millis((b >> 3) % 6)
		if fifo {
			at = 0
		}
		switch b & 7 {
		case 0, 1, 2, 3:
			q.Push(at, i)
			ref = append(ref, item[int]{at: at, seq: seq, payload: i})
			seq++
			high = max(high, len(ref))
		case 4:
			q.Reserve()
			reserved = append(reserved, item[int]{at: at, seq: seq})
			seq++
		case 5:
			if len(reserved) == 0 {
				continue
			}
			k := reserved[int(b>>3)%len(reserved)]
			want := true
			for _, r := range ref {
				if !(k.at < r.at || (!(r.at < k.at) && k.seq < r.seq)) {
					want = false
				}
			}
			if got := q.Before(k.at, k.seq); got != want {
				t.Fatalf("step %d: Before(%v, %d) = %v, reference %v", i, k.at, k.seq, got, want)
			}
		default:
			if len(ref) > 0 {
				pop(i)
			}
		}
		if q.Len() != len(ref) || q.Seq() != seq || q.High() != high {
			t.Fatalf("step %d: Len %d, Seq %d, High %d; reference %d, %d, %d", i, q.Len(), q.Seq(), q.High(), len(ref), seq, high)
		}
	}
	for len(ref) > 0 {
		pop(len(ops))
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d events after the reference drained", q.Len())
	}
	return ties
}

// TestQueueMatchesSort checks random operation streams with many tied
// times against a stable sort by (time, sequence), under deadline-like
// keys and under the all-zero FIFO key.
func TestQueueMatchesSort(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 500+rng.Intn(1500))
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			if ties := replay(t, ops, fifo); ties < len(ops)/8 {
				t.Fatalf("fifo %v seed %d: only %d tied pops in %d operations: the ties this test exists for are missing", fifo, seed, ties, len(ops))
			}
		}
	}
}

// FuzzQueue replays fuzzed operation streams against the reference
// (committed corpus in testdata/fuzz/FuzzQueue).
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte, fifo bool) {
		replay(t, ops, fifo)
	})
}

// BenchmarkQueuePushPop is the queue's per-event cost at a steady depth
// of 64 (the serving engine's event queue peaks at 58 on
// BenchmarkClusterServe's six-node fleet): each event is one pop and one push a short, pre-drawn
// delay later, with the serving engine's 24-byte payload.
func BenchmarkQueuePushPop(b *testing.B) {
	const depth = 64
	rng := rand.New(rand.NewSource(1))
	delays := make([]units.Millis, 1024)
	for i := range delays {
		delays[i] = units.Millis(rng.ExpFloat64())
	}
	var q Queue[[3]int]
	for i := 0; i < depth; i++ {
		q.Push(delays[i], [3]int{i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now, ev := q.Pop()
		q.Push(now+delays[i&1023], ev)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}
