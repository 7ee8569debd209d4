package mpi

import (
	"sync"
	"testing"
	"time"
)

func TestSendRecvRoundTrip(t *testing.T) {
	c, err := NewComm(2, Clock{})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := c.Rank(0)
	r1, _ := c.Rank(1)
	payload := []float32{1, 2, 3}
	if err := r0.Send(1, 7, payload, 0); err != nil {
		t.Fatal(err)
	}
	got, err := r1.Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("payload corrupted: %v", got)
	}
	// Payload must be a copy.
	payload[0] = 99
	if got[0] == 99 {
		t.Fatal("Send aliases the caller's buffer")
	}
	sent, received, bytes := c.Stats()
	if sent != 1 || received != 1 || bytes != 12 {
		t.Fatalf("stats = %d %d %d", sent, received, bytes)
	}
}

func TestTagsIsolateMessages(t *testing.T) {
	c, _ := NewComm(2, Clock{})
	r0, _ := c.Rank(0)
	r1, _ := c.Rank(1)
	if err := r0.Send(1, 1, []float32{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := r0.Send(1, 2, []float32{2}, 0); err != nil {
		t.Fatal(err)
	}
	// Receive in the opposite order of sending.
	b, err := r1.Recv(0, 2)
	if err != nil || b[0] != 2 {
		t.Fatalf("tag 2 = %v (%v)", b, err)
	}
	a, err := r1.Recv(0, 1)
	if err != nil || a[0] != 1 {
		t.Fatalf("tag 1 = %v (%v)", a, err)
	}
}

func TestRecvBlocksUntilSend(t *testing.T) {
	c, _ := NewComm(2, Clock{})
	r0, _ := c.Rank(0)
	r1, _ := c.Rank(1)
	done := make(chan []float32)
	go func() {
		v, _ := r1.Recv(0, 3)
		done <- v
	}()
	select {
	case <-done:
		t.Fatal("Recv returned before Send")
	case <-time.After(10 * time.Millisecond):
	}
	if err := r0.Send(1, 3, []float32{42}, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v[0] != 42 {
			t.Fatalf("wrong payload: %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv never completed")
	}
}

// wallClock is the real clock the delay tests run on; production code
// injects the same pair from internal/runtime.
func wallClock() Clock { return Clock{Now: time.Now, Sleep: time.Sleep} }

func TestDelayedDelivery(t *testing.T) {
	c, _ := NewComm(2, wallClock())
	r0, _ := c.Rank(0)
	r1, _ := c.Rank(1)
	const delay = 30 * time.Millisecond
	start := time.Now()
	if err := r0.Send(1, 0, []float32{1}, delay); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Recv(0, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("message arrived after %v, before the %v delay", elapsed, delay)
	}
}

// A communicator without a clock delivers instantly and refuses any
// request that needs one: delayed sends and half-set clocks.
func TestClocklessSemantics(t *testing.T) {
	if _, err := NewComm(2, Clock{Now: time.Now}); err == nil {
		t.Fatal("accepted a clock with Now but no Sleep")
	}
	c, _ := NewComm(2, Clock{})
	r0, _ := c.Rank(0)
	r1, _ := c.Rank(1)
	if err := r0.Send(1, 0, []float32{1}, time.Second); err == nil {
		t.Fatal("accepted a delayed send without a clock")
	}
	// Zero-delay sends stay legal and deliver immediately.
	if err := r0.Send(1, 0, []float32{7}, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := r1.Recv(0, 0); err != nil || v[0] != 7 {
		t.Fatalf("clockless delivery = %v (%v)", v, err)
	}
}

func TestInvalidRanks(t *testing.T) {
	if _, err := NewComm(0, Clock{}); err == nil {
		t.Fatal("accepted empty communicator")
	}
	c, _ := NewComm(2, Clock{})
	if _, err := c.Rank(5); err == nil {
		t.Fatal("accepted out-of-range rank")
	}
	r0, _ := c.Rank(0)
	if err := r0.Send(5, 0, nil, 0); err == nil {
		t.Fatal("accepted send to invalid rank")
	}
	if err := r0.Send(0, 0, nil, 0); err == nil {
		t.Fatal("accepted send to self")
	}
	if _, err := r0.Recv(9, 0); err == nil {
		t.Fatal("accepted recv from invalid rank")
	}
}

func TestManyConcurrentMessages(t *testing.T) {
	const ranks = 4
	const msgs = 200
	c, _ := NewComm(ranks, Clock{})
	var wg sync.WaitGroup
	for src := 0; src < ranks; src++ {
		for dst := 0; dst < ranks; dst++ {
			if src == dst {
				continue
			}
			wg.Add(2)
			go func(src, dst int) {
				defer wg.Done()
				r, _ := c.Rank(src)
				for k := 0; k < msgs; k++ {
					if err := r.Send(dst, k, []float32{float32(src*1000 + k)}, 0); err != nil {
						t.Error(err)
						return
					}
				}
			}(src, dst)
			go func(src, dst int) {
				defer wg.Done()
				r, _ := c.Rank(dst)
				for k := 0; k < msgs; k++ {
					v, err := r.Recv(src, k)
					if err != nil || v[0] != float32(src*1000+k) {
						t.Errorf("recv %d->%d tag %d: %v %v", src, dst, k, v, err)
						return
					}
				}
			}(src, dst)
		}
	}
	wg.Wait()
	sent, received, _ := c.Stats()
	want := int64(ranks * (ranks - 1) * msgs)
	if sent != want || received != want {
		t.Fatalf("stats = %d/%d, want %d", sent, received, want)
	}
}
