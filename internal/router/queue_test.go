package router

import (
	"testing"
	"time"
)

// flowQueue builds a byte-accounted int queue where every item costs its
// own value in bytes, making watermark arithmetic explicit in tests.
func flowQueue(high, low int) *Queue[int] {
	return NewFlowQueue[int](func(v int) int { return v }, high, low)
}

func TestQueueWatermarkHysteresis(t *testing.T) {
	q := flowQueue(100, 50)

	// Below the high watermark the queue accepts Offers.
	if !q.Offer(40) || !q.Offer(40) {
		t.Fatal("Offer rejected below the high watermark")
	}
	if st := q.Stats(); st.Congested {
		t.Fatalf("congested at %d bytes, high watermark is 100", st.Bytes)
	}
	// The Offer crossing the watermark is admitted; the queue then turns
	// congested and sheds subsequent Offers.
	if !q.Offer(40) {
		t.Fatal("watermark-crossing Offer rejected")
	}
	if st := q.Stats(); !st.Congested || st.Bytes != 120 {
		t.Fatalf("Stats after crossing = %+v, want congested at 120 bytes", st)
	}
	if q.Offer(10) {
		t.Fatal("Offer accepted while congested")
	}
	if st := q.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	// Control traffic is never shed, congested or not.
	q.Push(40)
	if st := q.Stats(); st.Bytes != 160 || st.Pushed != 4 {
		t.Fatalf("Stats after congested Push = %+v", st)
	}

	// Draining to 80 bytes (≥ low watermark 50) must NOT clear congestion…
	q.Pop()
	q.Pop()
	if st := q.Stats(); !st.Congested || st.Bytes != 80 {
		t.Fatalf("Stats mid-drain = %+v, want still congested at 80 bytes", st)
	}
	if q.Offer(10) {
		t.Fatal("Offer accepted above the low watermark")
	}
	// …and draining below it must.
	q.Pop()
	if st := q.Stats(); st.Congested || st.Bytes != 40 {
		t.Fatalf("Stats after drain = %+v, want credit restored at 40 bytes", st)
	}
	if !q.Offer(10) {
		t.Fatal("Offer rejected after congestion cleared")
	}
	if st := q.Stats(); st.Shed != 2 {
		t.Fatalf("final Shed = %d, want 2", st.Shed)
	}
}

func TestQueueCongestedFor(t *testing.T) {
	q := flowQueue(10, 5)
	if d := q.CongestedFor(); d != 0 {
		t.Fatalf("CongestedFor on fresh queue = %v", d)
	}
	q.Push(10)
	time.Sleep(5 * time.Millisecond)
	if d := q.CongestedFor(); d < 5*time.Millisecond {
		t.Fatalf("CongestedFor = %v, want >= 5ms", d)
	}
	q.Pop()
	if d := q.CongestedFor(); d != 0 {
		t.Fatalf("CongestedFor after drain = %v", d)
	}
}

func TestQueueCloseEdges(t *testing.T) {
	q := flowQueue(100, 50)
	q.Push(10)
	q.Close()

	// Push and Offer after Close are dropped without panicking, and the
	// drop is not a congestion shed.
	q.Push(1)
	if q.Offer(1) {
		t.Error("Offer accepted after Close")
	}
	if st := q.Stats(); st.Items != 0 || st.Shed != 0 || st.Pushed != 1 {
		t.Errorf("Stats after Close = %+v", st)
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop delivered after Close")
	}
	q.Close() // idempotent

	// A Pop blocked on an empty queue wakes on Close.
	q2 := flowQueue(100, 50)
	woke := make(chan bool, 1)
	go func() {
		_, ok := q2.Pop()
		woke <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	q2.Close()
	select {
	case ok := <-woke:
		if ok {
			t.Error("blocked Pop returned ok after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Pop did not wake on Close")
	}
}

func TestQueueRingWrapsFIFO(t *testing.T) {
	// Interleave pushes and pops so head wraps around the ring repeatedly.
	q := flowQueue(0, 0) // Push only: never shed
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != want {
				t.Fatalf("Pop = %d, %v; want %d", v, ok, want)
			}
			want++
		}
	}
	for want < next {
		v, ok := q.Pop()
		if !ok || v != want {
			t.Fatalf("drain Pop = %d, %v; want %d", v, ok, want)
		}
		want++
	}
	if n := q.Stats().Items; n != 0 {
		t.Fatalf("Items = %d after drain", n)
	}
}

// TestQueueDropsDrainedBurstRing: a burst grows the ring, and draining it
// gives the memory back, so a link does not keep its peak for life.
func TestQueueDropsDrainedBurstRing(t *testing.T) {
	q := flowQueue(0, 0) // Push only: never shed
	for i := 0; i < 10000; i++ {
		q.Push(1)
	}
	if n := len(q.buf); n < 10000 {
		t.Fatalf("ring holds %d slots with 10000 queued", n)
	}
	for i := 0; i < 10000; i++ {
		if v, ok := q.TryPop(); !ok || v != 1 {
			t.Fatalf("TryPop %d = %d, %v", i, v, ok)
		}
	}
	if n := len(q.buf); n > maxIdleRing {
		t.Errorf("drained ring holds %d slots, want <= %d", n, maxIdleRing)
	}
	// The queue works on after the drop: FIFO from a regrown ring.
	q.Push(7)
	q.Push(8)
	if v, _ := q.Pop(); v != 7 {
		t.Errorf("Pop after regrow = %d, want 7", v)
	}
	if st := q.Stats(); st.Items != 1 || st.Bytes != 8 {
		t.Errorf("Stats after regrow = %+v, want 1 item of 8 bytes", st)
	}
}

func TestEstimateMsgBytes(t *testing.T) {
	ev := bandEvent(1, 10)
	if got := EstimateMsgBytes(Msg{Kind: Event, Ev: ev}); got <= msgOverheadBytes {
		t.Errorf("event estimate = %d, want > fixed overhead", got)
	}
	if got := EstimateMsgBytes(Msg{Kind: Sub}); got != msgOverheadBytes+subEstimateBytes {
		t.Errorf("sub estimate = %d", got)
	}
	if got := EstimateMsgBytes(Msg{Kind: Unsub}); got != msgOverheadBytes {
		t.Errorf("unsub estimate = %d", got)
	}
}

// BenchmarkQueueSteadyState shows the ring reuses its backing array: once
// warm, a Push/Pop cycle allocates nothing (the old slice-based queue lost
// capacity on every Pop and reallocated continually under steady load).
func BenchmarkQueueSteadyState(b *testing.B) {
	q := NewFlowQueue[int](func(int) int { return 1 }, 1<<20, 1<<19)
	for i := 0; i < 16; i++ {
		q.Push(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewFlowQueue[int](func(int) int { return 1 }, 1<<20, 1<<19)
	for i := 0; i < 16; i++ {
		q.Push(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push/Pop allocates %.1f per op, want 0", allocs)
	}
	// A burst drain: one blocking Pop, then TryPop until the queue is dry.
	allocs = testing.AllocsPerRun(1000, func() {
		for i := 0; i < 4; i++ {
			q.Push(i)
		}
		q.Pop()
		for {
			if _, ok := q.TryPop(); !ok {
				break
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state burst drain allocates %.1f per op, want 0", allocs)
	}
}

// TestQueueTryPop pins the non-blocking drain: FIFO beside Pop, false on
// an empty or closed queue, and each item's credit returned at the size it
// was accounted at, even if its sizeOf would now say otherwise.
func TestQueueTryPop(t *testing.T) {
	scale := 1
	q := NewFlowQueue[int](func(v int) int { return v * scale }, 100, 50)
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on an empty queue returned ok")
	}
	q.Push(60)
	q.Push(50)
	if !q.Stats().Congested {
		t.Fatal("not congested at 110 bytes")
	}
	scale = 1000 // the stored sizes, not a re-measure, must come back
	if v, ok := q.Pop(); !ok || v != 60 {
		t.Fatalf("Pop = %d, %v; want 60", v, ok)
	}
	if st := q.Stats(); st.Bytes != 50 || !st.Congested {
		t.Fatalf("Stats after Pop = %+v, want congested at 50 bytes", st)
	}
	if v, ok := q.TryPop(); !ok || v != 50 {
		t.Fatalf("TryPop = %d, %v; want 50", v, ok)
	}
	if st := q.Stats(); st.Bytes != 0 || st.Congested || st.Items != 0 {
		t.Fatalf("Stats after drain = %+v, want empty with credit", st)
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on a drained queue returned ok")
	}
	q.Push(1)
	q.Close()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop delivered after Close")
	}
}
