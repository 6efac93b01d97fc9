package sim

import (
	"testing"
	"time"
)

// collectWheel builds a wheel whose callback appends (now, item) pairs.
func collectWheel(t *testing.T, eng *Engine, granule, horizon time.Duration) (*BatchWheel, *[]struct {
	at   Time
	item int32
}) {
	t.Helper()
	var fired []struct {
		at   Time
		item int32
	}
	w := NewBatchWheel(eng, granule, horizon, func(now Time, item int32) {
		fired = append(fired, struct {
			at   Time
			item int32
		}{now, item})
	})
	return w, &fired
}

func TestBatchWheelQuantizesUpAndBatches(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 100*time.Millisecond)
	w.Reserve(8)
	// Three items inside the same granule fire together at its boundary;
	// an aligned item fires exactly on time.
	w.Add(0, Time(1300*time.Microsecond))
	w.Add(1, Time(1900*time.Microsecond))
	w.Add(2, Time(2*time.Millisecond))
	w.Add(3, Time(5*time.Millisecond))
	eng.RunAll()
	if len(*fired) != 4 {
		t.Fatalf("fired %d of 4", len(*fired))
	}
	for _, f := range (*fired)[:3] {
		if f.at != Time(2*time.Millisecond) {
			t.Fatalf("item %d fired at %v, want 2ms", f.item, f.at)
		}
	}
	if (*fired)[3].at != Time(5*time.Millisecond) || (*fired)[3].item != 3 {
		t.Fatalf("last firing = %+v", (*fired)[3])
	}
	// One bucket of three = one engine event; item 3 = a second.
	if w.n != 0 {
		t.Fatalf("Len = %d after drain", w.n)
	}
}

func TestBatchWheelBucketOrderIsLIFO(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 50*time.Millisecond)
	for i := int32(0); i < 4; i++ {
		w.Add(i, Time(3*time.Millisecond))
	}
	eng.RunAll()
	want := []int32{3, 2, 1, 0}
	for i, f := range *fired {
		if f.item != want[i] {
			t.Fatalf("firing order %v, want reverse insertion", *fired)
		}
	}
}

func TestBatchWheelPeriodicReAdd(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	var w *BatchWheel
	w = NewBatchWheel(eng, time.Millisecond, 100*time.Millisecond, func(now Time, item int32) {
		fires = append(fires, now)
		if len(fires) < 5 {
			w.Add(item, now+4*time.Millisecond)
		}
	})
	w.Add(7, Time(4*time.Millisecond))
	eng.RunAll()
	if len(fires) != 5 {
		t.Fatalf("fired %d of 5", len(fires))
	}
	for i, at := range fires {
		if want := Time(4*(i+1)) * Time(time.Millisecond); at != want {
			t.Fatalf("fire %d at %v, want %v", i, at, want)
		}
	}
}

func TestBatchWheelReAddWithinCurrentGranuleDefers(t *testing.T) {
	eng := NewEngine()
	var fires []Time
	var w *BatchWheel
	w = NewBatchWheel(eng, time.Millisecond, 100*time.Millisecond, func(now Time, item int32) {
		fires = append(fires, now)
		if len(fires) == 1 {
			w.Add(item, now) // lands in the granule being drained
		}
	})
	w.Add(0, Time(2*time.Millisecond))
	eng.RunAll()
	if len(fires) != 2 {
		t.Fatalf("fired %d of 2", len(fires))
	}
	if fires[1] != Time(3*time.Millisecond) {
		t.Fatalf("deferred re-add fired at %v, want next granule 3ms", fires[1])
	}
}

func TestBatchWheelPastTimeFiresASAP(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 50*time.Millisecond)
	eng.Schedule(10*time.Millisecond, func() {})
	eng.RunAll() // now = 10ms
	w.Add(1, Time(2*time.Millisecond))
	eng.RunAll()
	if len(*fired) != 1 {
		t.Fatalf("fired %d of 1", len(*fired))
	}
	if (*fired)[0].at < Time(10*time.Millisecond) {
		t.Fatalf("past add fired at %v, before now", (*fired)[0].at)
	}
}

func TestBatchWheelEarlierAddReschedules(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 200*time.Millisecond)
	w.Add(0, Time(50*time.Millisecond))
	w.Add(1, Time(10*time.Millisecond)) // earlier: must preempt the armed event
	eng.RunAll()
	if len(*fired) != 2 {
		t.Fatalf("fired %d of 2", len(*fired))
	}
	if (*fired)[0].item != 1 || (*fired)[0].at != Time(10*time.Millisecond) {
		t.Fatalf("first firing %+v, want item 1 at 10ms", (*fired)[0])
	}
	if (*fired)[1].item != 0 || (*fired)[1].at != Time(50*time.Millisecond) {
		t.Fatalf("second firing %+v", (*fired)[1])
	}
}

func TestBatchWheelIdlePastHorizonStillAccepts(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 64*time.Millisecond)
	w.Add(0, Time(time.Millisecond))
	eng.RunAll()
	// Idle far longer than the ring horizon, then schedule again.
	eng.Schedule(10*time.Second, func() {})
	eng.RunAll()
	w.Add(0, eng.Now()+Time(5*time.Millisecond))
	eng.RunAll()
	if len(*fired) != 2 {
		t.Fatalf("fired %d of 2", len(*fired))
	}
}

func TestBatchWheelBeyondHorizonPanics(t *testing.T) {
	eng := NewEngine()
	w, _ := collectWheel(t, eng, time.Millisecond, 64*time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for an add beyond the ring horizon")
		}
	}()
	w.Add(0, Time(10*time.Second))
}

func TestBatchWheelStopForgetsAndReArms(t *testing.T) {
	eng := NewEngine()
	w, fired := collectWheel(t, eng, time.Millisecond, 100*time.Millisecond)
	w.Add(0, Time(5*time.Millisecond))
	w.Add(1, Time(7*time.Millisecond))
	w.Stop()
	if w.n != 0 {
		t.Fatalf("Len = %d after Stop", w.n)
	}
	eng.RunAll()
	if len(*fired) != 0 {
		t.Fatalf("stopped wheel fired %d items", len(*fired))
	}
	w.Add(1, Time(3*time.Millisecond))
	eng.RunAll()
	if len(*fired) != 1 || (*fired)[0].item != 1 {
		t.Fatalf("post-Stop add did not fire: %v", *fired)
	}
}

func TestBatchWheelInterleavesWithEngineEvents(t *testing.T) {
	// The wheel's single event must coexist with ordinary events and
	// produce the same sequence on identical runs.
	run := func() []int {
		eng := NewEngine()
		var order []int
		w := NewBatchWheel(eng, time.Millisecond, 100*time.Millisecond, func(_ Time, item int32) {
			order = append(order, int(item)+100)
		})
		for i := 0; i < 10; i++ {
			i := i
			eng.Schedule(time.Duration(i+1)*3*time.Millisecond/2, func() { order = append(order, i) })
			w.Add(int32(i), Time(time.Duration(10-i)*2*time.Millisecond))
		}
		eng.RunAll()
		return order
	}
	a, b := run(), run()
	if len(a) != 20 {
		t.Fatalf("run produced %d firings, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
}

func TestBatchWheelSteadyStateDoesNotAllocate(t *testing.T) {
	eng := NewEngine()
	w := NewBatchWheel(eng, time.Millisecond, 100*time.Millisecond, func(now Time, item int32) {})
	w.Reserve(64)
	// Warm the engine's event freelist.
	for i := int32(0); i < 64; i++ {
		w.Add(i, eng.Now()+Time(time.Millisecond))
	}
	eng.RunAll()
	avg := testing.AllocsPerRun(100, func() {
		for i := int32(0); i < 64; i++ {
			w.Add(i, eng.Now()+Time(time.Millisecond))
		}
		eng.RunAll()
	})
	if avg != 0 {
		t.Fatalf("steady-state add+drain allocates %.1f times per round, want 0", avg)
	}
}
