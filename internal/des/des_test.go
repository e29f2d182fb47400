package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// nop is a handler that does nothing.
func nop(*Simulator, int) {}

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New()
	times := []float64{5, 1, 3, 2, 4, 2.5}
	var fired []float64
	for _, at := range times {
		sim.ScheduleAt(at, func(s *Simulator, _ int) { fired = append(fired, s.Now()) }, 0)
	}
	sim.Run()
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestSameTimeEventsFireFIFO(t *testing.T) {
	sim := New()
	var order []int
	record := func(_ *Simulator, i int) { order = append(order, i) }
	for i := 0; i < 10; i++ {
		sim.ScheduleAt(1.0, record, i)
	}
	sim.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired in order %v, want FIFO", order)
		}
	}
}

func TestScheduleRelative(t *testing.T) {
	sim := New()
	var at float64
	sim.Schedule(2, func(s *Simulator, _ int) {
		s.Schedule(3, func(s *Simulator, _ int) { at = s.Now() }, 0)
	}, 0)
	sim.Run()
	if at != 5 {
		t.Fatalf("nested relative schedule fired at %v, want 5", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	sim := New()
	fired := false
	e := sim.ScheduleAt(1, func(*Simulator, int) { fired = true }, 0)
	sim.Cancel(e)
	sim.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if sim.Pending(e) {
		t.Fatal("cancelled event still pending")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	sim := New()
	e := sim.ScheduleAt(1, nop, 0)
	sim.Cancel(e)
	sim.Cancel(e) // must not panic or corrupt the heap
	sim.Cancel(Event{})
	sim.ScheduleAt(2, nop, 0)
	if got := sim.Run(); got != 1 {
		t.Fatalf("fired %d events after double cancel, want 1", got)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	sim := New()
	var fired []float64
	var events []Event
	for _, at := range []float64{1, 2, 3, 4, 5} {
		events = append(events, sim.ScheduleAt(at, func(s *Simulator, _ int) {
			fired = append(fired, s.Now())
		}, 0))
	}
	sim.Cancel(events[2]) // cancel t=3
	sim.Run()
	want := []float64{1, 2, 4, 5}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestStaleHandleAfterReuse checks that a handle whose event fired does
// not reach the event that reuses its slot.
func TestStaleHandleAfterReuse(t *testing.T) {
	sim := New()
	old := sim.ScheduleAt(1, nop, 0)
	sim.Step()
	fired := false
	fresh := sim.ScheduleAt(2, func(*Simulator, int) { fired = true }, 0)
	if fresh.id != old.id {
		t.Fatalf("fresh event took slot %d, want the freed slot %d", fresh.id, old.id)
	}
	if sim.Pending(old) || !math.IsNaN(sim.Time(old)) {
		t.Fatal("stale handle reports the reused slot's event")
	}
	sim.Cancel(old)
	if !sim.Pending(fresh) || sim.Time(fresh) != 2 {
		t.Fatal("cancelling a stale handle touched the reused slot")
	}
	sim.Run()
	if !fired {
		t.Fatal("event in the reused slot did not fire")
	}
}

func TestZeroEventIsNotPending(t *testing.T) {
	sim := New()
	if sim.Pending(Event{}) || !math.IsNaN(sim.Time(Event{})) {
		t.Fatal("zero Event reports a pending event")
	}
}

func TestReschedulePending(t *testing.T) {
	sim := New()
	var at float64
	e := sim.ScheduleAt(1, func(s *Simulator, _ int) { at = s.Now() }, 0)
	sim.Reschedule(e, 7)
	if sim.Time(e) != 7 {
		t.Fatalf("Time after reschedule = %v, want 7", sim.Time(e))
	}
	sim.Run()
	if at != 7 {
		t.Fatalf("rescheduled event fired at %v, want 7", at)
	}
}

// TestRescheduleCancelledPanics pins the Reschedule contract: only a
// pending event moves. A cancelled or fired handle is stale, and
// requeueing it is a bug in the caller.
func TestRescheduleCancelledPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		done func(*Simulator, Event)
	}{
		{"cancelled", func(s *Simulator, e Event) { s.Cancel(e) }},
		{"fired", func(s *Simulator, _ Event) { s.Step() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := New()
			e := sim.ScheduleAt(1, nop, 0)
			tc.done(sim, e)
			defer func() {
				if recover() == nil {
					t.Fatal("Reschedule of a non-pending event did not panic")
				}
			}()
			sim.Reschedule(e, 2)
		})
	}
}

func TestRescheduleKeepsOrder(t *testing.T) {
	sim := New()
	var order []string
	a := sim.ScheduleAt(1, func(*Simulator, int) { order = append(order, "a") }, 0)
	sim.ScheduleAt(2, func(*Simulator, int) { order = append(order, "b") }, 0)
	sim.Reschedule(a, 3) // a moves after b
	sim.Run()
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order after reschedule = %v, want [b a]", order)
	}
}

// TestRescheduleGoesAfterSameTimeEvents pins where a rescheduled event
// lands among ties: it takes a fresh sequence number, so it fires after
// every event already queued for its new time.
func TestRescheduleGoesAfterSameTimeEvents(t *testing.T) {
	sim := New()
	var order []int
	record := func(_ *Simulator, i int) { order = append(order, i) }
	a := sim.ScheduleAt(1, record, 0)
	sim.ScheduleAt(1, record, 1)
	sim.Reschedule(a, 1)
	sim.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("order after same-time reschedule = %v, want [1 0]", order)
	}
}

func TestStopHaltsRun(t *testing.T) {
	sim := New()
	count := 0
	for i := 1; i <= 10; i++ {
		sim.ScheduleAt(float64(i), func(s *Simulator, _ int) {
			count++
			if count == 3 {
				s.Stop()
			}
		}, 0)
	}
	fired := sim.Run()
	if fired != 3 || count != 3 {
		t.Fatalf("Run fired %d events (count %d), want 3", fired, count)
	}
	// A subsequent Run resumes with the remaining events.
	if rest := sim.Run(); rest != 7 {
		t.Fatalf("resumed Run fired %d, want 7", rest)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	sim := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		sim.ScheduleAt(at, func(s *Simulator, _ int) { fired = append(fired, s.Now()) }, 0)
	}
	n := sim.RunUntil(3)
	if n != 3 || len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", n)
	}
	if sim.Now() != 3 {
		t.Fatalf("clock at %v after RunUntil(3), want 3", sim.Now())
	}
	if sim.Len() != 2 {
		t.Fatalf("%d events left, want 2", sim.Len())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	sim := New()
	sim.RunUntil(10)
	if sim.Now() != 10 {
		t.Fatalf("idle RunUntil left clock at %v, want 10", sim.Now())
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	sim := New()
	sim.ScheduleAt(5, nop, 0)
	sim.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	sim.ScheduleAt(1, nop, 0)
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule with negative delay did not panic")
		}
	}()
	New().Schedule(-1, nop, 0)
}

func TestRandomWorkloadFiresSorted(t *testing.T) {
	// Property: any mix of schedules and cancellations fires the
	// surviving events in nondecreasing time order, exactly once each.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		sim := New()
		var fired []float64
		var live []Event
		expected := 0
		for i := 0; i < 200; i++ {
			at := rng.Float64() * 100
			e := sim.ScheduleAt(at, func(s *Simulator, _ int) { fired = append(fired, s.Now()) }, 0)
			live = append(live, e)
			expected++
			if rng.Intn(4) == 0 && len(live) > 0 {
				k := rng.Intn(len(live))
				if sim.Pending(live[k]) {
					sim.Cancel(live[k])
					expected--
				}
			}
		}
		sim.Run()
		if len(fired) != expected {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), expected)
		}
		if !sort.Float64sAreSorted(fired) {
			t.Fatalf("trial %d: events fired out of order", trial)
		}
	}
}

func TestStepOnEmptyQueue(t *testing.T) {
	sim := New()
	if sim.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestScheduleFireDoesNotAllocate pins the kernel's allocation contract:
// once the arena and heap have grown to the pending count, a schedule +
// fire cycle, a reschedule and a cancel allocate nothing.
func TestScheduleFireDoesNotAllocate(t *testing.T) {
	sim := New()
	for i := 0; i < 64; i++ {
		sim.Schedule(1e6+float64(i), nop, i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := sim.Schedule(1, nop, 7)
		sim.Reschedule(e, sim.Time(e)+1)
		sim.Cancel(sim.Schedule(3, nop, 8))
		sim.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule/reschedule/cancel/fire allocates %.1f times per cycle, want 0", allocs)
	}
}
