package des

import (
	"math"
	"testing"
)

// refEvent is one event of the reference queue.
type refEvent struct {
	time   float64
	seq    uint64
	handle int // index into the fuzz run's handle list
}

// refQueue is the differential reference for the kernel: an unordered
// slice searched linearly for the minimum (time, seq), with sequence
// numbers assigned at the same points as the kernel's.
type refQueue struct {
	evs []refEvent
	seq uint64
}

func (q *refQueue) find(handle int) int {
	for i, e := range q.evs {
		if e.handle == handle {
			return i
		}
	}
	return -1
}

func (q *refQueue) schedule(t float64, handle int) {
	q.evs = append(q.evs, refEvent{time: t, seq: q.seq, handle: handle})
	q.seq++
}

func (q *refQueue) cancel(handle int) {
	if i := q.find(handle); i >= 0 {
		q.evs = append(q.evs[:i], q.evs[i+1:]...)
	}
}

func (q *refQueue) reschedule(handle int, t float64) {
	i := q.find(handle)
	q.evs[i].time, q.evs[i].seq = t, q.seq
	q.seq++
}

// pop removes and returns the first event in (time, seq) order.
func (q *refQueue) pop() refEvent {
	best := 0
	for i, e := range q.evs {
		b := q.evs[best]
		if e.time < b.time || (e.time == b.time && e.seq < b.seq) {
			best = i
		}
	}
	e := q.evs[best]
	q.evs = append(q.evs[:best], q.evs[best+1:]...)
	return e
}

// fuzzDelays is the small delay alphabet: repeated values make
// same-time ties, the case the seq tie-breaker exists for, common.
var fuzzDelays = [...]float64{0, 0.5, 1, 1, 2, 2, 3, 7.5}

// FuzzEventOrder decodes the input into schedule, cancel, reschedule,
// step and inspect operations — including cancels and reschedules of
// stale handles — and checks the kernel against refQueue after every
// one: the same events fire in the same order, and Len, Pending and
// Time agree.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 3, 3, 3})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 1, 2, 0, 5, 3, 2, 0, 1, 3, 3})
	f.Add([]byte{0, 2, 0, 2, 0, 2, 3, 2, 0, 0, 1, 0, 0, 4, 0, 4, 1, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256] // the reference is quadratic; short runs fuzz faster
		}
		sim := New()
		ref := &refQueue{}
		var handles []Event
		var fired []int
		record := func(_ *Simulator, h int) { fired = append(fired, h) }
		next := func(i *int) byte {
			if *i >= len(ops) {
				return 0
			}
			b := ops[*i]
			*i++
			return b
		}
		pick := func(i *int) int { return int(next(i)) % len(handles) }
		for i := 0; i < len(ops); {
			switch op := next(&i) % 5; {
			case op == 0: // schedule
				at := sim.Now() + fuzzDelays[next(&i)%byte(len(fuzzDelays))]
				handles = append(handles, sim.ScheduleAt(at, record, len(handles)))
				ref.schedule(at, len(handles)-1)
			case op == 1 && len(handles) > 0: // cancel, possibly stale
				h := pick(&i)
				sim.Cancel(handles[h])
				ref.cancel(h)
			case op == 2 && len(handles) > 0: // reschedule, possibly stale
				h := pick(&i)
				at := sim.Now() + fuzzDelays[next(&i)%byte(len(fuzzDelays))]
				pending := ref.find(h) >= 0
				panicked := func() (p bool) {
					defer func() { p = recover() != nil }()
					sim.Reschedule(handles[h], at)
					return false
				}()
				if panicked == pending {
					t.Fatalf("Reschedule of handle %d (pending %v): panicked %v", h, pending, panicked)
				}
				if pending {
					ref.reschedule(h, at)
				}
			case op == 3: // step
				want := -1
				if len(ref.evs) > 0 {
					want = ref.pop().handle
				}
				before := len(fired)
				if stepped := sim.Step(); stepped != (want >= 0) {
					t.Fatalf("Step = %v with %d reference events", stepped, len(ref.evs)+1)
				}
				if want >= 0 && (len(fired) != before+1 || fired[before] != want) {
					t.Fatalf("fired %v, reference fires handle %d", fired[before:], want)
				}
			case op == 4 && len(handles) > 0: // inspect
				h := pick(&i)
				checkHandle(t, sim, ref, handles, h)
			}
			if sim.Len() != len(ref.evs) {
				t.Fatalf("Len = %d, reference holds %d", sim.Len(), len(ref.evs))
			}
		}
		for h := range handles {
			checkHandle(t, sim, ref, handles, h)
		}
		for len(ref.evs) > 0 {
			want := ref.pop().handle
			sim.Step()
			if got := fired[len(fired)-1]; got != want {
				t.Fatalf("drain fired handle %d, reference fires %d", got, want)
			}
		}
		if sim.Step() {
			t.Fatal("kernel fired more events than the reference holds")
		}
	})
}

// checkHandle compares Pending and Time for one handle with the
// reference.
func checkHandle(t *testing.T, sim *Simulator, ref *refQueue, handles []Event, h int) {
	t.Helper()
	i := ref.find(h)
	if got := sim.Pending(handles[h]); got != (i >= 0) {
		t.Fatalf("Pending(handle %d) = %v, reference %v", h, got, i >= 0)
	}
	got := sim.Time(handles[h])
	if i < 0 {
		if !math.IsNaN(got) {
			t.Fatalf("Time(stale handle %d) = %v, want NaN", h, got)
		}
		return
	}
	if got != ref.evs[i].time {
		t.Fatalf("Time(handle %d) = %v, reference %v", h, got, ref.evs[i].time)
	}
}
