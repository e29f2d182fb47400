package des

import (
	"math/rand"
	"testing"
)

// BenchmarkScheduleFire measures the cost of one schedule + fire cycle,
// the inner loop of every simulation in this repository.
func BenchmarkScheduleFire(b *testing.B) {
	sim := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Schedule(1, nop, i)
		sim.Step()
	}
}

// BenchmarkDeepQueue measures heap operations against a queue holding
// many pending events, the high-load regime of the e-commerce model.
func BenchmarkDeepQueue(b *testing.B) {
	sim := New()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		sim.Schedule(1e6+rng.Float64(), nop, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Schedule(rng.Float64()*1e5, nop, i)
		sim.Step()
	}
}

// BenchmarkReschedule measures the cost of moving a pending event, the
// operation a GC stall performs on every running thread.
func BenchmarkReschedule(b *testing.B) {
	sim := New()
	events := make([]Event, 64)
	for i := range events {
		events[i] = sim.Schedule(1e9+float64(i), nop, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		sim.Reschedule(e, sim.Time(e)+60)
	}
}

// BenchmarkCancel measures event removal.
func BenchmarkCancel(b *testing.B) {
	sim := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.Schedule(1e6, nop, i)
		sim.Cancel(e)
	}
}
