package rejuv_test

// Allocation pins for the hot path the `rejuvlint` hotpath analyzer
// guards statically: Monitor.Observe → detector → decision, with and
// without the full instrumentation stack (collector, trace ring,
// binary journal). The static analysis proves no allocation site is
// reachable from the //lint:hotpath roots without an explicit allow;
// these tests prove at runtime that the allowed sites really are
// amortized or off-path. If either test regresses, a change put an
// allocation on the per-observation path the whole fleet pays for.

import (
	"io"
	"testing"

	"rejuv"
)

// hotPathDetector returns the paper's headline SRAA configuration. The
// observation streams below sit persistently above the baseline, so
// samples keep exceeding the target, buckets fill and triggers fire —
// exercising the trigger delivery and detector reset branches, not
// just the quiet path.
func hotPathDetector(t testing.TB) rejuv.Detector {
	t.Helper()
	det, err := rejuv.NewSRAA(rejuv.SRAAConfig{
		SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: rejuv.Baseline{Mean: 5, StdDev: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return det
}

func TestMonitorObserveDoesNotAllocate(t *testing.T) {
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  hotPathDetector(t),
		OnTrigger: func(rejuv.Trigger) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		// 30..42, always above the mean-5 baseline: every sample
		// exceeds, so buckets fill and a trigger fires roughly every
		// n*K*D samples.
		m.Observe(float64(i%13) + 30)
		i++
	})
	if allocs != 0 {
		t.Errorf("uninstrumented Monitor.Observe allocates %.1f objects per call, want 0", allocs)
	}
	if st := m.Stats(); st.Triggers == 0 {
		t.Fatalf("observation stream never triggered; the pin did not cover the delivery path (stats %+v)", st)
	}
}

func TestMonitorObserveInstrumentedDoesNotAllocate(t *testing.T) {
	reg := rejuv.NewRegistry()
	trace := rejuv.NewTraceLog(64)
	jw := rejuv.NewJournalWriter(io.Discard, rejuv.JournalMeta{Detector: "SRAA"})
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  hotPathDetector(t),
		OnTrigger: func(rejuv.Trigger) {},
		Collector: rejuv.NewCollector(reg),
		Trace:     trace,
		Journal:   jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the journal's scratch buffer and the trace ring: their first
	// records size internal buffers that are reused ever after.
	for i := 0; i < 200; i++ {
		m.Observe(float64(i%13) + 30)
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		m.Observe(float64(i%13) + 30)
		i++
	})
	if allocs != 0 {
		t.Errorf("instrumented Monitor.Observe allocates %.1f objects per call, want 0", allocs)
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("journal writer failed: %v", err)
	}
	if st := m.Stats(); st.Triggers == 0 {
		t.Fatalf("observation stream never triggered; the pin did not cover the delivery path (stats %+v)", st)
	}
}

// BenchmarkMonitorObserveInstrumented times the fully instrumented
// per-observation path (collector + trace ring + binary journal); its
// allocs/op column is the runtime counterpart of the hotpath lint rule.
func BenchmarkMonitorObserveInstrumented(b *testing.B) {
	reg := rejuv.NewRegistry()
	jw := rejuv.NewJournalWriter(io.Discard, rejuv.JournalMeta{Detector: "SRAA"})
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  hotPathDetector(b),
		OnTrigger: func(rejuv.Trigger) {},
		Collector: rejuv.NewCollector(reg),
		Trace:     rejuv.NewTraceLog(1024),
		Journal:   jw,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		m.Observe(float64(i%13) + 30)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Observe(float64(i%13) + 30)
	}
}

// TestSimulateSteadyStateDoesNotAllocate pins the simulation kernel's
// allocation contract end to end: the DES event arena and heap and the
// station's queue grow to their peak sizes and are then reused, and the
// station's jobs live in a per-CPU arena, so a replication four times
// as long allocates no more. The detector rejuvenates the system repeatedly,
// exercising the kill-and-recycle path as well as completions.
func TestSimulateSteadyStateDoesNotAllocate(t *testing.T) {
	run := func(txns int64) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := rejuv.Simulate(rejuv.SimulationConfig{
				ArrivalRate: 1.8, Transactions: txns, Seed: 1, Stream: 1,
			}, hotPathDetector(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Rejuvenations == 0 {
				t.Fatal("replication never rejuvenated; the pin did not cover the kill path")
			}
		})
	}
	short, long := run(10_000), run(40_000)
	t.Logf("allocations per replication: %.0f at 10k transactions, %.0f at 40k", short, long)
	if long > short {
		t.Errorf("a 40k-transaction replication allocates %.0f objects, a 10k one %.0f: some per-transaction allocation remains", long, short)
	}
}
