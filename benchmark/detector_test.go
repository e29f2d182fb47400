package main

import (
	"bytes"
	"testing"
	"time"

	"rejuv"
)

func TestTimedDetectorForwardsOptionalInterfaces(t *testing.T) {
	trk := newTracer().newTrack()
	sraa, err := rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: paperBaseline})
	if err != nil {
		t.Fatal(err)
	}
	rebase, err := rejuv.NewRebaseDetector(rejuv.ShiftConfig{}, paperBaseline, func(b rejuv.Baseline) (rejuv.Detector, error) {
		return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: b})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []rejuv.Detector{sraa, rebase, plainDetector{}} {
		w := timeDetector(d, trk)
		_, innerIn := d.(rejuv.Instrumented)
		_, innerRb := d.(rejuv.Rebaseliner)
		_, wrapIn := w.(rejuv.Instrumented)
		_, wrapRb := w.(rejuv.Rebaseliner)
		if innerIn != wrapIn || innerRb != wrapRb {
			t.Errorf("%T: inner Instrumented %v Rebaseliner %v, wrapper %v %v", d, innerIn, innerRb, wrapIn, wrapRb)
		}
	}
	if timeDetector(sraa, nil) != rejuv.Detector(sraa) {
		t.Errorf("without a track the detector must not be wrapped")
	}
}

// plainDetector implements neither optional interface.
type plainDetector struct{}

func (plainDetector) Observe(float64) rejuv.Decision { return rejuv.Decision{} }
func (plainDetector) Reset()                         {}

// journalMonitor feeds a fixed observation stream through a Monitor
// with a deterministic clock and returns its JSONL journal.
func journalMonitor(t *testing.T, wrap func(rejuv.Detector) rejuv.Detector) []byte {
	t.Helper()
	det, err := monitorDetector()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  wrap(det),
		OnTrigger: func(rejuv.Trigger) {},
		Now:       func() time.Time { now = now.Add(time.Millisecond); return now },
		Journal:   rejuv.NewJournalJSONWriter(&buf, rejuv.JournalMeta{CreatedBy: "test"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := newMonitorGen(3)
	for i := 0; i < 60_000; i++ {
		m.Observe(gen.next().Seconds())
	}
	if m.Stats().Triggers == 0 {
		t.Fatalf("the stream never triggered; the test would not exercise decision internals")
	}
	return buf.Bytes()
}

func TestTracedMonitorJournalIsIdentical(t *testing.T) {
	plain := journalMonitor(t, func(d rejuv.Detector) rejuv.Detector { return d })
	trk := newTracer().newTrack()
	traced := journalMonitor(t, func(d rejuv.Detector) rejuv.Detector { return timeDetector(d, trk) })
	if !bytes.Equal(plain, traced) {
		t.Errorf("a traced detector changed the monitor journal (%d vs %d bytes)", len(plain), len(traced))
	}
	hidden := journalMonitor(t, func(d rejuv.Detector) rejuv.Detector { return &timedDetector{inner: d, trk: trk} })
	if bytes.Equal(plain, hidden) {
		t.Errorf("a wrapper hiding Instrumented should change the journal; the comparison is not sensitive")
	}
	a, err := shapeDigest(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	b, err := shapeDigest(bytes.NewReader(hidden))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Errorf("the shape digest cannot tell a hidden Instrumented apart")
	}
}

func TestTracedSimulationIsIdentical(t *testing.T) {
	trk := newTracer().newTrack()
	for j := 0; j < simConfigs; j++ {
		_, cfg, build := simJob(j, 5)
		cfg.Transactions = 3_000
		d1, err := build()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := build()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := rejuv.Simulate(cfg, d1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := rejuv.Simulate(cfg, timeDetector(d2, trk))
		if err != nil {
			t.Fatal(err)
		}
		if goldenResult("", r1) != goldenResult("", r2) {
			t.Errorf("replication %d differs under tracing: %+v vs %+v", j, goldenResult("", r1), goldenResult("", r2))
		}
	}
}
