package journal

import (
	"bytes"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"rejuv/internal/core"
	"rejuv/internal/sched"
)

// sampleMeta is the header used across the codec tests.
var sampleMeta = Meta{
	CreatedBy: "journal_test",
	Detector:  "SRAA (n=2, K=5, D=3)",
	Spec:      `{"Algorithm":"SRAA","N":2,"K":5,"D":3}`,
	Seed:      42,
	Notes:     "load=9",
}

// writeSample emits one record of every kind through the typed API,
// and the scheduler kinds, which have no typed emitters, through Record.
func writeSample(jw *Writer) {
	jw.RepStart(0, 1, 42, 7)
	jw.SimScheduled(0, 1.5)
	jw.SimFired(1.5)
	jw.Observe(1.5, 3.25)
	jw.Decision(1.5,
		core.Decision{Evaluated: true, Triggered: true, SampleMean: 7.5, Target: 5, Level: 2, Fill: 0},
		core.Internals{SampleSize: 2, SampleFill: 1, Statistic: 0.25},
		true, 0xDEC1)
	jw.Reset(1.5)
	jw.Rejuvenation(1.5, 17)
	jw.GCStart(2.25, 99.5)
	jw.GCEnd(62.25, 3072)
	jw.SimCancelled(62.25)
	// The JSONL codec cannot carry non-finite values, so the shared
	// sample uses a finite one; binary non-finite round-trips are pinned
	// by TestSpecialFloatsRoundTrip.
	jw.Fault(63, "nan", 12.5)
	jw.ActStart(64, 0xDEC1)
	jw.ActAttempt(64, 1, false, 2.5, "restart rpc timed out", 0xDEC1)
	jw.ActAttempt(66.5, 2, true, 0, "", 0)
	jw.ActGiveUp(66.5, 2, "gave up anyway", 0xDEC1)
	jw.StreamOpen(70, 9001, "web-sraa")
	jw.StreamObserve(70.5, 9001, 4.75)
	jw.StreamDecision(70.5, 9001,
		core.Decision{Evaluated: true, SampleMean: 4.5, Target: 6, Level: 1, Fill: 2},
		core.Internals{SampleSize: 2, SampleFill: 0},
		false, 0)
	jw.StreamClose(71, 9001)
	jw.Rebaseline(72, 9.25, 2.5)
	jw.StreamRebaseline(72.5, 9002, 9.25, 2.5)
	// Scheduler records go through Record, as the scheduler writes them.
	for _, tr := range []sched.Transition{
		{Op: sched.OpEnqueue, Time: 80, Replica: 3, Level: 4, Fill: 2, Deadline: 95.5, Urgency: 15, TriggerID: 0xDEC1},
		{Op: sched.OpDefer, Time: 80.5, Replica: 3, Reason: "budget", Level: 4, Fill: 2, Count: 1, TriggerID: 0xDEC1},
		{Op: sched.OpCoalesce, Time: 81, Replica: 3, Reason: "duplicate", Level: 5, Fill: 2, Count: 2,
			Deadline: 96, Urgency: 18.25, TriggerID: 0xDEC1},
		{Op: sched.OpStart, Time: 82, Replica: 3, Tier: sched.Tier{Name: "medium", Rho: 0.5}, Pause: 30, TriggerID: 0xDEC1},
		{Op: sched.OpComplete, Time: 112, Replica: 3, OK: true, TriggerID: 0xDEC1},
		{Op: sched.OpQuarantine, Time: 113, Replica: 4, Reason: "restart rpc unreachable", TriggerID: 0xBEEF},
		{Op: sched.OpReadmit, Time: 120, Replica: 4},
	} {
		jw.Record(SchedRecord(tr))
	}
}

// wantSample is the decoded form of writeSample, in order.
func wantSample() []Record {
	return []Record{
		{Kind: KindRepStart, Seq: 0, Rep: 1, Seed: 42, Stream: 7},
		{Kind: KindSimScheduled, Seq: 1, EventTime: 1.5},
		{Kind: KindSimFired, Seq: 2, Time: 1.5},
		{Kind: KindObserve, Seq: 3, Time: 1.5, Value: 3.25},
		{Kind: KindDecision, Seq: 4, Time: 1.5, Evaluated: true, Triggered: true, Suppressed: true,
			SampleMean: 7.5, Target: 5, Level: 2, Fill: 0, SampleSize: 2, SampleFill: 1, Statistic: 0.25,
			TriggerID: 0xDEC1},
		{Kind: KindReset, Seq: 5, Time: 1.5},
		{Kind: KindRejuvenation, Seq: 6, Time: 1.5, Killed: 17},
		{Kind: KindGCStart, Seq: 7, Time: 2.25, HeapMB: 99.5},
		{Kind: KindGCEnd, Seq: 8, Time: 62.25, HeapMB: 3072},
		{Kind: KindSimCancelled, Seq: 9, Time: 62.25},
		{Kind: KindFault, Seq: 10, Time: 63, Class: "nan", Value: 12.5},
		{Kind: KindActStart, Seq: 11, Time: 64, TriggerID: 0xDEC1},
		{Kind: KindActAttempt, Seq: 12, Time: 64, Attempt: 1, OK: false, Backoff: 2.5, Class: "restart rpc timed out", TriggerID: 0xDEC1},
		{Kind: KindActAttempt, Seq: 13, Time: 66.5, Attempt: 2, OK: true},
		{Kind: KindActGiveUp, Seq: 14, Time: 66.5, Attempt: 2, Class: "gave up anyway", TriggerID: 0xDEC1},
		{Kind: KindStreamOpen, Seq: 15, Time: 70, Stream: 9001, Class: "web-sraa"},
		{Kind: KindStreamObserve, Seq: 16, Time: 70.5, Stream: 9001, Value: 4.75},
		{Kind: KindStreamDecision, Seq: 17, Time: 70.5, Stream: 9001, Evaluated: true,
			SampleMean: 4.5, Target: 6, Level: 1, Fill: 2, SampleSize: 2},
		{Kind: KindStreamClose, Seq: 18, Time: 71, Stream: 9001},
		{Kind: KindRebaseline, Seq: 19, Time: 72, BaseMean: 9.25, BaseStdDev: 2.5},
		{Kind: KindStreamRebaseline, Seq: 20, Time: 72.5, Stream: 9002, BaseMean: 9.25, BaseStdDev: 2.5},
		{Kind: KindSchedEnqueue, Seq: 21, Time: 80, Stream: 3, Level: 4, Fill: 2,
			EventTime: 95.5, Value: 15, TriggerID: 0xDEC1},
		{Kind: KindSchedDefer, Seq: 22, Time: 80.5, Stream: 3, Class: "budget",
			Level: 4, Fill: 2, Attempt: 1, TriggerID: 0xDEC1},
		{Kind: KindSchedCoalesce, Seq: 23, Time: 81, Stream: 3, Class: "duplicate",
			Level: 5, Fill: 2, Attempt: 2, EventTime: 96, Value: 18.25, TriggerID: 0xDEC1},
		{Kind: KindSchedStart, Seq: 24, Time: 82, Stream: 3, Class: "medium",
			Value: 0.5, Backoff: 30, TriggerID: 0xDEC1},
		{Kind: KindSchedComplete, Seq: 25, Time: 112, Stream: 3, OK: true, TriggerID: 0xDEC1},
		{Kind: KindSchedQuarantine, Seq: 26, Time: 113, Stream: 4,
			Class: "restart rpc unreachable", TriggerID: 0xBEEF},
		{Kind: KindSchedReadmit, Seq: 27, Time: 120, Stream: 4},
	}
}

func TestRoundTripBinary(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	roundTrip(t, &buf, FormatBinary)
}

func TestRoundTripJSONL(t *testing.T) {
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	roundTrip(t, &buf, FormatJSONL)
}

// roundTrip decodes buf and compares header and records against the
// sample.
func roundTrip(t *testing.T, buf *bytes.Buffer, format Format) {
	t.Helper()
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if jr.Format() != format {
		t.Errorf("detected format %v, want %v", jr.Format(), format)
	}
	if got := jr.Meta(); got != sampleMeta {
		t.Errorf("meta round-trip:\n got %+v\nwant %+v", got, sampleMeta)
	}
	got, err := jr.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	want := wantSample()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestWriterRecordMatchesTypedEmitters(t *testing.T) {
	var typed, generic bytes.Buffer
	jw := NewWriter(&typed, sampleMeta)
	writeSample(jw)
	if err := jw.Err(); err != nil {
		t.Fatalf("typed writer: %v", err)
	}
	gw := NewWriter(&generic, sampleMeta)
	for _, r := range wantSample() {
		gw.Record(r)
	}
	if err := gw.Err(); err != nil {
		t.Fatalf("generic writer: %v", err)
	}
	if !bytes.Equal(typed.Bytes(), generic.Bytes()) {
		t.Errorf("Record() encoding differs from typed emitters:\n typed  %x\n record %x",
			typed.Bytes(), generic.Bytes())
	}
}

// TestBinaryGolden pins the binary layout to a committed file. The
// round-trip tests above would pass a change made symmetrically to
// encoder and decoder; this one fails on any byte that moves.
func TestBinaryGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/sample.rjnl")
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, bytes.NewBuffer(golden), FormatBinary)

	var buf bytes.Buffer
	jw := NewWriter(&buf, sampleMeta)
	for _, r := range wantSample() {
		jw.Record(r)
	}
	if err := jw.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("re-encoded sample differs from testdata/sample.rjnl:\n got  %x\n want %x", buf.Bytes(), golden)
	}
}

func TestWriterCounts(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	writeSample(jw)
	if got := jw.Seq(); got != 28 {
		t.Errorf("seq after 28 records = %d", got)
	}
	for _, tc := range []struct {
		kind Kind
		want uint64
	}{{KindObserve, 1}, {KindDecision, 1}, {KindSimFired, 1}, {Kind(0), 0}} {
		if got := jw.Count(tc.kind); got != tc.want {
			t.Errorf("Count(%v) = %d, want %d", tc.kind, got, tc.want)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":             nil,
		"bad magic version": append(append([]byte{}, magic[:]...), 99),
		"not json":          []byte("not-a-journal\n{}"),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: NewReader accepted invalid input", name)
		}
	}
}

func TestReaderRejectsTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	jw.Observe(1, 2)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	jr, err := NewReader(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := jr.Next(); err == nil {
		t.Error("Next accepted a truncated record")
	}
}

func TestReaderRejectsOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	// A length prefix claiming MaxRecordLen+1 bytes must be rejected
	// before any allocation attempt.
	buf.Write([]byte{0x81, 0x80, 0xc0, 0x00}) // uvarint > MaxRecordLen
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if _, err := jr.Next(); err == nil {
		t.Error("Next accepted an oversized length prefix")
	}
}

func TestStickyWriterError(t *testing.T) {
	jw := NewWriter(&failAfter{n: 1}, Meta{})
	jw.Observe(1, 2) // header already consumed the budget; this must latch
	if jw.Err() == nil {
		t.Fatal("writer did not latch the write error")
	}
	before := jw.Seq()
	jw.Observe(2, 3)
	if jw.Seq() != before {
		t.Error("writer kept assigning sequence numbers after the error latched")
	}
}

// failAfter fails every Write after the first n calls.
type failAfter struct{ n int }

// Write consumes the budget, then fails.
func (f *failAfter) Write(p []byte) (int, error) {
	if f.n > 0 {
		f.n--
		return len(p), nil
	}
	return 0, io.ErrClosedPipe
}

func TestSpecialFloatsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, Meta{})
	jw.Observe(0, math.Inf(1))
	jw.Observe(0, -0.0)
	if err := jw.Err(); err != nil {
		t.Fatal(err)
	}
	jr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := jr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(recs[0].Value, 1) {
		t.Errorf("+Inf did not round-trip: %v", recs[0].Value)
	}
	if math.Float64bits(recs[1].Value) != math.Float64bits(-0.0) {
		t.Errorf("-0.0 did not round-trip bit-exactly: %v", recs[1].Value)
	}
}

// TestRecordClipsClassOnBothCodecs pins that Class is cut to
// MaxClassLen on the way in, whatever the codec: a long scheduler
// quarantine reason written through Record reads back the same from a
// binary and a JSONL journal.
func TestRecordClipsClassOnBothCodecs(t *testing.T) {
	long := strings.Repeat("x", MaxClassLen+44)
	for format, newWriter := range map[Format]func(io.Writer, Meta) *Writer{
		FormatBinary: NewWriter,
		FormatJSONL:  NewJSONWriter,
	} {
		var buf bytes.Buffer
		jw := newWriter(&buf, Meta{})
		jw.Record(SchedRecord(sched.Transition{Op: sched.OpQuarantine, Time: 1, Replica: 2, Reason: long}))
		if err := jw.Err(); err != nil {
			t.Fatalf("%v: writer error: %v", format, err)
		}
		jr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%v: NewReader: %v", format, err)
		}
		rec, err := jr.Next()
		if err != nil {
			t.Fatalf("%v: Next: %v", format, err)
		}
		if rec.Class != long[:MaxClassLen] {
			t.Errorf("%v: class read back as %d bytes, want %d", format, len(rec.Class), MaxClassLen)
		}
	}
}

// BenchmarkWriterObserve pins the zero-allocation contract of the
// binary encode path: journaling must never perturb what it measures.
func BenchmarkWriterObserve(b *testing.B) {
	jw := NewWriter(io.Discard, Meta{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Observe(float64(i), 5.0)
	}
	if err := jw.Err(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWriterDecision times the fattest record on the hot path.
func BenchmarkWriterDecision(b *testing.B) {
	jw := NewWriter(io.Discard, Meta{})
	d := core.Decision{Evaluated: true, SampleMean: 7.5, Target: 10, Level: 1, Fill: 2}
	in := core.Internals{SampleSize: 2, SampleFill: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jw.Decision(float64(i), d, in, false, 0)
	}
	if err := jw.Err(); err != nil {
		b.Fatal(err)
	}
}

func TestWriterObserveDoesNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	jw.Observe(0, 1) // warm the scratch buffer
	allocs := testing.AllocsPerRun(1000, func() {
		jw.Observe(1, 2)
	})
	if allocs != 0 {
		t.Errorf("binary Observe allocates %.1f objects per record, want 0", allocs)
	}
}

func TestWriterDecisionDoesNotAllocate(t *testing.T) {
	jw := NewWriter(io.Discard, Meta{})
	d := core.Decision{Evaluated: true, SampleMean: 7.5, Target: 10, Level: 1, Fill: 2}
	in := core.Internals{SampleSize: 2}
	jw.Decision(0, d, in, false, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		jw.Decision(1, d, in, false, 0)
	})
	if allocs != 0 {
		t.Errorf("binary Decision allocates %.1f objects per record, want 0", allocs)
	}
}
