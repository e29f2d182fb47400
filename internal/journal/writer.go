package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"rejuv/internal/core"
)

// Writer appends records to an underlying io.Writer in one of the two
// codecs. The binary encode path performs no allocations per record (a
// reused scratch buffer and one Write call), so journaling can
// be left on in benchmarked paths. Errors are sticky: the first failed
// write latches into Err and subsequent records are dropped, because a
// flight recorder must never turn an I/O failure into a simulation
// failure.
//
// Writers are not safe for concurrent use; the Monitor serializes its
// records under the monitor lock, and the simulators are single-
// threaded by construction.
type Writer struct {
	w      io.Writer
	format Format
	seq    uint64
	err    error

	buf    []byte                      // reused binary payload scratch
	lenBuf [binary.MaxVarintLen64]byte // reused length-prefix scratch
	counts [maxKind + 1]uint64         // records written per kind
	enc    *json.Encoder               // JSONL codec only
}

// NewWriter returns a binary-codec writer and immediately writes the
// header (magic, version, meta). The caller owns w and any buffering:
// wrap files in a bufio.Writer and flush it after the run.
func NewWriter(w io.Writer, meta Meta) *Writer {
	jw := &Writer{w: w, format: FormatBinary, buf: make([]byte, 0, 128)}
	jw.writeHeader(meta)
	return jw
}

// NewJSONWriter returns a JSON-lines-codec writer (the debug format) and
// immediately writes the meta header line.
func NewJSONWriter(w io.Writer, meta Meta) *Writer {
	jw := &Writer{w: w, format: FormatJSONL, enc: json.NewEncoder(w)}
	jw.err = jw.enc.Encode(meta)
	return jw
}

// writeHeader emits the binary header: magic, version byte, uvarint
// meta length, meta JSON.
func (jw *Writer) writeHeader(meta Meta) {
	data, err := json.Marshal(meta)
	if err != nil {
		jw.err = fmt.Errorf("journal: encoding meta: %w", err)
		return
	}
	b := jw.buf[:0]
	b = append(b, magic[:]...)
	b = append(b, Version)
	b = binary.AppendUvarint(b, uint64(len(data)))
	b = append(b, data...)
	jw.write(b)
	jw.buf = b[:0]
}

// Err returns the first write or encoding error, or nil.
func (jw *Writer) Err() error { return jw.err }

// Seq returns the sequence number the next record will carry.
func (jw *Writer) Seq() uint64 { return jw.seq }

// Count returns how many records of the given kind have been written.
func (jw *Writer) Count(k Kind) uint64 {
	if !k.Valid() {
		return 0
	}
	return jw.counts[k]
}

// Record appends one fully populated record. The record's Seq is
// overwritten with the writer's running sequence number. The typed
// emitters below cover the detector, simulator, actuator and fleet
// kinds; Record is how the scheduler kinds are written (as
// SchedRecord(tr)) and lets analysis tooling rewrite journals.
func (jw *Writer) Record(r Record) { jw.emit(&r) }

// emit is the one write path of every record: it latches errors, clips
// Class to MaxClassLen, assigns the sequence number, counts the kind and
// encodes r on the writer's codec. The binary codec allocates nothing.
func (jw *Writer) emit(r *Record) {
	if jw.err != nil || !r.Kind.Valid() {
		return
	}
	r.Class = clipClass(r.Class)
	r.Seq = jw.seq
	jw.seq++
	jw.counts[r.Kind]++
	if jw.format == FormatJSONL {
		jw.jsonl(r)
		return
	}
	b := jw.begin(r.Kind, r.Seq, r.Time)
	b = appendFields(b, r, schema[r.Kind])
	jw.finish(b)
}

// RepStart marks the beginning of replication rep with its seed/stream.
func (jw *Writer) RepStart(t float64, rep int, seed, stream uint64) {
	r := Record{Kind: KindRepStart, Time: t, Rep: rep, Seed: seed, Stream: stream}
	jw.emit(&r)
}

// Observe records one observation of the monitored metric. It sits on
// the monitor's per-observation path and must stay allocation-free on
// the binary codec.
//
//lint:hotpath
func (jw *Writer) Observe(t, value float64) {
	r := Record{Kind: KindObserve, Time: t, Value: value}
	jw.emit(&r)
}

// Decision records one evaluated detector decision together with the
// internals snapshot taken immediately after the step. triggerID is the
// deterministic trigger identity minted for a triggering decision
// (core.TriggerID); pass 0 for non-triggering decisions. Like Observe
// it is on the monitor's per-observation path.
//
//lint:hotpath
func (jw *Writer) Decision(t float64, d core.Decision, in core.Internals, suppressed bool, triggerID uint64) {
	r := DecisionRecord(t, d, in, suppressed)
	r.TriggerID = triggerID
	jw.emit(&r)
}

// Reset records an externally initiated detector reset.
func (jw *Writer) Reset(t float64) {
	r := Record{Kind: KindReset, Time: t}
	jw.emit(&r)
}

// Rejuvenation records the control action: the system was rejuvenated,
// killing the given number of in-flight transactions.
func (jw *Writer) Rejuvenation(t float64, killed int) {
	r := Record{Kind: KindRejuvenation, Time: t, Killed: killed}
	jw.emit(&r)
}

// GCStart records the onset of a full GC stall at the given heap level.
func (jw *Writer) GCStart(t, heapMB float64) {
	r := Record{Kind: KindGCStart, Time: t, HeapMB: heapMB}
	jw.emit(&r)
}

// GCEnd records the end of a full GC stall at the given heap level.
func (jw *Writer) GCEnd(t, heapMB float64) {
	r := Record{Kind: KindGCEnd, Time: t, HeapMB: heapMB}
	jw.emit(&r)
}

// SimScheduled records a kernel event pushed onto the queue, scheduled
// to fire at virtual time at.
func (jw *Writer) SimScheduled(t, at float64) {
	r := Record{Kind: KindSimScheduled, Time: t, EventTime: at}
	jw.emit(&r)
}

// SimFired records a kernel event whose handler ran.
func (jw *Writer) SimFired(t float64) {
	r := Record{Kind: KindSimFired, Time: t}
	jw.emit(&r)
}

// SimCancelled records a kernel event removed before firing.
func (jw *Writer) SimCancelled(t float64) {
	r := Record{Kind: KindSimCancelled, Time: t}
	jw.emit(&r)
}

// Fault records one telemetry fault: an injected corruption, a value
// rejected by hygiene, a detected probe stall. class names the fault
// (truncated to MaxClassLen) and value carries the observation involved
// (NaN when no value applies, e.g. a stall).
func (jw *Writer) Fault(t float64, class string, value float64) {
	r := Record{Kind: KindFault, Time: t, Class: class, Value: value}
	jw.emit(&r)
}

// ActStart records the start of one rejuvenation action execution.
// triggerID carries the identity of the trigger that provoked it, or 0
// for executions started outside a trigger.
func (jw *Writer) ActStart(t float64, triggerID uint64) {
	r := Record{Kind: KindActStart, Time: t, TriggerID: triggerID}
	jw.emit(&r)
}

// ActAttempt records one attempt of a rejuvenation action: its 1-based
// number, outcome, the backoff (seconds) scheduled before the next
// attempt (0 when none follows), the error text on failure, and the
// trigger id the execution belongs to (0 when none).
func (jw *Writer) ActAttempt(t float64, attempt int, ok bool, backoff float64, errText string, triggerID uint64) {
	r := Record{Kind: KindActAttempt, Time: t, Attempt: attempt, OK: ok, Backoff: backoff, Class: errText, TriggerID: triggerID}
	jw.emit(&r)
}

// ActGiveUp records the terminal escalation: the action failed for good
// after the given total number of attempts, with the last error text
// and the trigger id the execution belongs to (0 when none).
func (jw *Writer) ActGiveUp(t float64, attempts int, errText string, triggerID uint64) {
	r := Record{Kind: KindActGiveUp, Time: t, Attempt: attempts, Class: errText, TriggerID: triggerID}
	jw.emit(&r)
}

// StreamOpen records a fleet stream coming under monitoring with the
// named detector class.
func (jw *Writer) StreamOpen(t float64, stream uint64, class string) {
	r := Record{Kind: KindStreamOpen, Time: t, Stream: stream, Class: class}
	jw.emit(&r)
}

// StreamClose records a fleet stream leaving monitoring.
func (jw *Writer) StreamClose(t float64, stream uint64) {
	r := Record{Kind: KindStreamClose, Time: t, Stream: stream}
	jw.emit(&r)
}

// StreamObserve records one observation on a fleet stream. It sits on
// the fleet's batched ingestion path and must stay allocation-free on
// the binary codec.
//
//lint:hotpath
func (jw *Writer) StreamObserve(t float64, stream uint64, value float64) {
	r := Record{Kind: KindStreamObserve, Time: t, Stream: stream, Value: value}
	jw.emit(&r)
}

// StreamDecision records one evaluated detector decision on a fleet
// stream. The decision payload follows the stream id in the KindDecision
// layout (decisionFields), so fleet replay verifies the same bytes
// single-stream replay does. Like StreamObserve it is on the fleet's
// batched ingestion path.
//
//lint:hotpath
func (jw *Writer) StreamDecision(t float64, stream uint64, d core.Decision, in core.Internals, suppressed bool, triggerID uint64) {
	r := DecisionRecord(t, d, in, suppressed)
	r.Kind = KindStreamDecision
	r.Stream = stream
	r.TriggerID = triggerID
	jw.emit(&r)
}

// Rebaseline records a committed workload-shift rebaseline: the shift
// layer re-estimated the baseline and the wrapped detector was rebuilt
// from mean/sd. It sits on the monitor's per-observation path (a
// rebaseline is decided inside Observe) and must stay allocation-free
// on the binary codec.
//
//lint:hotpath
func (jw *Writer) Rebaseline(t, mean, sd float64) {
	r := Record{Kind: KindRebaseline, Time: t, BaseMean: mean, BaseStdDev: sd}
	jw.emit(&r)
}

// StreamRebaseline records a committed workload-shift rebaseline on a
// fleet stream. Like StreamObserve it is on the fleet's batched
// ingestion path.
//
//lint:hotpath
func (jw *Writer) StreamRebaseline(t float64, stream uint64, mean, sd float64) {
	r := Record{Kind: KindStreamRebaseline, Time: t, Stream: stream, BaseMean: mean, BaseStdDev: sd}
	jw.emit(&r)
}

// jsonl encodes r on the JSONL debug codec. Encoding boxes a copy of
// the record and allocates; that is the price of the debug codec, paid
// in exactly one place.
//
//lint:allow hotpath the JSONL debug codec boxes one record per line by design
func (jw *Writer) jsonl(r *Record) {
	jw.err = jw.enc.Encode(*r)
}

// clipClass truncates a class/error string to the codec bound.
func clipClass(s string) string {
	if len(s) > MaxClassLen {
		return s[:MaxClassLen]
	}
	return s
}

// begin starts a binary record payload in the reused scratch buffer —
// kind byte, uvarint seq, float64 time — after lenRoom bytes left free
// for the length prefix finish puts in front.
//
//lint:allow hotpath appends into the reused scratch buffer; growth amortizes to zero (pinned by TestWriterObserveDoesNotAllocate)
func (jw *Writer) begin(kind Kind, seq uint64, t float64) []byte {
	b := jw.buf[:lenRoom]
	b = append(b, byte(kind))
	b = binary.AppendUvarint(b, seq)
	b = appendF64(b, t)
	return b
}

// lenRoom is the room begin leaves for the uvarint length prefix.
const lenRoom = binary.MaxVarintLen64

// finish puts the payload's uvarint length right in front of it and
// writes both with one Write call, retaining the (possibly grown)
// scratch buffer for the next record.
func (jw *Writer) finish(b []byte) {
	n := binary.PutUvarint(jw.lenBuf[:], uint64(len(b)-lenRoom))
	start := lenRoom - n
	copy(b[start:], jw.lenBuf[:n])
	jw.write(b[start:])
	jw.buf = b[:0]
}

// write forwards to the underlying writer unless an error has latched.
func (jw *Writer) write(p []byte) {
	if jw.err != nil {
		return
	}
	_, jw.err = jw.w.Write(p)
}

// DecisionRecord assembles the canonical decision record for one
// evaluated decision, shared by the writer and the replay verifier so
// both sides encode identically.
func DecisionRecord(t float64, d core.Decision, in core.Internals, suppressed bool) Record {
	return Record{
		Kind:       KindDecision,
		Time:       t,
		Evaluated:  d.Evaluated,
		Triggered:  d.Triggered,
		Suppressed: suppressed,
		SampleMean: d.SampleMean,
		Target:     d.Target,
		Level:      d.Level,
		Fill:       d.Fill,
		SampleSize: in.SampleSize,
		SampleFill: in.SampleFill,
		Statistic:  in.Statistic,
	}
}

// appendFields encodes the given payload fields of r in order; the
// common prefix (kind, seq, time) is already in b. Callers pass
// schema[r.Kind], or decisionFields to get the canonical bytes the
// replay verifier compares.
//
//lint:allow hotpath appends into the caller's reused scratch buffer; growth amortizes to zero
func appendFields(b []byte, r *Record, fields []field) []byte {
	for _, f := range fields {
		switch f {
		case fRep:
			b = binary.AppendUvarint(b, uint64(r.Rep))
		case fSeed:
			b = binary.AppendUvarint(b, r.Seed)
		case fStream:
			b = binary.AppendUvarint(b, r.Stream)
		case fValue:
			b = appendF64(b, r.Value)
		case fFlags:
			var flags byte
			if r.Evaluated {
				flags |= flagEvaluated
			}
			if r.Triggered {
				flags |= flagTriggered
			}
			if r.Suppressed {
				flags |= flagSuppressed
			}
			b = append(b, flags)
		case fSampleMean:
			b = appendF64(b, r.SampleMean)
		case fTarget:
			b = appendF64(b, r.Target)
		case fLevel:
			b = binary.AppendUvarint(b, uint64(r.Level))
		case fFill:
			b = binary.AppendUvarint(b, uint64(r.Fill))
		case fSampleSize:
			b = binary.AppendUvarint(b, uint64(r.SampleSize))
		case fSampleFill:
			b = binary.AppendUvarint(b, uint64(r.SampleFill))
		case fStatistic:
			b = appendF64(b, r.Statistic)
		case fKilled:
			b = binary.AppendUvarint(b, uint64(r.Killed))
		case fHeapMB:
			b = appendF64(b, r.HeapMB)
		case fEventTime:
			b = appendF64(b, r.EventTime)
		case fClass:
			// emit has clipped already; clipping here too keeps the replay
			// comparison exact against an unclipped SchedRecord.
			b = appendString(b, clipClass(r.Class))
		case fAttempt:
			b = binary.AppendUvarint(b, uint64(r.Attempt))
		case fOK:
			var ok byte
			if r.OK {
				ok = 1
			}
			b = append(b, ok)
		case fBackoff:
			b = appendF64(b, r.Backoff)
		case fBaseMean:
			b = appendF64(b, r.BaseMean)
		case fBaseStdDev:
			b = appendF64(b, r.BaseStdDev)
		case fTriggerID:
			if r.TriggerID != 0 {
				b = binary.AppendUvarint(b, r.TriggerID)
			}
		}
	}
	return b
}

// appendString appends a length-prefixed string.
//
//lint:allow hotpath appends into the caller's reused scratch buffer; growth amortizes to zero
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendF64 appends the little-endian IEEE-754 bits of v.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
