package journal

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/pprof"

	"rejuv/internal/core"
)

// sameF64Bits compares two floats bitwise, the equality the replay
// verifier uses everywhere: NaN payloads and signed zeros must survive
// the journal round trip exactly.
func sameF64Bits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// This file implements deterministic replay: feeding the journaled
// observation stream through a freshly constructed detector must
// reproduce the journaled decision stream byte for byte. Because every
// detector is a deterministic state machine (core package contract),
// any divergence means the journal, the detector construction, or the
// platform broke the determinism guarantee — which makes Replay the
// strongest determinism test in the repository.
//
// One driver serves both journal shapes. A fleet journal interleaves
// many streams, each record tagged with its stream id, and opens and
// closes them explicitly; the interleaving itself is part of what a
// deterministic fleet must reproduce, so ReplayFleet doubles as the
// proof that the fleet engine's struct-of-arrays detector state matches
// the pointer-based reference detectors in internal/core. A
// single-detector journal is a fleet of one implicit stream, id 0,
// opened up front and reopened by each KindRepStart.

// ReplayReport summarizes one replay verification pass.
type ReplayReport struct {
	// Reps counts replications of a single-detector journal (KindRepStart
	// records; one implicit replication when a journal has none). It is
	// 0 for fleet journals.
	Reps int
	// Streams counts streams opened: the fleet journal's KindStreamOpen
	// records, or 1 for a single-detector journal.
	Streams int
	// Closes counts fleet stream close records applied.
	Closes int
	// Observations counts observation records fed to detectors.
	Observations int
	// Decisions counts decision records compared.
	Decisions int
	// Triggers counts recorded decisions that triggered.
	Triggers int
	// Resets counts externally initiated detector resets applied.
	Resets int
	// Rebaselines counts workload-shift rebaseline records verified.
	Rebaselines int
	// Mismatch describes the first divergence, nil when every stream's
	// decision sequence is byte-identical.
	Mismatch *Mismatch
}

// Identical reports whether the replayed decision stream matched the
// recorded one byte for byte.
func (r ReplayReport) Identical() bool { return r.Mismatch == nil }

// Mismatch pinpoints the first divergence between the recorded and
// replayed decision streams.
type Mismatch struct {
	// Seq is the sequence number of the recorded record at the
	// divergence point.
	Seq uint64
	// Time is its timestamp.
	Time float64
	// Reason classifies the divergence.
	Reason string
	// Recorded and Replayed are the hex encodings of the canonical
	// decision payloads that differed (empty for structural mismatches
	// such as a missing decision record).
	Recorded, Replayed string
}

// Error renders the mismatch as a one-line diagnosis.
func (m *Mismatch) Error() string {
	s := fmt.Sprintf("journal: replay diverged at seq %d (t=%.6g): %s", m.Seq, m.Time, m.Reason)
	if m.Recorded != "" || m.Replayed != "" {
		s += fmt.Sprintf(" (recorded %s, replayed %s)", m.Recorded, m.Replayed)
	}
	return s
}

// Replay feeds every journaled observation through detectors built by
// factory and verifies the resulting decision stream against the
// journaled one. factory is invoked once up front and again at each
// KindRepStart record, mirroring how the recording run constructed a
// fresh detector per replication. Fleet stream records are ignored.
//
// The comparison is byte-level: both sides are encoded with the
// canonical binary decision layout (decisionFields) and must match
// exactly. The Suppressed flag is copied from the recorded record before
// encoding, because suppression is decided by the cooldown layer above
// the detector and is not reproducible from the observation stream
// alone; every detector-owned field must match.
//
// Replay stops at the first divergence and reports it; a nil error with
// report.Identical() true is the determinism proof.
func Replay(jr *Reader, factory func() (core.Detector, error)) (ReplayReport, error) {
	return replay(jr, func(string) (core.Detector, error) { return factory() }, false)
}

// ReplayFleet is Replay for fleet journals: factory is invoked per
// KindStreamOpen with that stream's class, and each stream's decision
// records are verified against its own replayed detector. Records that
// carry no stream id other than KindReset, which resets every open
// stream, are ignored, so a fleet journal may carry rejuvenation and
// actuator records alongside.
func ReplayFleet(jr *Reader, factory func(class string) (core.Detector, error)) (ReplayReport, error) {
	return replay(jr, factory, true)
}

// replayOp is what one record asks of the replay driver.
type replayOp byte

// Replay operations; opNone records are skipped.
const (
	opNone replayOp = iota
	opOpen
	opClose
	opObserve
	opDecision
	opRebaseline
	opReset
)

// singleOps and fleetOps route each record kind of a single-detector
// and a fleet journal onto the driver's operations.
var (
	singleOps = [maxKind + 1]replayOp{
		KindRepStart: opOpen, KindObserve: opObserve, KindDecision: opDecision,
		KindRebaseline: opRebaseline, KindReset: opReset,
	}
	fleetOps = [maxKind + 1]replayOp{
		KindStreamOpen: opOpen, KindStreamClose: opClose, KindStreamObserve: opObserve,
		KindStreamDecision: opDecision, KindStreamRebaseline: opRebaseline, KindReset: opReset,
	}
)

// replayStream is the replay state of one open stream.
type replayStream struct {
	det     core.Detector
	pending *Record // replayed decision awaiting its recorded counterpart
}

// replayer is the state of one replay pass.
type replayer struct {
	factory     func(class string) (core.Detector, error)
	fleet       bool
	streams     map[uint64]*replayStream
	sawRepStart bool
	report      ReplayReport

	recBuf, repBuf []byte // reused canonical decision encodings
}

// replay runs the driver, labeled so CPU profiles attribute detector
// evaluation time to this phase.
func replay(jr *Reader, factory func(class string) (core.Detector, error), fleet bool) (ReplayReport, error) {
	rp := &replayer{factory: factory, fleet: fleet, streams: make(map[uint64]*replayStream)}
	var err error
	pprof.Do(context.Background(), pprof.Labels("rejuv_phase", "detector-replay"), func(context.Context) {
		err = rp.run(jr)
	})
	return rp.report, err
}

// run drives the whole journal, stopping at the first mismatch.
func (rp *replayer) run(jr *Reader) error {
	ops := &fleetOps
	if !rp.fleet {
		ops = &singleOps
		if err := rp.open(0, ""); err != nil {
			return err
		}
		rp.report.Reps = 1
	}
	for rp.report.Mismatch == nil {
		rec, err := jr.Next()
		if errors.Is(err, io.EOF) {
			rp.finish()
			return nil
		}
		if err != nil {
			return err
		}
		switch op := ops[rec.Kind]; op {
		case opNone:
		case opReset:
			// Reset has no cross-stream effects, so map order is irrelevant.
			rp.report.Resets++
			for _, st := range rp.streams {
				st.det.Reset()
			}
		case opOpen:
			if err := rp.openRecord(&rec); err != nil {
				return err
			}
		default:
			rp.apply(op, &rec)
		}
	}
	return nil
}

// openRecord applies a stream open: a fleet journal's KindStreamOpen,
// or the KindRepStart that reopens a single-detector journal's implicit
// stream for the next replication.
func (rp *replayer) openRecord(rec *Record) error {
	if rp.fleet {
		if _, ok := rp.streams[rec.Stream]; ok {
			rp.mismatch(rec, "stream %d opened twice", rec.Stream)
			return nil
		}
		return rp.open(rec.Stream, rec.Class)
	}
	if rp.streams[0].pending != nil {
		rp.mismatch(rec, "replication started while a replayed decision awaited its recorded counterpart")
		return nil
	}
	if rp.sawRepStart || rp.report.Observations > 0 || rp.report.Decisions > 0 {
		rp.report.Reps++
	}
	rp.sawRepStart = true
	return rp.open(0, "")
}

// open (re)builds the detector of stream id from its class. The
// implicit stream of a single-detector journal is counted once.
func (rp *replayer) open(id uint64, class string) error {
	det, err := rp.factory(class)
	if err != nil {
		return fmt.Errorf("journal: replay factory (stream %d, class %q): %w", id, class, err)
	}
	if det == nil {
		return fmt.Errorf("journal: replay factory returned a nil detector for class %q", class)
	}
	if rp.fleet || rp.report.Streams == 0 {
		rp.report.Streams++
	}
	rp.streams[id] = &replayStream{det: det}
	return nil
}

// apply performs one stream-addressed operation (close, observe,
// decision, rebaseline) on the stream rec addresses.
func (rp *replayer) apply(op replayOp, rec *Record) {
	var id uint64
	if rp.fleet {
		id = rec.Stream
	}
	st, ok := rp.streams[id]
	if !ok {
		rp.mismatch(rec, "%s on unopened stream %d", rec.Kind, id)
		return
	}
	switch op {
	case opClose:
		if st.pending != nil {
			rp.mismatch(rec, "stream %d closed while a replayed decision awaited its recorded counterpart", id)
			return
		}
		delete(rp.streams, id)
		rp.report.Closes++
	case opObserve:
		if st.pending != nil {
			rp.mismatch(rec, "observation%s arrived while a replayed decision awaited its recorded counterpart", rp.on(id))
			return
		}
		rp.report.Observations++
		d := st.det.Observe(rec.Value)
		if d.Evaluated || d.Triggered {
			var in core.Internals
			if instr, ok := st.det.(core.Instrumented); ok {
				in = instr.Internals()
			}
			r := DecisionRecord(rec.Time, d, in, false)
			st.pending = &r
		}
	case opDecision:
		rp.report.Decisions++
		if rec.Triggered {
			rp.report.Triggers++
		}
		if st.pending == nil {
			rp.mismatch(rec, "recorded decision%s has no replayed counterpart (replayed detector did not evaluate)", rp.on(id))
			return
		}
		// Suppression belongs to the cooldown layer, not the detector;
		// carry it over so the byte comparison covers exactly the
		// detector-owned fields.
		st.pending.Suppressed = rec.Suppressed
		rp.recBuf = appendFields(rp.recBuf[:0], rec, decisionFields)
		rp.repBuf = appendFields(rp.repBuf[:0], st.pending, decisionFields)
		if !bytes.Equal(rp.recBuf, rp.repBuf) {
			rp.report.Mismatch = &Mismatch{
				Seq:      rec.Seq,
				Time:     rec.Time,
				Reason:   "decision payloads differ" + rp.on(id),
				Recorded: hex.EncodeToString(rp.recBuf),
				Replayed: hex.EncodeToString(rp.repBuf),
			}
			return
		}
		st.pending = nil
	case opRebaseline:
		rp.report.Rebaselines++
		if m := verifyRebaseline(*rec, st.det); m != nil {
			m.Reason += rp.on(id)
			rp.report.Mismatch = m
		}
	}
}

// finish reports a replayed decision left without its recorded
// counterpart at the end of the journal, naming the lowest stream id so
// the diagnosis is stable despite map iteration order.
func (rp *replayer) finish() {
	leftover, found := uint64(0), false
	for id, st := range rp.streams {
		if st.pending != nil && (!found || id < leftover) {
			leftover, found = id, true
		}
	}
	if found {
		rp.report.Mismatch = &Mismatch{Reason: fmt.Sprintf("replayed decision%s at end of journal has no recorded counterpart", rp.on(leftover))}
	}
}

// on names the stream a diagnosis concerns; the implicit stream of a
// single-detector journal goes unnamed.
func (rp *replayer) on(id uint64) string {
	if !rp.fleet {
		return ""
	}
	return fmt.Sprintf(" on stream %d", id)
}

// mismatch records a structural divergence at rec.
func (rp *replayer) mismatch(rec *Record, format string, args ...any) {
	rp.report.Mismatch = structuralMismatch(*rec, fmt.Sprintf(format, args...))
}

// structuralMismatch builds a mismatch for stream-shape divergences.
func structuralMismatch(rec Record, reason string) *Mismatch {
	return &Mismatch{Seq: rec.Seq, Time: rec.Time, Reason: reason}
}

// verifyRebaseline checks a recorded rebaseline event against the
// replayed detector: it must re-estimate its baseline online
// (core.Rebaseliner) and its committed baseline must match the recorded
// one bitwise — the shift layer is deterministic, so any drift in the
// re-estimated moments is a determinism break.
func verifyRebaseline(rec Record, det core.Detector) *Mismatch {
	rb, ok := det.(core.Rebaseliner)
	if !ok {
		return structuralMismatch(rec, "recorded rebaseline but the replay detector does not re-estimate its baseline")
	}
	got := rb.CurrentBaseline()
	if !sameF64Bits(got.Mean, rec.BaseMean) || !sameF64Bits(got.StdDev, rec.BaseStdDev) {
		return &Mismatch{
			Seq:      rec.Seq,
			Time:     rec.Time,
			Reason:   "rebaselined baselines differ",
			Recorded: fmt.Sprintf("(%v, %v)", rec.BaseMean, rec.BaseStdDev),
			Replayed: fmt.Sprintf("(%v, %v)", got.Mean, got.StdDev),
		}
	}
	return nil
}
