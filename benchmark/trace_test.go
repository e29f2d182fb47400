package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// scriptedTrack returns a track whose clock reads the given instants in
// order, one per begin or end.
func scriptedTrack(tr *tracer, instants ...int64) *track {
	k := tr.newTrack()
	k.now = func() int64 {
		t := instants[0]
		instants = instants[1:]
		return t
	}
	return k
}

// spanByName returns the kept spans of one layer.
func spansOf(tr *tracer, l layer) []span {
	var out []span
	for _, k := range tr.tracks {
		for _, s := range k.spans {
			if s.Name == layerNames[l] {
				out = append(out, s)
			}
		}
	}
	return out
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	// A request [0, 100] with two journal writes [10, 30] and [40, 90];
	// the second write contains a detector step [50, 60].
	//
	//	monitor.request  0 ------------------------------------- 100
	//	journal.write        10 ---- 30   40 ------------- 90
	//	core.observe                          50 -- 60
	tr := newTracer()
	k := scriptedTrack(tr, 0, 10, 30, 40, 50, 60, 90, 100)
	k.begin(layerMonitorRequest, 7)
	k.begin(layerJournalWrite, 7)
	k.end()
	k.begin(layerJournalWrite, 7)
	k.begin(layerCoreObserve, 7)
	k.end()
	k.end()
	k.end()

	st := tr.stats()
	for _, c := range []struct {
		l           layer
		calls       int64
		busy, self_ time.Duration
	}{
		{layerMonitorRequest, 1, 100, 30}, // 100 - 20 - 50
		{layerJournalWrite, 2, 70, 60},    // 20 + (50 - 10)
		{layerCoreObserve, 1, 10, 10},
	} {
		got := st[c.l]
		if got.Calls != c.calls || got.Busy != c.busy || got.Self != c.self_ {
			t.Errorf("%s: %d calls, busy %d, self %d; want %d, %d, %d",
				layerNames[c.l], got.Calls, got.Busy, got.Self, c.calls, c.busy, c.self_)
		}
	}

	req := spansOf(tr, layerMonitorRequest)
	writes := spansOf(tr, layerJournalWrite)
	obs := spansOf(tr, layerCoreObserve)
	if len(req) != 1 || len(writes) != 2 || len(obs) != 1 {
		t.Fatalf("kept %d/%d/%d spans", len(req), len(writes), len(obs))
	}
	if req[0].Parent != 0 || writes[0].Parent != req[0].ID || writes[1].Parent != req[0].ID || obs[0].Parent != writes[1].ID {
		t.Errorf("parent links wrong: request %+v writes %+v observe %+v", req[0], writes, obs[0])
	}
	for _, s := range append(append(req, writes...), obs...) {
		if s.Req != 7 {
			t.Errorf("span %s lost its request id", s.Name)
		}
	}
}

func TestSelfTimeSiblingTreesAreIndependent(t *testing.T) {
	// Two root batches back to back; only the second has a child. The
	// first batch's self time must not be reduced by the second's child.
	tr := newTracer()
	k := scriptedTrack(tr, 0, 5, 5, 6, 8, 12)
	k.begin(layerFleetBatch, 1)
	k.end()
	k.begin(layerFleetBatch, 2)
	k.begin(layerJournalWrite, 2)
	k.end()
	k.end()
	st := tr.stats()
	if st[layerFleetBatch].Busy != 12 || st[layerFleetBatch].Self != 10 {
		t.Errorf("batches busy %d self %d, want 12 and 10", st[layerFleetBatch].Busy, st[layerFleetBatch].Self)
	}
	b := spansOf(tr, layerFleetBatch)
	if b[0].Self != 5 || b[1].Self != 5 {
		t.Errorf("per-span self times %d and %d, want 5 and 5", b[0].Self, b[1].Self)
	}
}

func TestTracksMergeAndDetachedSpans(t *testing.T) {
	tr := newTracer()
	a := scriptedTrack(tr, 0, 4)
	b := scriptedTrack(tr, 1, 3)
	a.begin(layerHealthSnapshot, 0)
	b.begin(layerHealthSnapshot, 0)
	b.end()
	a.end()
	tr.record(layerActuatorDo, 9, 10, 15)
	st := tr.stats()
	if st[layerHealthSnapshot].Calls != 2 || st[layerHealthSnapshot].Busy != 6 {
		t.Errorf("merged snapshot stats %+v", st[layerHealthSnapshot])
	}
	if st[layerActuatorDo].Calls != 1 || st[layerActuatorDo].Self != 5 {
		t.Errorf("detached span stats %+v", st[layerActuatorDo])
	}
	var buf bytes.Buffer
	if err := tr.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL lines, want 3", len(lines))
	}
	var last span
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Name != "actuator.do" || last.Start != 10 || last.End != 15 || last.Req != 9 {
		t.Errorf("spans not ordered by start: last %+v", last)
	}
}

func TestSpanCapCountsTheRest(t *testing.T) {
	tr := newTracer()
	k := tr.newTrack()
	for i := 0; i < spansPerLayer+5; i++ {
		k.begin(layerJournalWrite, 0)
		k.end()
	}
	kept, dropped := tr.spanCounts()
	if kept != spansPerLayer || dropped != 5 || tr.stats()[layerJournalWrite].Calls != spansPerLayer+5 {
		t.Errorf("kept %d, dropped %d, counted %d", kept, dropped, tr.stats()[layerJournalWrite].Calls)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	k := tr.newTrack()
	k.begin(layerFleetBatch, 1)
	k.end()
	tr.record(layerActuatorDo, 0, 0, 1)
	if st := tr.stats(); st[layerFleetBatch].Calls != 0 {
		t.Errorf("nil tracer recorded %+v", st[layerFleetBatch])
	}
}
