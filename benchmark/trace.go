package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one traced boundary: a public call into one module of the
// system under test, timed from the benchmark's side.
type layer uint8

// The traced layers. Their names are the prefixes of the per-layer
// metrics.
const (
	layerFleetBatch layer = iota
	layerHealthSnapshot
	layerJournalWrite
	layerJournalReplay
	layerSchedRequest
	layerActuatorDo
	layerMonitorRequest
	layerMetricsScrape
	layerTracelogContext
	layerCoreObserve
	layerSimulate
	layerCluster
	numLayers
)

// layerNames maps each layer to its metric prefix.
var layerNames = [numLayers]string{
	layerFleetBatch:      "fleet.batch",
	layerHealthSnapshot:  "health.snapshot",
	layerJournalWrite:    "journal.write",
	layerJournalReplay:   "journal.replay",
	layerSchedRequest:    "sched.request",
	layerActuatorDo:      "actuator.do",
	layerMonitorRequest:  "monitor.request",
	layerMetricsScrape:   "metrics.scrape",
	layerTracelogContext: "tracelog.context",
	layerCoreObserve:     "core.observe",
	layerSimulate:        "ecommerce.simulate",
	layerCluster:         "ecommerce.cluster",
}

// spansPerLayer caps the spans one track keeps in memory per layer.
// Every span is counted in the layer totals; only the first
// spansPerLayer of each layer are kept for the JSONL dump, which bounds
// memory when a layer is entered millions of times.
const spansPerLayer = 20_000

// span is one timed call. Times are nanoseconds since the tracer's
// origin; Self is the duration minus the time covered by child spans.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    uint64 `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// layerStats aggregates every span of one layer.
type layerStats struct {
	Calls int64
	Busy  time.Duration
	Self  time.Duration
}

// tracer collects spans from any number of tracks. A nil *tracer
// disables tracing: it hands out nil tracks, whose methods do nothing.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu       sync.Mutex
	tracks   []*track // guarded by mu
	detached *track   // guarded by mu
}

// newTracer returns a tracer whose span times count from now.
func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.detached = t.newTrack()
	return t
}

// clockNanos returns nanoseconds since the tracer's origin; 0 when
// tracing is off.
func (t *tracer) clockNanos() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// newTrack returns a span track for one goroutine; nil when tracing is
// off.
func (t *tracer) newTrack() *track {
	if t == nil {
		return nil
	}
	k := &track{tr: t, now: t.clockNanos}
	t.mu.Lock()
	t.tracks = append(t.tracks, k)
	t.mu.Unlock()
	return k
}

// record adds one span timed by a goroutine that owns no track, such as
// the scheduler's per-execution goroutines.
func (t *tracer) record(l layer, req uint64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.detached.add(l, t.ids.Add(1), 0, req, start, end, end-start)
}

// stats sums the per-layer totals of every track. Call it once the
// goroutines that own the tracks have stopped.
func (t *tracer) stats() [numLayers]layerStats {
	var out [numLayers]layerStats
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range t.tracks {
		for l := range out {
			out[l].Calls += k.stats[l].Calls
			out[l].Busy += k.stats[l].Busy
			out[l].Self += k.stats[l].Self
		}
	}
	return out
}

// spanCounts returns how many spans were kept and how many were only
// counted.
func (t *tracer) spanCounts() (kept, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range t.tracks {
		kept += int64(len(k.spans))
		dropped += k.dropped
	}
	return kept, dropped
}

// writeJSONL writes every kept span, ordered by start time, one JSON
// object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	var all []span
	for _, k := range t.tracks {
		all = append(all, k.spans...)
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].ID < all[j].ID
	})
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// frame is one open span on a track's stack.
type frame struct {
	id    uint64
	l     layer
	req   uint64
	start int64
	child int64 // time covered by finished child spans
}

// track records the spans of one goroutine. Spans on a track nest
// strictly (a child ends before its parent), so the time a span's
// children cover is the sum of their durations. A track must only be
// used by the goroutine that owns it; a nil track ignores every call.
type track struct {
	tr      *tracer
	now     func() int64
	stack   []frame
	stats   [numLayers]layerStats
	spans   []span
	kept    [numLayers]int
	dropped int64
}

// begin opens a span of layer l for batch or request req.
func (k *track) begin(l layer, req uint64) {
	if k == nil {
		return
	}
	//lint:allow hotpath traced runs only; the stack grows to the nesting depth once
	k.stack = append(k.stack, frame{id: k.tr.ids.Add(1), l: l, req: req, start: k.now()})
}

// end closes the innermost open span, charges its duration to its
// parent's covered time and records it.
func (k *track) end() {
	if k == nil {
		return
	}
	end := k.now()
	f := k.stack[len(k.stack)-1]
	k.stack = k.stack[:len(k.stack)-1]
	dur := end - f.start
	var parent uint64
	if n := len(k.stack); n > 0 {
		k.stack[n-1].child += dur
		parent = k.stack[n-1].id
	}
	k.add(f.l, f.id, parent, f.req, f.start, end, dur-f.child)
}

// add folds one finished span into the totals and keeps it while the
// layer is under its cap.
func (k *track) add(l layer, id, parent, req uint64, start, end, self int64) {
	st := &k.stats[l]
	st.Calls++
	st.Busy += time.Duration(end - start)
	st.Self += time.Duration(self)
	if k.kept[l] >= spansPerLayer {
		k.dropped++
		return
	}
	k.kept[l]++
	//lint:allow hotpath traced runs only; kept spans are capped per layer
	k.spans = append(k.spans, span{ID: id, Parent: parent, Name: layerNames[l], Req: req,
		Start: start, End: end, Self: self})
}
