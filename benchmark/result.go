package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees; every run
// without tracing reports all of them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"replay_records_per_s", "1/s"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the metrics of single layers; every traced run
// reports all of them. A layer the workload does not exercise reports
// zero.
var perLayer = []metricSpec{
	{"gen.late_p99_us", "us"},
	{"gen.backlog_growing", "flag"},
	{"fleet.batch.calls", "count"},
	{"fleet.batch.busy_s", "s"},
	{"fleet.batch.self_s", "s"},
	{"fleet.batch.ns_per_obs", "ns"},
	{"fleet.triggers", "count"},
	{"fleet.triggers_dropped", "count"},
	{"fleet.suppressed", "count"},
	{"health.snapshot.calls", "count"},
	{"health.snapshot.busy_ms", "ms"},
	{"health.snapshot.p99_ms", "ms"},
	{"journal.bytes", "B"},
	{"journal.bytes_per_obs", "B"},
	{"journal.write.calls", "count"},
	{"journal.write.busy_s", "s"},
	{"journal.replay.records", "count"},
	{"journal.replay.busy_s", "s"},
	{"sched.request.calls", "count"},
	{"sched.request.busy_us", "us"},
	{"sched.started", "count"},
	{"sched.coalesced", "count"},
	{"sched.deferred", "count"},
	{"sched.refused", "count"},
	{"sched.wait_p50_ms", "ms"},
	{"sched.wait_p99_ms", "ms"},
	{"actuator.executions", "count"},
	{"actuator.giveups", "count"},
	{"actuator.restore_p50_ms", "ms"},
	{"actuator.restore_p99_ms", "ms"},
	{"monitor.request.calls", "count"},
	{"monitor.request.busy_s", "s"},
	{"monitor.request.self_s", "s"},
	{"monitor.request.ns_per_req", "ns"},
	{"monitor.overhead_ns", "ns"},
	{"metrics.scrape.calls", "count"},
	{"metrics.scrape.busy_ms", "ms"},
	{"metrics.scrape.bytes", "B"},
	{"tracelog.context.calls", "count"},
	{"tracelog.context.busy_us", "us"},
	{"tracelog.dropped", "count"},
	{"core.observe.calls", "count"},
	{"core.observe.busy_ms", "ms"},
	{"ecommerce.simulate.calls", "count"},
	{"ecommerce.simulate.busy_s", "s"},
	{"ecommerce.simulate.self_s", "s"},
	{"ecommerce.txns", "count"},
	{"ecommerce.ns_per_txn", "ns"},
	{"ecommerce.cluster.busy_s", "s"},
	{"ecommerce.cluster.self_s", "s"},
	{"ecommerce.cluster.txns", "count"},
	{"ecommerce.rejuvenations", "count"},
	{"ecommerce.gcs", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// check is one correctness verdict of a workload.
type check struct {
	name   string
	ok     bool
	detail string
}

// outcome is everything one pass of a workload measured.
type outcome struct {
	// setup holds the duration of each set-up, in seconds.
	setup []float64
	// ops totals the units of work (observations, requests,
	// transactions) the closed-loop phases completed; cycleRate holds
	// the throughput of each closed-loop phase.
	ops       int64
	cycleRate []float64
	// latency pools per-operation latencies in microseconds; winP50,
	// winP90 and winP99 hold the percentiles of each latency window.
	latency                []float64
	winP50, winP90, winP99 []float64
	// late pools the open-loop generator's lateness; backlog reports
	// that some open-loop phase fell steadily behind.
	late    []time.Duration
	backlog bool
	// replayRecords journal records were verified in total; replayRate
	// holds the records per second of each timed replay.
	replayRecords int64
	replayRate    []float64
	// heapMB is the live heap after a forced GC at the end of the pass.
	heapMB float64

	// layer holds the per-layer values the pass measured without
	// tracing: counts from Stats calls and the benchmark's writers, and
	// latencies it timed itself.
	layer map[string]float64
	// fleetObs is the number of observations offered to the fleet, the
	// divisor of fleet.batch.ns_per_obs.
	fleetObs int64

	checks    []check
	attempted int64
	failed    int64
	// digest identifies the pass's deterministic output (journal
	// bytes, simulation results); a traced pass must reproduce the
	// untraced one.
	digest string
	// notes are human-readable report lines.
	notes []string
}

// newOutcome returns an empty outcome.
func newOutcome() *outcome { return &outcome{layer: map[string]float64{}} }

// set records a per-layer value; the name must be a perLayer metric.
func (o *outcome) set(name string, v float64) {
	for _, m := range perLayer {
		if m.Name == name {
			o.layer[name] = v
			return
		}
	}
	panic("benchmark: unknown per-layer metric " + name)
}

// expect records a correctness check; a failed one also counts as a
// failed operation.
func (o *outcome) expect(name string, ok bool, format string, args ...any) {
	o.checks = append(o.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
	o.attempted++
	if !ok {
		o.failed++
	}
}

// note adds a report line.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and no operation failed.
func (o *outcome) correct() bool {
	for _, c := range o.checks {
		if !c.ok {
			return false
		}
	}
	return o.failed == 0
}

// addClosed records one closed-loop phase.
func (o *outcome) addClosed(ops int64, el time.Duration) {
	o.ops += ops
	o.cycleRate = append(o.cycleRate, float64(ops)/el.Seconds())
}

// Latency windows: consecutive operations whose percentiles are taken
// together, each the fewest that leave ten samples beyond the highest
// percentile taken from it. Short windows let the median over windows
// skip the windows a stall of the host fell into: a window is either
// clean or not, rather than every long window holding some stall.
const (
	// tailWindow carries a window's median and 90th percentile.
	tailWindow = 100
	// p99Window carries a window's 99th percentile, for the report.
	p99Window = 1000
)

// addOpen records one open-loop phase.
func (o *outcome) addOpen(r openResult) {
	lat := durationsIn(r.Latency, time.Microsecond)
	o.latency = append(o.latency, lat...)
	o.late = append(o.late, r.Late...)
	o.backlog = o.backlog || r.Backlog
	o.addWindows(lat)
}

// addWindows cuts consecutive latency samples into windows and keeps
// each window's percentiles; a remainder shorter than a window counts
// in the pooled samples only.
func (o *outcome) addWindows(lat []float64) {
	for i := 0; i+tailWindow <= len(lat); i += tailWindow {
		w := sortedCopy(lat[i : i+tailWindow])
		o.winP50 = append(o.winP50, percentile(w, 50))
		o.winP90 = append(o.winP90, percentile(w, 90))
	}
	for i := 0; i+p99Window <= len(lat); i += p99Window {
		o.winP99 = append(o.winP99, percentile(sortedCopy(lat[i:i+p99Window]), 99))
	}
}

// addReplay records one timed replay of records journal records.
func (o *outcome) addReplay(records int64, el time.Duration) {
	o.replayRecords += records
	o.replayRate = append(o.replayRate, float64(records)/el.Seconds())
}

// throughput is the median throughput of the closed-loop phases.
func (o *outcome) throughput() float64 { return median(o.cycleRate) }

// value is one metric as printed: its value and sample count.
type value struct {
	v float64
	n int64
}

// endToEndValues derives the end-to-end metrics of a pass. Timings
// are medians over the pass's repeated phases and windows, so a burst
// of interference from outside the process (a descheduled virtual CPU,
// a noisy neighbour) moves one window, not the result: throughput is
// the median over closed-loop phases, each latency percentile the
// median of that percentile over windows of consecutive operations
// (the pooled percentile when a pass is too short for one window),
// replay speed the median over replays and set-up time the median over
// set-ups.
func (o *outcome) endToEndValues() map[string]value {
	n := int64(len(o.latency))
	p50, p90 := median(o.winP50), median(o.winP90)
	if len(o.winP50) == 0 {
		lat := sortedCopy(o.latency)
		p50, p90 = percentile(lat, 50), percentile(lat, 90)
	}
	return map[string]value{
		"setup_s":              {median(o.setup), int64(len(o.setup))},
		"throughput_per_s":     {o.throughput(), o.ops},
		"latency_p50_us":       {p50, n},
		"latency_p90_us":       {p90, n},
		"replay_records_per_s": {median(o.replayRate), o.replayRecords},
		"heap_live_mb":         {o.heapMB, 1},
	}
}

// applyTrace fills the per-layer timings of a traced pass from the
// tracer's totals.
func (o *outcome) applyTrace(st [numLayers]layerStats) {
	calls := func(l layer) float64 { return float64(st[l].Calls) }
	busy := func(l layer, unit time.Duration) float64 { return float64(st[l].Busy) / float64(unit) }
	self := func(l layer, unit time.Duration) float64 { return float64(st[l].Self) / float64(unit) }
	perUnit := func(l layer, units float64) float64 {
		if units <= 0 {
			return 0
		}
		return float64(st[l].Busy) / units
	}
	o.set("fleet.batch.calls", calls(layerFleetBatch))
	o.set("fleet.batch.busy_s", busy(layerFleetBatch, time.Second))
	o.set("fleet.batch.self_s", self(layerFleetBatch, time.Second))
	o.set("fleet.batch.ns_per_obs", perUnit(layerFleetBatch, float64(o.fleetObs)))
	o.set("health.snapshot.calls", calls(layerHealthSnapshot))
	o.set("health.snapshot.busy_ms", busy(layerHealthSnapshot, time.Millisecond))
	o.set("journal.write.calls", calls(layerJournalWrite))
	o.set("journal.write.busy_s", busy(layerJournalWrite, time.Second))
	o.set("journal.replay.busy_s", busy(layerJournalReplay, time.Second))
	o.set("sched.request.calls", calls(layerSchedRequest))
	o.set("sched.request.busy_us", busy(layerSchedRequest, time.Microsecond))
	o.set("monitor.request.calls", calls(layerMonitorRequest))
	o.set("monitor.request.busy_s", busy(layerMonitorRequest, time.Second))
	o.set("monitor.request.self_s", self(layerMonitorRequest, time.Second))
	o.set("monitor.request.ns_per_req", perUnit(layerMonitorRequest, calls(layerMonitorRequest)))
	o.set("metrics.scrape.calls", calls(layerMetricsScrape))
	o.set("metrics.scrape.busy_ms", busy(layerMetricsScrape, time.Millisecond))
	o.set("tracelog.context.calls", calls(layerTracelogContext))
	o.set("tracelog.context.busy_us", busy(layerTracelogContext, time.Microsecond))
	o.set("core.observe.calls", calls(layerCoreObserve))
	o.set("core.observe.busy_ms", busy(layerCoreObserve, time.Millisecond))
	o.set("ecommerce.simulate.calls", calls(layerSimulate))
	o.set("ecommerce.simulate.busy_s", busy(layerSimulate, time.Second))
	o.set("ecommerce.simulate.self_s", self(layerSimulate, time.Second))
	o.set("ecommerce.ns_per_txn", perUnit(layerSimulate, o.layer["ecommerce.txns"]))
	o.set("ecommerce.cluster.busy_s", busy(layerCluster, time.Second))
	o.set("ecommerce.cluster.self_s", self(layerCluster, time.Second))
}

// layerValues returns every per-layer metric of a pass, zero where the
// pass did not set one.
func (o *outcome) layerValues() map[string]value {
	out := make(map[string]value, len(perLayer))
	for _, m := range perLayer {
		out[m.Name] = value{v: o.layer[m.Name]}
	}
	return out
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeResult prints the result line with the given metrics, in the
// order of specs. A metric that could not be measured (NaN or ±Inf) is
// an error: JSON cannot carry it and a reader must not take it for a
// number.
func writeResult(correct bool, attempted, failed int64, specs []metricSpec, vals map[string]value) error {
	line := resultLine{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, m := range specs {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		line.Metrics[m.Name] = metricValue{Value: v.v, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// printMetrics writes one report line per metric, in spec order.
func printMetrics(title string, specs []metricSpec, vals map[string]value) {
	fmt.Printf("%s\n", title)
	for _, m := range specs {
		v := vals[m.Name]
		if v.n > 0 {
			fmt.Printf("  %-28s %16.6g %-6s n=%d\n", m.Name, v.v, m.Unit, v.n)
		} else {
			fmt.Printf("  %-28s %16.6g %s\n", m.Name, v.v, m.Unit)
		}
	}
}

// printLayerTable writes the traced pass's per-layer totals: calls,
// busy time and self time.
func printLayerTable(st [numLayers]layerStats) {
	fmt.Printf("traced layers (busy = time inside the call, self = busy minus traced child calls)\n")
	fmt.Printf("  %-20s %12s %14s %14s\n", "layer", "calls", "busy_ms", "self_ms")
	order := make([]int, numLayers)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return st[order[i]].Self > st[order[j]].Self })
	for _, l := range order {
		s := st[l]
		fmt.Printf("  %-20s %12d %14.3f %14.3f\n", layerNames[l], s.Calls,
			float64(s.Busy)/float64(time.Millisecond), float64(s.Self)/float64(time.Millisecond))
	}
}
