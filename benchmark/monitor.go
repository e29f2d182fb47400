package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"rejuv"
)

// monitor-http: one instrumented production stream. A Monitor running
// SRAA with Collector, TraceLog and a JSONL journal wraps an in-process
// handler through Middleware, called by ServeHTTP with no sockets.
// Triggers go through Scheduler.TriggerFunc to one Actuator; a second
// goroutine scrapes Registry.Handler.
const (
	// monitorCheckRequests is the length of the check phase whose
	// journal is retained and replayed.
	monitorCheckRequests = 100_000
	monitorWarmup        = 10_000
	monitorSetups        = 10
	// monitorRate is the open-loop offered rate in requests per second.
	// It is frozen: changing it changes what the latency metrics
	// measure.
	monitorRate   = 80_000
	monitorScrape = 100 * time.Millisecond
	// monitorControl is how long the bare control loop runs per cycle.
	monitorControl = 60 * time.Millisecond
	// Aging episodes, in requests: the service time ramps for
	// monitorEpisode requests, then the stream is healthy for
	// monitorGapMin plus up to monitorGapSpan requests. The gap keeps
	// each trigger tens of milliseconds clear of the previous
	// execution, so the one-replica scheduler never sees a request for
	// a replica still in flight.
	monitorEpisode  = 400
	monitorGapMin   = 20_000
	monitorGapSpan  = 20_000
	monitorCooldown = 10 * time.Second
)

// monitorDetector builds the paper's SRAA (n=2, K=5, D=3) over the SLA
// baseline of 5 ms mean and 5 ms standard deviation.
func monitorDetector() (rejuv.Detector, error) {
	return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3,
		Baseline: rejuv.Baseline{Mean: 0.005, StdDev: 0.005}})
}

// monitorGen draws each request's service time from the seed. Healthy
// requests take 2.25 to 6.25 ms in whole-millisecond steps, which keeps
// every healthy sample mean a quarter millisecond or more from the first
// bucket target and below the second. An aging episode adds 10 ms plus
// 0.05 ms per request.
type monitorGen struct {
	rng        *rand.Rand
	i          int
	start, end int // current episode, in requests
	episodes   int
}

// newMonitorGen places the first episode after the warm-up.
func newMonitorGen(seed uint64) *monitorGen {
	g := &monitorGen{rng: rand.New(rand.NewPCG(seed, 0x6d6f6e))}
	g.start = monitorWarmup + g.rng.IntN(monitorGapSpan)
	g.end = g.start + monitorEpisode
	g.episodes = 1
	return g
}

// next returns the service time of the next request.
func (g *monitorGen) next() time.Duration {
	i := g.i
	g.i++
	if i >= g.end {
		g.start = g.end + monitorGapMin + g.rng.IntN(monitorGapSpan)
		g.end = g.start + monitorEpisode
		g.episodes++
	}
	svc := time.Duration(2250+1000*g.rng.IntN(5)) * time.Microsecond
	if i >= g.start {
		svc += 10*time.Millisecond + time.Duration(i-g.start)*50*time.Microsecond
	}
	return svc
}

// monitorRig is one set-up instrumented stream.
type monitorRig struct {
	m         *rejuv.Monitor
	h         http.Handler
	reg       *rejuv.Registry
	tl        *rejuv.TraceLog
	sch       *rejuv.Scheduler
	act       *rejuv.Actuator
	sink      *journalSink
	jw        *rejuv.JournalWriter
	schedSink *journalSink
	gen       *monitorGen
	clk       clock
	tr        *tracer
	trk       *track // the generator goroutine's track

	// offset is added to the real clock by MonitorConfig.Now; the inner
	// handler advances it by svc, the seeded service time of the
	// request in flight.
	offset atomic.Int64
	svc    time.Duration
	curDue time.Duration

	w   *respWriter
	req *http.Request
	n   int64 // requests served
	bad int64 // responses other than 200

	delivered int64 // triggers delivered to OnTrigger
	ctxMisses int64 // triggers whose TriggerContext lacked them

	pendDue, reqAt atomic.Int64
	waits          samples // Request -> Do entry, ms
	restores       samples // request due time -> Do return, ms
}

// newMonitorRig builds the monitor stack and serves the warm-up
// requests.
func newMonitorRig(seed uint64, clk clock, tr *tracer) (*monitorRig, error) {
	rig := &monitorRig{gen: newMonitorGen(seed), clk: clk, tr: tr, trk: tr.newTrack(), w: newRespWriter()}
	req, err := http.NewRequest(http.MethodGet, "/", nil)
	if err != nil {
		return nil, err
	}
	rig.req = req
	rig.reg = rejuv.NewRegistry()
	rig.tl = rejuv.NewTraceLog(0)
	rig.tl.Instrument(rig.reg)
	rig.sink = newJournalSink(rig.trk)
	rig.jw = rejuv.NewJournalJSONWriter(rig.sink, rejuv.JournalMeta{
		CreatedBy: "rejuvbench", Detector: "SRAA (n=2, K=5, D=3)", Seed: seed, Notes: "monitor-http",
	})
	rig.schedSink = newJournalSink(nil)
	act, err := rejuv.NewActuator(rejuv.ActuatorConfig{
		Do:      func(context.Context) error { rig.restore(); return nil },
		Metrics: rig.reg,
	})
	if err != nil {
		return nil, err
	}
	rig.act = act
	sch, err := rejuv.NewScheduler(rejuv.SchedulerConfig{
		Policy:    rejuv.OneDownPolicy(1, 1),
		Actuators: []*rejuv.Actuator{act},
		Journal: rejuv.NewJournalWriter(rig.schedSink, rejuv.JournalMeta{
			CreatedBy: "rejuvbench", Detector: "scheduler", Seed: seed, Notes: "monitor-http",
		}),
	})
	if err != nil {
		return nil, err
	}
	rig.sch = sch
	request := sch.TriggerFunc(0)
	det, err := monitorDetector()
	if err != nil {
		sch.Close()
		return nil, err
	}
	m, err := rejuv.NewMonitor(rejuv.MonitorConfig{
		Detector:  timeDetector(det, rig.trk),
		OnTrigger: func(t rejuv.Trigger) { rig.onTrigger(t, request) },
		Cooldown:  monitorCooldown,
		Now:       func() time.Time { return time.Now().Add(time.Duration(rig.offset.Load())) },
		Collector: rejuv.NewCollector(rig.reg),
		Trace:     rig.tl,
		Journal:   rig.jw,
	})
	if err != nil {
		sch.Close()
		return nil, err
	}
	rig.m = m
	rig.h = m.Middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rig.offset.Add(int64(rig.svc))
		w.WriteHeader(http.StatusOK)
	}))
	for rig.n < monitorWarmup {
		rig.serve(clk.Now())
	}
	return rig, nil
}

// serve sends the next request, due at due on the rig's clock.
func (rig *monitorRig) serve(due time.Duration) {
	rig.svc = rig.gen.next()
	rig.curDue = due
	rig.w.reset()
	rig.trk.begin(layerMonitorRequest, uint64(rig.n))
	rig.h.ServeHTTP(rig.w, rig.req)
	rig.trk.end()
	if rig.w.status() != http.StatusOK {
		rig.bad++
	}
	rig.n++
}

// onTrigger is the monitor's OnTrigger, run under the monitor lock on
// the generator goroutine: it pulls the trigger's explanation from the
// trace ring and hands the trigger to the scheduler.
func (rig *monitorRig) onTrigger(t rejuv.Trigger, request func(rejuv.Trigger)) {
	rig.trk.begin(layerTracelogContext, t.ID)
	ctx := rig.tl.TriggerContext(8)
	rig.trk.end()
	if len(ctx) == 0 || ctx[len(ctx)-1].TriggerID != t.ID {
		rig.ctxMisses++
	}
	rig.pendDue.Store(int64(rig.curDue))
	rig.reqAt.Store(int64(rig.clk.Now()))
	rig.trk.begin(layerSchedRequest, t.ID)
	request(t)
	rig.trk.end()
	rig.delivered++
}

// restore is the actuator's Do: it returns at once, recording the
// scheduling wait and the detect-to-restore latency.
func (rig *monitorRig) restore() {
	t0 := rig.tr.clockNanos()
	entry := rig.clk.Now()
	rig.waits.add(msOf(entry - time.Duration(rig.reqAt.Load())))
	rig.restores.add(msOf(rig.clk.Now() - time.Duration(rig.pendDue.Load())))
	rig.tr.record(layerActuatorDo, 0, t0, rig.tr.clockNanos())
}

// runMonitor runs one pass of monitor-http.
func runMonitor(e env) (*outcome, error) {
	o := newOutcome()
	clk := wallClock{origin: time.Now()}
	var rig *monitorRig
	for i := 0; i < monitorSetups; i++ {
		if rig != nil {
			rig.sch.Close()
		}
		var tr *tracer
		if i == monitorSetups-1 {
			tr = e.tr
		}
		t0 := time.Now()
		r, err := newMonitorRig(e.seed, clk, tr)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		rig = r
	}

	// Check phase.
	for rig.n < monitorWarmup+monitorCheckRequests {
		rig.serve(clk.Now())
	}
	rig.sink.stopRetaining()
	checkRecords := rig.jw.Seq()
	checkRequests := rig.n

	// Timed phases, with the scraper running.
	req, err := http.NewRequest(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	scrape := startPoller(rig.reg.Handler(), req, monitorScrape, clk, e.tr, layerMetricsScrape)
	phase := e.length / (2 * timedCycles)
	var bare []float64
	for c := 0; c < timedCycles; c++ {
		before := rig.n
		runtime.GC()
		_, el := runClosed(clk, phase, func(int) { rig.serve(clk.Now()) })
		o.addClosed(rig.n-before, el)
		bare = append(bare, controlLoop(e.seed, clk))
		o.addOpen(runOpen(clk, time.Second/monitorRate, phase, func(_ int, due time.Duration) { rig.serve(due) }))

		// Replay the check-phase journal through a fresh detector.
		runtime.GC()
		rig.trk.begin(layerJournalReplay, 0)
		t0 := time.Now()
		jr, err := rejuv.NewJournalReader(rig.sink.reader())
		if err != nil {
			return nil, fmt.Errorf("reading monitor journal: %w", err)
		}
		rep, err := rejuv.ReplayJournal(jr, monitorDetector)
		o.addReplay(int64(checkRecords), time.Since(t0))
		rig.trk.end()
		if c == 0 {
			o.expect("monitor journal replays identically", err == nil && rep.Identical() && rep.Observations == int(checkRequests),
				"%d observations, %d decisions, %d triggers (err %v, mismatch %v)",
				rep.Observations, rep.Decisions, rep.Triggers, err, rep.Mismatch)
		}
	}
	scrape.halt()

	idle := waitFor(10*time.Second, func() bool { return rig.sch.Queued() == 0 && rig.sch.Down(0) == 0 })
	o.expect("scheduler drained", idle, "%d queued, %d down", rig.sch.Queued(), rig.sch.Down(0))
	rig.sch.Close()

	ms := rig.m.Stats()
	sst := rig.sch.Stats()
	as := rig.act.Stats()
	o.expect("every response 200", rig.bad == 0, "%d of %d requests answered otherwise", rig.bad, rig.n)
	o.expect("triggers delivered = actuator executions + coalesced requests",
		rig.delivered == int64(as.Executions+sst.Coalesced) && ms.Triggers == uint64(rig.delivered),
		"%d delivered (monitor counted %d), %d executions, %d coalesced", rig.delivered, ms.Triggers, as.Executions, sst.Coalesced)
	o.expect("trace context explains every trigger", rig.ctxMisses == 0, "%d of %d triggers missing", rig.ctxMisses, rig.delivered)
	// Each episode draws one delivered trigger; the cooldown suppresses
	// its repeats. The episode in progress at the end may not have.
	ended := rig.gen.episodes
	if rig.gen.i < rig.gen.end {
		ended--
	}
	o.expect("every aging episode detected once", ms.Triggers >= uint64(ended) && ms.Triggers <= uint64(rig.gen.episodes),
		"%d delivered triggers over %d episodes (%d ended)", ms.Triggers, rig.gen.episodes, ended)

	schedRecords, err := replaySched(o, rig.trk, rig.schedSink, rig.sch.Policy())
	if err != nil {
		return nil, err
	}
	// The journal's timestamps and values carry real-clock noise, so the
	// digest covers its shape: record kinds and the detector internals
	// a decision record carries.
	if o.digest, err = shapeDigest(rig.sink.reader()); err != nil {
		return nil, err
	}

	instrNs := 1e9 / o.throughput()
	bareNs := median(bare)
	o.note("monitor: %d requests, %d aging episodes, %d triggers delivered, %d suppressed; %.0f ns/request instrumented, %.0f ns bare",
		rig.n, rig.gen.episodes, ms.Triggers, ms.Suppressed, instrNs, bareNs)
	noteOpen(o, monitorRate)
	noteLatency(o)
	o.set("journal.bytes", float64(rig.sink.bytes))
	o.set("journal.bytes_per_obs", float64(rig.sink.bytes)/float64(rig.n))
	o.set("journal.write.calls", float64(rig.sink.writes))
	o.set("journal.replay.records", float64(o.replayRecords+schedRecords))
	o.set("sched.request.calls", float64(rig.delivered))
	setSched(o, sst)
	setWaits(o, &rig.waits, &rig.restores)
	o.set("actuator.executions", float64(as.Executions))
	o.set("actuator.giveups", float64(as.GiveUps))
	o.set("monitor.request.calls", float64(rig.n))
	o.set("monitor.overhead_ns", instrNs-bareNs)
	setPolls(o, scrape, "metrics.scrape.calls", "metrics.scrape.busy_ms", "metrics.scrape.bytes")
	o.set("metrics.scrape.bytes", float64(scrape.bytes))
	o.set("tracelog.context.calls", float64(rig.delivered))
	o.set("tracelog.dropped", float64(rig.tl.Dropped()))
	o.set("core.observe.calls", float64(rig.n))

	o.attempted += rig.n + int64(len(scrape.durs)) + rig.delivered
	o.failed += rig.bad + int64(sst.Refused+sst.Saturated+as.GiveUps) + scrape.bad

	rig.sink.release()
	o.heapMB = o.heapLiveMB()
	runtime.KeepAlive(rig)
	return o, nil
}

// controlLoop serves the bare handler — the same seeded service times,
// no Middleware — in the closed loop and returns its nanoseconds per
// request, the baseline of monitor.overhead_ns.
func controlLoop(seed uint64, clk clock) float64 {
	gen := newMonitorGen(seed)
	var offset atomic.Int64
	var svc time.Duration
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		offset.Add(int64(svc))
		w.WriteHeader(http.StatusOK)
	})
	w := newRespWriter()
	req, _ := http.NewRequest(http.MethodGet, "/", nil) // a constant request cannot fail to parse
	n, el := runClosed(clk, monitorControl, func(int) {
		svc = gen.next()
		w.reset()
		h.ServeHTTP(w, req)
	})
	return float64(el) / float64(n)
}

// shapeDigest hashes a journal's record kinds and the sample size each
// decision record reports: fields that do not depend on clock noise,
// and that a detector wrapper hiding Instrumented would zero.
func shapeDigest(r io.Reader) (string, error) {
	jr, err := rejuv.NewJournalReader(r)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for {
		rec, err := jr.Next()
		if errors.Is(err, io.EOF) {
			return hex.EncodeToString(h.Sum(nil)), nil
		}
		if err != nil {
			return "", err
		}
		_, _ = fmt.Fprintf(h, "%d %d\n", rec.Kind, rec.SampleSize) // a hash.Hash never returns an error
	}
}
