package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"rejuv"
)

// fleet-ingest: the production fleet path. 100k streams in the three
// rejuvsim -fleet classes; one goroutine offers observations in batches
// through Fleet.ObserveBatch with health tracking at its default, a
// binary journal into a sink the benchmark owns, and the trigger path
// Scheduler.FleetTriggerFunc -> ScheduledPolicy -> one Actuator per
// replica; a second goroutine polls FleetzHandler.
const (
	fleetStreams  = 100_000
	fleetReplicas = 1_000 // each hosts 100 streams, exactly one of which ages
	fleetBatch    = 1_000 // observations per ObserveBatch call
	fleetPerRound = fleetStreams / fleetBatch
	// fleetRate is the open-loop offered rate in batches per second
	// (1M observations per second). It is frozen: changing it changes
	// what latency_p50_us and latency_p90_us measure.
	fleetRate = 1_000
	// fleetCheckRounds is the length of the deterministic check phase
	// whose journal is retained, digested and replayed.
	fleetCheckRounds = 20
	fleetSetups      = 7
	// fleetPoll is the /fleetz cadence of a dashboard such as rejuvtop.
	fleetPoll = time.Second
	// fleetTick is the virtual time between batches: FleetConfig.Now
	// returns the batch's scheduled virtual time, so the journal bytes
	// depend only on the seed.
	fleetTick = time.Millisecond
	// Aging episodes, in rounds (one observation per stream): a replica's
	// aging stream degrades for fleetEpisode rounds, is restored, and
	// degrades again after a gap of fleetGapMin plus up to fleetGapSpan
	// rounds. The first onset falls in rounds 1..fleetOnsetMax.
	fleetEpisode  = 60
	fleetGapMin   = 40
	fleetGapSpan  = 80
	fleetOnsetMax = 3
	// fleetCooldownRounds is the per-stream trigger cooldown.
	fleetCooldownRounds = 30
	// fleetSlackRounds is how long after an episode ends a trigger still
	// counts as a detection of it.
	fleetSlackRounds = 10
	// dueRingSize bounds how many batches the trigger dispatcher may lag
	// behind the generator and still find the batch's due time.
	dueRingSize = 1 << 16
)

// fleetClasses is the class mix of rejuvsim -fleet: one class per paper
// algorithm over the SLA baseline (mean 5, sd 1).
func fleetClasses() []rejuv.StreamClass {
	base := rejuv.Baseline{Mean: 5, StdDev: 1}
	return []rejuv.StreamClass{
		{Name: "web-sraa", Family: rejuv.FamilySRAA, SampleSize: 4, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "db-saraa", Family: rejuv.FamilySARAA, SampleSize: 8, Buckets: 3, Depth: 2, Baseline: base},
		{Name: "cache-clta", Family: rejuv.FamilyCLTA, SampleSize: 4, Quantile: 4, Baseline: base},
	}
}

// classFactory builds reference detectors by class name, for replay.
func classFactory(classes []rejuv.StreamClass) func(string) (rejuv.Detector, error) {
	return func(name string) (rejuv.Detector, error) {
		for _, c := range classes {
			if c.Name == name {
				return c.Detector()
			}
		}
		return nil, fmt.Errorf("unknown stream class %q", name)
	}
}

// replicaOf maps a stream to the replica that hosts it.
func replicaOf(id rejuv.StreamID) int { return int((id - 1) % fleetReplicas) }

// episode is one aging episode of a replica's aging stream: rounds
// [start, end).
type episode struct{ start, end int }

// fleetGen generates the fleet's observations from the seed: healthy
// streams draw uniformly from [4, 6]; during an episode the aging
// stream steps up by 4 and ramps 0.1 per round, the soft aging shape of
// rejuvsim -fleet. Healthy values cannot reach any class's trigger
// threshold, so every trigger belongs to an episode.
type fleetGen struct {
	rng     *rand.Rand
	agingOf []int32          // stream id -> replica it ages for, or -1
	agingID []rejuv.StreamID // replica -> its aging stream
	eps     [][]episode      // replica -> episodes so far, the last current
	batch   []rejuv.StreamObs
}

// newFleetGen draws the aging streams and their first onsets.
func newFleetGen(seed uint64) *fleetGen {
	g := &fleetGen{
		rng:     rand.New(rand.NewPCG(seed, 0xf1ee7)),
		agingOf: make([]int32, fleetStreams+1),
		agingID: make([]rejuv.StreamID, fleetReplicas),
		eps:     make([][]episode, fleetReplicas),
		batch:   make([]rejuv.StreamObs, fleetBatch),
	}
	for i := range g.agingOf {
		g.agingOf[i] = -1
	}
	for r := 0; r < fleetReplicas; r++ {
		id := r + 1 + fleetReplicas*g.rng.IntN(fleetStreams/fleetReplicas)
		g.agingOf[id] = int32(r)
		g.agingID[r] = rejuv.StreamID(id)
		start := 1 + g.rng.IntN(fleetOnsetMax)
		g.eps[r] = []episode{{start, start + fleetEpisode}}
	}
	return g
}

// next returns batch k: streams are visited in id order, one round of
// fleetPerRound batches per observation of every stream.
func (g *fleetGen) next(k int) []rejuv.StreamObs {
	round := k / fleetPerRound
	first := (k % fleetPerRound) * fleetBatch
	for i := range g.batch {
		id := first + i + 1
		v := 4 + 2*g.rng.Float64()
		if r := g.agingOf[id]; r >= 0 {
			v += g.aging(r, round)
		}
		g.batch[i] = rejuv.StreamObs{Stream: rejuv.StreamID(id), Value: v}
	}
	return g.batch
}

// aging returns the degradation of replica r's aging stream in round,
// starting the next episode once the current one has ended.
func (g *fleetGen) aging(r int32, round int) float64 {
	eps := g.eps[r]
	cur := eps[len(eps)-1]
	if round >= cur.end {
		start := cur.end + fleetGapMin + g.rng.IntN(fleetGapSpan)
		cur = episode{start, start + fleetEpisode}
		g.eps[r] = append(eps, cur)
	}
	if round < cur.start {
		return 0
	}
	return 4 + 0.1*float64(round-cur.start)
}

// episodeOf returns the index of replica r's episode that round falls
// in, allowing fleetSlackRounds after its end, or -1.
func (g *fleetGen) episodeOf(r, round int) int {
	for i, ep := range g.eps[r] {
		if round >= ep.start && round < ep.end+fleetSlackRounds {
			return i
		}
	}
	return -1
}

// fleetTrig is one delivered trigger: its stream and the batch that
// raised it.
type fleetTrig struct {
	stream rejuv.StreamID
	batch  int
}

// fleetRig is one set-up fleet with everything attached.
type fleetRig struct {
	f         *rejuv.Fleet
	sch       *rejuv.Scheduler
	acts      []*rejuv.Actuator
	sink      *journalSink
	jw        *rejuv.JournalWriter
	schedSink *journalSink
	gen       *fleetGen
	clk       clock
	tr        *tracer
	trk       *track // the generator goroutine's track

	vnow atomic.Int64 // virtual clock in nanoseconds, read by the engine
	k    int          // next batch index
	obs  int64

	// due maps a batch index (mod dueRingSize) to its due time on clk;
	// pendDue and reqAt hold, per replica, the due time of the batch
	// behind its latest request and when that request was made.
	due     []atomic.Int64
	pendDue []atomic.Int64
	reqAt   []atomic.Int64

	delivered atomic.Int64
	trigs     []fleetTrig // appended by the dispatcher; read after quiescing
	waits     samples     // Request -> Do entry, ms
	restores  samples     // batch due time -> Do return, ms
}

// newFleetRig constructs the fleet, the scheduler and the actuators,
// opens every stream and runs one warm-up round.
func newFleetRig(seed uint64, clk clock, tr *tracer) (*fleetRig, error) {
	rig := &fleetRig{
		gen:     newFleetGen(seed),
		clk:     clk,
		tr:      tr,
		trk:     tr.newTrack(),
		due:     make([]atomic.Int64, dueRingSize),
		pendDue: make([]atomic.Int64, fleetReplicas),
		reqAt:   make([]atomic.Int64, fleetReplicas),
	}
	rig.sink = newJournalSink(rig.trk)
	rig.jw = rejuv.NewJournalWriter(rig.sink, rejuv.JournalMeta{
		CreatedBy: "rejuvbench", Detector: "fleet (web-sraa, db-saraa, cache-clta)",
		Seed: seed, Notes: "fleet-ingest",
	})
	rig.schedSink = newJournalSink(nil)
	schedJW := rejuv.NewJournalWriter(rig.schedSink, rejuv.JournalMeta{
		CreatedBy: "rejuvbench", Detector: "scheduler", Seed: seed, Notes: "fleet-ingest",
	})
	rig.acts = make([]*rejuv.Actuator, fleetReplicas)
	for r := range rig.acts {
		r := r
		a, err := rejuv.NewActuator(rejuv.ActuatorConfig{
			Do: func(context.Context) error { rig.restore(r); return nil },
		})
		if err != nil {
			return nil, err
		}
		rig.acts[r] = a
	}
	sch, err := rejuv.NewScheduler(rejuv.SchedulerConfig{
		Policy:    rejuv.ScheduledPolicy(fleetReplicas, 1),
		Actuators: rig.acts,
		Journal:   schedJW,
	})
	if err != nil {
		return nil, err
	}
	rig.sch = sch
	request := sch.FleetTriggerFunc(replicaOf)
	dtrk := tr.newTrack()
	classes := fleetClasses()
	f, err := rejuv.NewFleet(rejuv.FleetConfig{
		Classes:    classes,
		Cooldown:   fleetCooldownRounds * fleetPerRound * fleetTick,
		Now:        func() time.Time { return time.Unix(0, rig.vnow.Load()) },
		Journal:    rig.jw,
		QueueDepth: 4096,
		OnTrigger:  func(t rejuv.FleetTrigger) { rig.deliver(t, request, dtrk) },
	})
	if err != nil {
		sch.Close()
		return nil, err
	}
	rig.f = f
	for id := 1; id <= fleetStreams; id++ {
		if err := f.OpenStream(rejuv.StreamID(id), classes[(id-1)%len(classes)].Name); err != nil {
			rig.close()
			return nil, err
		}
	}
	for rig.k < fleetPerRound {
		rig.step(clk.Now())
	}
	return rig, nil
}

// step offers the next batch, due at due on the rig's clock.
func (rig *fleetRig) step(due time.Duration) {
	b := rig.gen.next(rig.k)
	rig.due[rig.k%dueRingSize].Store(int64(due))
	rig.vnow.Store(int64(rig.k) * int64(fleetTick))
	rig.trk.begin(layerFleetBatch, uint64(rig.k))
	rig.f.ObserveBatch(b)
	rig.trk.end()
	rig.k++
	rig.obs += int64(len(b))
}

// deliver is the fleet's OnTrigger, run by its dispatcher goroutine:
// it notes when the request is made and which batch's due time it
// answers, then hands the trigger to the scheduler.
func (rig *fleetRig) deliver(t rejuv.FleetTrigger, request func(rejuv.FleetTrigger), trk *track) {
	k := int(t.Time.UnixNano() / int64(fleetTick))
	r := replicaOf(t.Stream)
	rig.pendDue[r].Store(rig.due[k%dueRingSize].Load())
	rig.reqAt[r].Store(int64(rig.clk.Now()))
	rig.trigs = append(rig.trigs, fleetTrig{t.Stream, k})
	trk.begin(layerSchedRequest, uint64(k))
	request(t)
	trk.end()
	rig.delivered.Add(1)
}

// restore is every actuator's Do: it returns at once, recording the
// scheduling wait and the detect-to-restore latency of replica r.
func (rig *fleetRig) restore(r int) {
	t0 := rig.tr.clockNanos()
	entry := rig.clk.Now()
	rig.waits.add(msOf(entry - time.Duration(rig.reqAt[r].Load())))
	rig.restores.add(msOf(rig.clk.Now() - time.Duration(rig.pendDue[r].Load())))
	rig.tr.record(layerActuatorDo, uint64(r), t0, rig.tr.clockNanos())
}

// close stops the scheduler and the fleet.
func (rig *fleetRig) close() {
	rig.sch.Close()
	rig.f.Close()
}

// runFleet runs one pass of fleet-ingest.
func runFleet(e env) (*outcome, error) {
	o := newOutcome()
	clk := wallClock{origin: time.Now()}

	// Set-up, repeated; the last rig is the one measured, and only it
	// is traced.
	var rig *fleetRig
	for i := 0; i < fleetSetups; i++ {
		if rig != nil {
			rig.close()
		}
		var tr *tracer
		if i == fleetSetups-1 {
			tr = e.tr
		}
		t0 := time.Now()
		r, err := newFleetRig(e.seed, clk, tr)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
		rig = r
	}

	// Check phase: a fixed amount of work whose journal is kept,
	// digested and replayed.
	for rig.k < (1+fleetCheckRounds)*fleetPerRound {
		rig.step(clk.Now())
	}
	rig.sink.stopRetaining()
	checkRecords := rig.jw.Seq()
	checkObs := rig.obs

	// Timed phases, with the health poller running.
	req, err := http.NewRequest(http.MethodGet, "/fleetz", nil)
	if err != nil {
		return nil, err
	}
	poll := startPoller(rejuv.FleetzHandler(rig.f, nil), req, fleetPoll, clk, e.tr, layerHealthSnapshot)
	phase := e.length / (2 * timedCycles)
	for c := 0; c < timedCycles; c++ {
		before := rig.obs
		runtime.GC()
		_, el := runClosed(clk, phase, func(int) { rig.step(clk.Now()) })
		o.addClosed(rig.obs-before, el)
		o.addOpen(runOpen(clk, time.Second/fleetRate, phase, func(_ int, due time.Duration) { rig.step(due) }))

		// Replay the check-phase journal through fresh reference
		// detectors.
		runtime.GC()
		rig.trk.begin(layerJournalReplay, 0)
		t0 := time.Now()
		rep, err := rejuv.ReplayFleetJournal(rig.sink.reader(), classFactory(fleetClasses()))
		o.addReplay(int64(checkRecords), time.Since(t0))
		rig.trk.end()
		if c == 0 {
			o.expect("fleet journal replays identically", err == nil && rep.Identical() && rep.Observations == int(checkObs),
				"%d streams, %d observations, %d decisions, %d triggers (err %v, mismatch %v)",
				rep.Streams, rep.Observations, rep.Decisions, rep.Triggers, err, rep.Mismatch)
		}
	}
	poll.halt()
	o.fleetObs = rig.obs

	// Quiesce: every enqueued trigger delivered, every request executed.
	delivered := waitFor(10*time.Second, func() bool {
		return uint64(rig.delivered.Load()) == rig.f.Stats().Triggers
	})
	o.expect("fleet triggers delivered", delivered, "%d of %d", rig.delivered.Load(), rig.f.Stats().Triggers)
	idle := waitFor(10*time.Second, func() bool { return rig.sch.Queued() == 0 && rig.sch.Down(0) == 0 })
	o.expect("scheduler drained", idle, "%d queued, %d down", rig.sch.Queued(), rig.sch.Down(0))
	rig.close()

	st := rig.f.Stats()
	sst := rig.sch.Stats()
	var execs, giveups uint64
	for _, a := range rig.acts {
		as := a.Stats()
		execs += as.Executions
		giveups += as.GiveUps
	}
	o.expect("fleet counted every observation", st.Observations == uint64(rig.obs) && st.UnknownStreams == 0 && st.Rejected == 0,
		"%d observed of %d offered, %d unknown, %d rejected", st.Observations, rig.obs, st.UnknownStreams, st.Rejected)

	schedRecords, err := replaySched(o, rig.trk, rig.schedSink, rig.sch.Policy())
	if err != nil {
		return nil, err
	}

	o.digest = rig.sink.digest()
	if e.record {
		e.gold.Fleet = fleetGolden{JournalSHA256: o.digest, Records: checkRecords}
	}
	if e.checkGolden() {
		o.expect("fleet journal matches the committed digest",
			o.digest == e.gold.Fleet.JournalSHA256 && checkRecords == e.gold.Fleet.Records,
			"sha256 %s over %d records", o.digest, checkRecords)
	}
	spurious, detected := rig.judgeTriggers()
	if e.seed == defaultSeed {
		o.expect("every aging stream detected, none spuriously", detected == fleetReplicas && spurious == 0,
			"%d of %d aging streams detected in their first episode, %d spurious triggers", detected, fleetReplicas, spurious)
	}
	o.note("fleet: %d streams, %d batches of %d, %d aging streams detected in their first episode, %d spurious triggers",
		fleetStreams, rig.k, fleetBatch, detected, spurious)
	noteOpen(o, fleetRate)
	noteLatency(o)
	o.set("fleet.batch.calls", float64(rig.k))
	o.set("fleet.triggers", float64(st.Triggers))
	o.set("fleet.triggers_dropped", float64(st.DroppedTriggers))
	o.set("fleet.suppressed", float64(st.Suppressed))
	setPolls(o, poll, "health.snapshot.calls", "health.snapshot.busy_ms", "health.snapshot.p99_ms")
	o.set("journal.bytes", float64(rig.sink.bytes))
	o.set("journal.bytes_per_obs", float64(rig.sink.bytes)/float64(rig.obs))
	o.set("journal.write.calls", float64(rig.sink.writes))
	o.set("journal.replay.records", float64(o.replayRecords+schedRecords))
	o.set("sched.request.calls", float64(rig.delivered.Load()))
	setSched(o, sst)
	setWaits(o, &rig.waits, &rig.restores)
	o.set("actuator.executions", float64(execs))
	o.set("actuator.giveups", float64(giveups))

	o.attempted += int64(rig.k) + int64(len(poll.durs)) + rig.delivered.Load()
	o.failed += int64(st.DroppedTriggers+sst.Refused+sst.Saturated+giveups) + poll.bad

	rig.sink.release()
	o.heapMB = o.heapLiveMB()
	runtime.KeepAlive(rig)
	return o, nil
}

// judgeTriggers classifies the delivered triggers: a trigger outside
// every aging episode of its stream is spurious; a replica is detected
// when its first episode drew a trigger.
func (rig *fleetRig) judgeTriggers() (spurious, detected int) {
	first := make([]bool, fleetReplicas)
	for _, t := range rig.trigs {
		r := replicaOf(t.stream)
		ep := -1
		if rig.gen.agingID[r] == t.stream {
			ep = rig.gen.episodeOf(r, t.batch/fleetPerRound)
		}
		switch ep {
		case -1:
			spurious++
		case 0:
			first[r] = true
		}
	}
	for _, d := range first {
		if d {
			detected++
		}
	}
	return spurious, detected
}

// replaySched verifies a scheduler journal against the policy that
// wrote it, including the capacity budget, and returns its record
// count.
func replaySched(o *outcome, trk *track, sink *journalSink, policy rejuv.SchedulerPolicy) (int64, error) {
	trk.begin(layerJournalReplay, 0)
	defer trk.end()
	jr, err := rejuv.NewJournalReader(sink.reader())
	if err != nil {
		return 0, fmt.Errorf("reading scheduler journal: %w", err)
	}
	rep, err := rejuv.ReplaySchedJournal(jr, policy)
	budget := true
	for _, down := range rep.MaxDownSeen {
		budget = budget && down <= policy.MaxDown
	}
	o.expect("schedule replays identically within budget", err == nil && rep.Identical() && budget,
		"%d scheduler records, %d starts, max down %v of %d (err %v, mismatch %v)",
		rep.Records, rep.Starts, rep.MaxDownSeen, policy.MaxDown, err, rep.Mismatch)
	return int64(rep.Records), nil
}

// setPolls records a poller's call count, busy time and p99.
func setPolls(o *outcome, p *poller, calls, busy, p99 string) {
	ms := durationsIn(p.durs, time.Millisecond)
	sum := 0.0
	for _, d := range ms {
		sum += d
	}
	o.set(calls, float64(len(ms)))
	o.set(busy, sum)
	o.set(p99, percentile(sortedCopy(ms), 99))
}

// setSched records the scheduler census.
func setSched(o *outcome, s rejuv.SchedulerStats) {
	o.set("sched.started", float64(s.Starts))
	o.set("sched.coalesced", float64(s.Coalesced))
	o.set("sched.deferred", float64(s.Deferrals))
	o.set("sched.refused", float64(s.Refused+s.Saturated))
}

// setWaits records the scheduling-wait and restore percentiles.
func setWaits(o *outcome, waits, restores *samples) {
	w, r := waits.sorted(), restores.sorted()
	o.set("sched.wait_p50_ms", zeroIfNaN(percentile(w, 50)))
	o.set("sched.wait_p99_ms", zeroIfNaN(percentile(w, 99)))
	o.set("actuator.restore_p50_ms", zeroIfNaN(percentile(r, 50)))
	o.set("actuator.restore_p99_ms", zeroIfNaN(percentile(r, 99)))
}

// zeroIfNaN maps the percentile of no samples to zero.
func zeroIfNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// boolValue renders a flag metric.
func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
