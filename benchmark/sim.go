package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"rejuv"
)

// sim-sweep: the paper's evaluation path. Replications of the §3
// e-commerce model under SRAA, SARAA and CLTA at a low, a middle and a
// high offered load (the x-axis of Figs. 9-16), then one journaled
// 4-host cluster run with leaky GC under ScheduledPolicy, whose
// schedule journal ReplaySchedJournal verifies.
const (
	// simTxns is the job size: transactions per replication, as in
	// cmd/figures -quick. Each is long enough that a millisecond stall
	// of the host moves its wall time by a few percent, not a multiple.
	simTxns     = 20_000
	simSetups   = 15
	simWarmTxns = 1_000
	// simConfigs is the number of (algorithm, load) pairs.
	simConfigs   = 9
	clusterHosts = 4
	clusterLoad  = 5.0 // CPUs offered per host
	clusterTxns  = 200_000
	clusterPause = 30.0
	// replayRounds is how many replays of the cluster journal one
	// replay timing covers, so replay_records_per_s times enough work
	// to be steady.
	replayRounds = 30
)

// simLoads is the offered load in CPUs (lambda/mu).
var simLoads = [3]float64{2, 6, 9}

// simAlgo is one detector of Fig. 16 over the paper's SLA baseline
// (mean 5 s, sd 5 s).
type simAlgo struct {
	name  string
	build func() (rejuv.Detector, error)
}

// paperBaseline is the SLA baseline of every simulation figure.
var paperBaseline = rejuv.Baseline{Mean: 5, StdDev: 5}

// simAlgos returns SRAA (n=2, K=5, D=3), SARAA (n=2, K=5, D=3) and
// CLTA (n=30, N=1.96), the three series of Fig. 16.
func simAlgos() [3]simAlgo {
	return [3]simAlgo{
		{"SRAA", func() (rejuv.Detector, error) {
			return rejuv.NewSRAA(rejuv.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: paperBaseline})
		}},
		{"SARAA", func() (rejuv.Detector, error) {
			return rejuv.NewSARAA(rejuv.SARAAConfig{InitialSampleSize: 2, Buckets: 5, Depth: 3, Baseline: paperBaseline})
		}},
		{"CLTA", func() (rejuv.Detector, error) {
			return rejuv.NewCLTA(rejuv.CLTAConfig{SampleSize: 30, Quantile: 1.96, Baseline: paperBaseline})
		}},
	}
}

// simJob returns replication j: the (algorithm, load) pair j mod 9 and
// random stream j+1.
func simJob(j int, seed uint64) (string, rejuv.SimulationConfig, func() (rejuv.Detector, error)) {
	algo := simAlgos()[j%3]
	load := simLoads[(j/3)%3]
	cfg := rejuv.SimulationConfig{ArrivalRate: load * 0.2, Transactions: simTxns, Seed: seed, Stream: uint64(j + 1)}
	return fmt.Sprintf("%s@%g", algo.name, load), cfg, algo.build
}

// simRun accumulates what the replications did.
type simRun struct {
	trk           *track
	clk           clock
	txns          int64
	reps          int64
	rejuvenations int64
	gcs           int64
	violations    int64 // replications with Completed + Lost > Arrived
}

// replicate runs replication j and returns its result and wall time.
func (s *simRun) replicate(j int, seed uint64) (string, rejuv.SimulationResult, time.Duration, error) {
	name, cfg, build := simJob(j, seed)
	det, err := build()
	if err != nil {
		return "", rejuv.SimulationResult{}, 0, err
	}
	det = timeDetector(det, s.trk)
	s.trk.begin(layerSimulate, uint64(j))
	t0 := s.clk.Now()
	res, err := rejuv.Simulate(cfg, det)
	el := s.clk.Now() - t0
	s.trk.end()
	if err != nil {
		return "", res, 0, fmt.Errorf("replication %d (%s): %w", j, name, err)
	}
	s.reps++
	s.txns += res.Completed + res.Lost
	s.rejuvenations += res.Rejuvenations
	s.gcs += res.GCs
	if res.Completed+res.Lost > res.Arrived {
		s.violations++
	}
	return name, res, el, nil
}

// goldenResult renders a replication result for the reference file.
func goldenResult(name string, r rejuv.SimulationResult) simResult {
	return simResult{
		Config: name, Arrived: r.Arrived, Completed: r.Completed, Lost: r.Lost,
		Rejuvenations: r.Rejuvenations, GCs: r.GCs,
		SimTime: strconv.FormatFloat(r.SimTime, 'g', -1, 64),
		AvgRT:   strconv.FormatFloat(r.AvgRT(), 'g', -1, 64),
	}
}

// simSetup constructs the nine check models and warms up with one
// short replication per algorithm at the middle load.
func simSetup(seed uint64) error {
	for j := 0; j < simConfigs; j++ {
		_, cfg, build := simJob(j, seed)
		det, err := build()
		if err != nil {
			return err
		}
		if _, err := rejuv.NewSimulation(cfg, det); err != nil {
			return err
		}
	}
	for j := 3; j < 6; j++ {
		_, cfg, build := simJob(j, seed)
		cfg.Transactions = simWarmTxns
		det, err := build()
		if err != nil {
			return err
		}
		if _, err := rejuv.Simulate(cfg, det); err != nil {
			return err
		}
	}
	return nil
}

// runSim runs one pass of sim-sweep.
func runSim(e env) (*outcome, error) {
	o := newOutcome()
	clk := wallClock{origin: time.Now()}
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		if err := simSetup(e.seed); err != nil {
			return nil, err
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}
	trk := e.tr.newTrack()
	s := &simRun{trk: trk, clk: clk}

	// Check phase: the nine reference replications and the cluster run.
	results := make([]simResult, 0, simConfigs)
	for j := 0; j < simConfigs; j++ {
		name, res, _, err := s.replicate(j, e.seed)
		if err != nil {
			return nil, err
		}
		results = append(results, goldenResult(name, res))
	}
	c, sink, jw, policy, cres, err := runCluster(e.seed, trk)
	if err != nil {
		return nil, err
	}
	clusterDigest := sink.digest()

	// replay times replayRounds replays of the cluster's schedule
	// journal; the first also checks it.
	replay := func(check bool) error {
		runtime.GC()
		trk.begin(layerJournalReplay, 0)
		defer trk.end()
		t0 := time.Now()
		for i := 0; i < replayRounds; i++ {
			jr, err := rejuv.NewJournalReader(sink.reader())
			if err != nil {
				return fmt.Errorf("reading cluster journal: %w", err)
			}
			rep, err := rejuv.ReplaySchedJournal(jr, policy)
			budget := true
			for _, down := range rep.MaxDownSeen {
				budget = budget && down <= policy.MaxDown
			}
			if check && i == 0 {
				o.expect("cluster schedule replays identically within budget",
					err == nil && rep.Identical() && budget && c.MaxDownSeen() <= policy.MaxDown,
					"%d scheduler records, %d starts, %d deferrals, max down %v of %d (err %v, mismatch %v)",
					rep.Records, rep.Starts, rep.Defers, rep.MaxDownSeen, policy.MaxDown, err, rep.Mismatch)
			}
		}
		o.addReplay(replayRounds*int64(jw.Seq()), time.Since(t0))
		return nil
	}

	// Timed cycles: replications round-robin over the nine pairs, each
	// one's wall time a latency sample, then a replay.
	next := simConfigs
	for cycle := 0; cycle < timedCycles; cycle++ {
		txns := s.txns
		var repErr error
		runtime.GC()
		_, el := runClosed(clk, e.length/timedCycles, func(int) {
			if repErr != nil {
				return
			}
			_, _, d, err := s.replicate(next, e.seed)
			next++
			if err != nil {
				repErr = err
				return
			}
			o.latency = append(o.latency, float64(d)/float64(time.Microsecond))
		})
		if repErr != nil {
			return nil, repErr
		}
		o.addClosed(s.txns-txns, el)
		if err := replay(cycle == 0); err != nil {
			return nil, err
		}
	}
	o.addWindows(o.latency)

	o.expect("Completed + Lost <= Arrived in every replication and the cluster",
		s.violations == 0 && cres.Completed+cres.Lost <= cres.Arrived,
		"%d of %d replications violate it; cluster arrived %d, completed %d, lost %d",
		s.violations, s.reps, cres.Arrived, cres.Completed, cres.Lost)
	if e.record {
		e.gold.Sim = simGolden{Results: results, ClusterJournalSHA256: clusterDigest}
	}
	if e.checkGolden() {
		same := len(results) == len(e.gold.Sim.Results)
		for i := 0; same && i < len(results); i++ {
			same = results[i] == e.gold.Sim.Results[i]
		}
		o.expect("check replications match the committed results", same, "%d replications", len(results))
		o.expect("cluster journal matches the committed digest", clusterDigest == e.gold.Sim.ClusterJournalSHA256,
			"sha256 %s over %d records", clusterDigest, jw.Seq())
	}
	b, err := json.Marshal(results)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(append(b, clusterDigest...))
	o.digest = hex.EncodeToString(sum[:])

	noteLatency(o)
	o.note("sim: %d replications of %d transactions, cluster of %d hosts: %d completed, %d lost, %d rejuvenations",
		s.reps, simTxns, clusterHosts, cres.Completed, cres.Lost, cres.Rejuvenations)
	o.set("journal.bytes", float64(sink.bytes))
	o.set("journal.bytes_per_obs", float64(sink.bytes)/float64(cres.Completed))
	o.set("journal.write.calls", float64(sink.writes))
	o.set("journal.replay.records", float64(o.replayRecords))
	o.set("ecommerce.simulate.calls", float64(s.reps))
	o.set("ecommerce.txns", float64(s.txns))
	o.set("ecommerce.cluster.txns", float64(cres.Completed+cres.Lost))
	o.set("ecommerce.rejuvenations", float64(s.rejuvenations+cres.Rejuvenations))
	o.set("ecommerce.gcs", float64(s.gcs+cres.GCs))
	o.attempted += s.reps + 1

	sink.release()
	o.heapMB = o.heapLiveMB()
	runtime.KeepAlive(c)
	return o, nil
}

// clusterSim is the part of the cluster model the benchmark drives.
type clusterSim interface {
	Journal(jw *rejuv.JournalWriter)
	Run() (rejuv.ClusterResult, error)
	SchedulerConfig() rejuv.SchedulerPolicy
	MaxDownSeen() int
}

// runCluster runs the journaled cluster simulation: 4 hosts at 5 CPUs
// offered each, leaky GC, SRAA per host, ScheduledPolicy with proactive
// partial actions and deadline-aware deferral, as in rejuvsim -cluster.
func runCluster(seed uint64, trk *track) (clusterSim, *journalSink, *rejuv.JournalWriter, rejuv.SchedulerPolicy, rejuv.ClusterResult, error) {
	pol := rejuv.ScheduledPolicy(clusterHosts, clusterPause)
	build := simAlgos()[0].build
	c, err := rejuv.NewClusterSimulation(rejuv.ClusterConfig{
		Hosts:             clusterHosts,
		Host:              rejuv.SimulationConfig{LeakyGC: true},
		ArrivalRate:       clusterHosts * clusterLoad * 0.2,
		Routing:           rejuv.RouteLeastActive,
		RejuvenationPause: clusterPause,
		Scheduler:         &pol,
		ProactiveLevel:    3,
		DeadlineAware:     true,
		Transactions:      clusterTxns,
		Seed:              seed,
	}, func(int) (rejuv.Detector, error) {
		d, err := build()
		return timeDetector(d, trk), err
	})
	if err != nil {
		return nil, nil, nil, pol, rejuv.ClusterResult{}, err
	}
	sink := newJournalSink(trk)
	jw := rejuv.NewJournalWriter(sink, rejuv.JournalMeta{
		CreatedBy: "rejuvbench", Detector: "SRAA (n=2, K=5, D=3)", Seed: seed, Notes: "sim-sweep cluster",
	})
	c.Journal(jw)
	trk.begin(layerCluster, 0)
	res, err := c.Run()
	trk.end()
	if err == nil {
		err = jw.Err()
	}
	return c, sink, jw, c.SchedulerConfig(), res, err
}
