package ecommerce

import (
	"testing"

	"rejuv/internal/core"
)

// fuzzDetector builds detector kind%4: none, SRAA, SARAA or CLTA, all on
// the paper's baseline.
func fuzzDetector(kind uint8) (core.Detector, error) {
	base := core.Baseline{Mean: 5, StdDev: 5}
	switch kind % 4 {
	case 1:
		return core.NewSRAA(core.SRAAConfig{SampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
	case 2:
		return core.NewSARAA(core.SARAAConfig{InitialSampleSize: 2, Buckets: 5, Depth: 3, Baseline: base})
	case 3:
		return core.NewCLTA(core.CLTAConfig{SampleSize: 15, Quantile: 1.96, Baseline: base})
	}
	return nil, nil
}

// FuzzConservation runs small random single-host models and clusters —
// servers, heap size, GC pause, rejuvenation pause and interval, bursts,
// leaky GC, detector or none — and checks that none panics and that
// every transaction is accounted for: arrived = completed + lost +
// in flight, with in flight the stations' queued and running threads.
func FuzzConservation(f *testing.F) {
	f.Add(uint8(15), uint8(40), uint8(60), uint8(0), uint16(0), uint8(0), false, uint8(1), uint8(9), uint8(0), uint64(1))
	f.Add(uint8(3), uint8(2), uint8(30), uint8(10), uint16(500), uint8(3), true, uint8(2), uint8(15), uint8(0), uint64(2))
	f.Add(uint8(7), uint8(10), uint8(5), uint8(20), uint16(0), uint8(0), true, uint8(3), uint8(12), uint8(3), uint64(3))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint16(50), uint8(4), false, uint8(0), uint8(19), uint8(2), uint64(4))
	f.Fuzz(func(t *testing.T, servers, heapSlots, gcPause, rejPause uint8, interval uint16,
		burst uint8, leaky bool, detector, load, hosts uint8, seed uint64) {
		cfg := Config{
			Servers: 1 + int(servers%16),
			// GC every 1..64 service starts: the heap holds that many
			// 10 MB allocations above the 100 MB threshold.
			HeapMB:               100 + 10*float64(1+heapSlots%64),
			GCPause:              float64(gcPause % 120),
			RejuvenationPause:    float64(rejPause % 60),
			RejuvenationInterval: float64(interval % 5000),
			LeakyGC:              leaky,
			Transactions:         400,
			Seed:                 seed,
		}
		if b := burst % 5; b > 1 {
			cfg.BurstFactor, cfg.BurstOn, cfg.BurstOff = float64(b), 60, 300
		}
		// Offered load from 0.2 to 2.1 times the CPU count.
		lambda := 0.2 * float64(cfg.Servers) * (0.2 + float64(load%20)/10)
		if n := int(hosts % 4); n > 0 {
			fuzzCluster(t, cfg, n, lambda, detector)
			return
		}
		cfg.ArrivalRate = lambda
		det, err := fuzzDetector(detector)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg, det)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, res, m.st)
	})
}

// fuzzCluster is FuzzConservation's cluster case: n hosts of cfg behind
// the router, with the host's rejuvenation pause as the restart cost.
func fuzzCluster(t *testing.T, cfg Config, n int, lambda float64, detector uint8) {
	c, err := NewCluster(ClusterConfig{
		Hosts:             n,
		Host:              cfg,
		ArrivalRate:       float64(n) * lambda,
		RejuvenationPause: cfg.RejuvenationPause,
		Transactions:      cfg.Transactions,
		Seed:              cfg.Seed,
	}, func(int) (core.Detector, error) { return fuzzDetector(detector) })
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, res.Result, c.stations...)
	var arrived, completed, lost int64
	for _, h := range res.PerHost {
		arrived += h.Arrived
		completed += h.Completed
		lost += h.Lost
	}
	if arrived != res.Arrived || completed != res.Completed || lost != res.Lost {
		t.Fatalf("per-host sums (%d, %d, %d) != totals (%d, %d, %d)",
			arrived, completed, lost, res.Arrived, res.Completed, res.Lost)
	}
}

// checkConservation asserts that the run spent its budget and that
// every arrival completed, was lost, or is still on a station.
func checkConservation(t *testing.T, res Result, stations ...*station) {
	t.Helper()
	var inFlight int64
	for _, st := range stations {
		inFlight += int64(st.active())
	}
	if res.Arrived != res.Completed+res.Lost+inFlight {
		t.Fatalf("conservation violated: arrived %d != completed %d + lost %d + in flight %d",
			res.Arrived, res.Completed, res.Lost, inFlight)
	}
	if res.Completed+res.Lost < 400 {
		t.Fatalf("run ended with %d transactions done, want >= 400", res.Completed+res.Lost)
	}
	if int64(res.RT.N()) != res.Completed {
		t.Fatalf("RT accumulator has %d samples, completed %d", res.RT.N(), res.Completed)
	}
}
