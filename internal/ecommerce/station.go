package ecommerce

import (
	"rejuv/internal/des"
	"rejuv/internal/journal"
	"rejuv/internal/xrand"
)

// station is the serving machinery of one host: CPUs, FCFS queue, heap
// and GC state. The single-host Model wraps one station; Cluster wraps
// several behind a router. The owner supplies the completion callback
// and decides when to rejuvenate.
type station struct {
	cfg     Config
	sim     *des.Simulator
	rng     *xrand.Rand
	service func(*xrand.Rand) float64 // processing-time sampler

	freeCPUs int
	// queue holds the arrival times of queued threads, FIFO; live
	// entries are queue[queueHead:].
	queue     []float64
	queueHead int
	// jobs is the arena of threads in service, one job per CPU; free
	// jobs form a list threaded through job.next. running lists the
	// jobs in service, and a completion event carries its job's index,
	// so starting and finishing a transaction allocates nothing.
	jobs     []job
	freeJob  int // index of the first free job, -1 when none
	running  []int
	heapMB   float64
	gcActive bool
	gcEnd    des.Event

	gcs int64
	// virtualAge is the station's accumulated aging in the Kijima sense:
	// every full GC adds its stall to the age, a partial rejuvenation
	// rolls back a fraction ρ of it, a full one resets it to zero.
	virtualAge float64

	// met is nil unless the owning model was instrumented; jw is nil
	// unless it was journaled.
	met *stationMetrics
	jw  *journal.Writer

	// onComplete receives the response time of every completed job.
	onComplete func(rt float64)
	// completeH and gcEndH are the station's event handlers, bound once
	// so scheduling them allocates nothing.
	completeH, gcEndH des.Handler
}

// job is one transaction in service on a station.
type job struct {
	arrival    float64
	completion des.Event
	slot       int // index in station.running while in service
	next       int // free-list link while the job is free
}

// newStation returns a station with all CPUs free and a full heap. cfg
// must already be defaulted and validated.
func newStation(cfg Config, sim *des.Simulator, rng *xrand.Rand, onComplete func(rt float64)) *station {
	sampler, err := cfg.ServiceDistribution.sampler(cfg.ServiceRate)
	if err != nil {
		// Unreachable: Validate checked the distribution already.
		panic(err)
	}
	s := &station{
		cfg:        cfg,
		sim:        sim,
		rng:        rng,
		service:    sampler,
		freeCPUs:   cfg.Servers,
		jobs:       make([]job, cfg.Servers),
		freeJob:    -1,
		running:    make([]int, 0, cfg.Servers),
		heapMB:     cfg.HeapMB,
		onComplete: onComplete,
	}
	for j := range s.jobs {
		s.releaseJob(j)
	}
	s.completeH, s.gcEndH = s.complete, s.endGC
	return s
}

// active returns the number of threads on the station (queued + running),
// the paper's "threads executing in parallel" count.
func (s *station) active() int { return s.queueLen() + len(s.running) }

// queueLen returns the number of queued threads.
func (s *station) queueLen() int { return len(s.queue) - s.queueHead }

// gcCount returns the number of full garbage collections so far.
func (s *station) gcCount() int64 { return s.gcs }

// arrive is paper step 2: a new thread queues for a CPU. serve is false
// while the owner holds the station out of service; the thread then
// waits until the owner calls tryStart.
func (s *station) arrive(serve bool) {
	s.queue = append(s.queue, s.sim.Now()) //lint:allow hotpath the queue's array grows to the peak backlog, then tryStart compacts it in place (pinned by TestSimulateSteadyStateDoesNotAllocate)
	if serve {
		s.tryStart()
	}
	s.noteState()
}

// releaseJob returns job j to the free list.
func (s *station) releaseJob(j int) {
	s.jobs[j] = job{next: s.freeJob}
	s.freeJob = j
}

// tryStart moves queued threads onto free CPUs. Nothing starts during a
// stop-the-world GC stall.
func (s *station) tryStart() {
	for s.freeCPUs > 0 && !s.gcActive && s.queueLen() > 0 {
		arrival := s.queue[s.queueHead]
		s.queueHead++
		// Reclaim the dead prefix once it dominates the backing array,
		// keeping dequeue amortized O(1) without unbounded growth.
		if s.queueHead > 64 && s.queueHead*2 >= len(s.queue) {
			s.queue = s.queue[:copy(s.queue, s.queue[s.queueHead:])]
			s.queueHead = 0
		}
		s.startService(arrival)
	}
}

// startService is paper steps 3–6: sample the processing time, apply
// kernel overhead, seize a CPU, allocate memory, and possibly trigger a
// full GC.
func (s *station) startService(arrival float64) {
	s.freeCPUs--
	service := s.service(s.rng)
	if !s.cfg.DisableOverhead && s.active() > s.cfg.OverheadThreshold {
		service *= s.cfg.OverheadFactor
	}
	// A free CPU means a free job; running never outgrows the Servers
	// capacity it was made with.
	j := s.freeJob
	s.freeJob = s.jobs[j].next
	n := len(s.running)
	s.running = s.running[:n+1]
	s.running[n] = j
	s.jobs[j] = job{
		arrival:    arrival,
		completion: s.sim.Schedule(service, s.completeH, j),
		slot:       n,
	}

	if !s.cfg.DisableGC {
		s.heapMB -= s.cfg.AllocMB
		if s.heapMB < s.cfg.GCThresholdMB && !s.gcActive {
			s.startGC()
		}
	}
}

// delayRunning pushes every running thread's completion back by d
// seconds: the threads survive a stall, delayed.
func (s *station) delayRunning(d float64) {
	for _, r := range s.running {
		c := s.jobs[r].completion
		s.sim.Reschedule(c, s.sim.Time(c)+d)
	}
}

// startGC is paper step 6: a full collection stalls every running thread
// (including the one whose allocation tripped it) for GCPause seconds;
// when it finishes the heap is whole again.
func (s *station) startGC() {
	s.gcs++
	s.gcActive = true
	s.virtualAge += s.cfg.GCPause
	if s.met != nil {
		s.met.gcStalls.Inc()
	}
	if s.jw != nil {
		s.jw.GCStart(s.sim.Now(), s.heapMB)
	}
	s.delayRunning(s.cfg.GCPause)
	s.gcEnd = s.sim.Schedule(s.cfg.GCPause, s.gcEndH, 0)
}

// endGC ends a full collection's stall and restarts service.
func (s *station) endGC(*des.Simulator, int) {
	s.gcActive = false
	s.gcEnd = des.Event{}
	if !s.cfg.LeakyGC {
		s.heapMB = s.cfg.HeapMB
	}
	if s.jw != nil {
		s.jw.GCEnd(s.sim.Now(), s.heapMB)
	}
	s.tryStart()
	s.noteState()
}

// complete is paper step 7: free the CPU, compute the response time,
// hand it to the owner, then admit the next queued thread. The owner's
// callback runs before the next admission so a rejuvenation it performs
// clears the queue first.
//
//lint:hotpath
func (s *station) complete(_ *des.Simulator, j int) {
	s.removeRunning(j)
	s.freeCPUs++
	if s.met != nil {
		s.met.completed.Inc()
	}
	rt := s.sim.Now() - s.jobs[j].arrival
	s.releaseJob(j)
	s.onComplete(rt)
	s.tryStart()
	s.noteState()
}

// removeRunning drops job j from the running set in O(1) by swapping
// with the last element.
func (s *station) removeRunning(j int) {
	last := len(s.running) - 1
	other, slot := s.running[last], s.jobs[j].slot
	s.running[slot] = other
	s.jobs[other].slot = slot
	s.running = s.running[:last]
}

// rejuvenate implements the paper's rejuvenation routine on this
// station: every thread is terminated, CPU and memory queues are
// cleared, and the heap is restored. It returns the number of killed
// transactions.
func (s *station) rejuvenate() int {
	killed := s.active()
	for _, r := range s.running {
		s.sim.Cancel(s.jobs[r].completion)
		s.releaseJob(r)
	}
	s.running = s.running[:0]
	s.queue = s.queue[:0]
	s.queueHead = 0
	s.freeCPUs = s.cfg.Servers
	s.heapMB = s.cfg.HeapMB
	s.sim.Cancel(s.gcEnd)
	s.gcEnd = des.Event{}
	s.gcActive = false
	s.virtualAge = 0
	s.noteState()
	return killed
}

// rejuvenatePartial is the Kijima-style partial action: instead of
// killing every thread, it restores a fraction rho of the consumed heap
// and rolls the virtual age back to (1−ρ)·V, stalling running threads
// for the action's pause (they survive, delayed — exactly like a GC
// stall). rho ≥ 1 degenerates to the full rejuvenation routine. It
// returns the number of killed transactions (always 0 for a partial
// action).
func (s *station) rejuvenatePartial(rho, pause float64) int {
	if rho >= 1 {
		return s.rejuvenate()
	}
	s.heapMB += rho * (s.cfg.HeapMB - s.heapMB)
	s.virtualAge *= 1 - rho
	if pause > 0 {
		s.delayRunning(pause)
		if s.sim.Pending(s.gcEnd) {
			s.sim.Reschedule(s.gcEnd, s.sim.Time(s.gcEnd)+pause)
		}
	}
	s.noteState()
	return 0
}
