package main

import (
	"time"
)

// clock is the time source of the load generators: Now is a monotonic
// reading since an arbitrary origin and Sleep blocks for (at least) d.
// The wall clock drives real runs; tests drive the generators with a
// fake one.
type clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// timedCycles is how many cycles a pass splits its measured seconds
// into. A cycle is a closed-loop phase, an open-loop phase (where the
// workload has one) and one timed replay of the journal. Interleaving
// them, and reporting medians over cycles, spreads outside interference
// over every metric instead of letting one burst, or one slow minute of
// the host, decide one of them. Each closed-loop phase and each replay
// starts after a forced garbage collection, so it does not pay for
// garbage an earlier phase left behind.
const timedCycles = 10

// spinWindow is how close to a due time the wall clock stops sleeping
// and spins: Go timers can wake hundreds of microseconds late on a
// virtual machine, which would show up as generator lateness at the
// millisecond intervals the open loops use. The generator goroutine
// therefore spins between operations; the other goroutines of a
// workload run on the remaining cores.
const spinWindow = 2 * time.Millisecond

// wallClock reads the monotonic wall clock relative to origin.
type wallClock struct{ origin time.Time }

// Now implements clock.
func (c wallClock) Now() time.Duration { return time.Since(c.origin) }

// Sleep implements clock: it sleeps until spinWindow before the target
// and spins the rest, so waits end within a few hundred nanoseconds of
// the target.
func (c wallClock) Sleep(d time.Duration) {
	target := c.Now() + d
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for c.Now() < target {
	}
}

// openResult is the record of one open-loop phase.
type openResult struct {
	// Latency holds, per operation, completion time minus due time.
	Latency []time.Duration
	// Late holds, per operation, send time minus due time: how far the
	// generator ran behind its schedule.
	Late []time.Duration
	// Elapsed is the wall time of the phase.
	Elapsed time.Duration
	// Backlog reports a steadily growing backlog (see backlogGrowing).
	Backlog bool
}

// runOpen is the open-loop generator: operation i is due at
// start + i*interval regardless of how long earlier operations took,
// and its latency is timed from that due time, so a stall is charged
// to every operation it delays. It issues length/interval operations,
// or stops early once the phase has overrun its length twice over
// (which only a backlog can cause). op receives the operation index and
// its due time on clk.
func runOpen(clk clock, interval, length time.Duration, op func(i int, due time.Duration)) openResult {
	n := int(length / interval)
	res := openResult{
		Latency: make([]time.Duration, 0, n),
		Late:    make([]time.Duration, 0, n),
	}
	start := clk.Now()
	for i := 0; i < n; i++ {
		due := start + time.Duration(i)*interval
		now := clk.Now()
		if now < due {
			clk.Sleep(due - now)
		} else if now-start > 2*length {
			break
		}
		sent := clk.Now()
		op(i, due)
		done := clk.Now()
		res.Late = append(res.Late, sent-due)
		res.Latency = append(res.Latency, done-due)
	}
	res.Elapsed = clk.Now() - start
	res.Backlog = backlogGrowing(res.Late, interval, length)
	return res
}

// runClosed is the closed-loop generator: one caller issues operation
// i+1 as soon as operation i returns, until length has elapsed. It
// returns the number of operations completed and the wall time they
// took.
func runClosed(clk clock, length time.Duration, op func(i int)) (int, time.Duration) {
	start := clk.Now()
	i := 0
	for clk.Now()-start < length {
		op(i)
		i++
	}
	return i, clk.Now() - start
}
