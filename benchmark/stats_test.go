package main

import (
	"math"
	"testing"
	"time"
)

// seq returns 1, 2, ..., n as float64.
func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct{ p, want float64 }{
		{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, c.p); got != c.want { //lint:allow floatcmp exact nearest-rank values
			t.Errorf("percentile(1..1000, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Errorf("percentile of no samples should be NaN")
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		wantP  float64
		beyond int
	}{
		{100_000, 99.99, 10},
		{10_000, 99.9, 10},
		{9_999, 99, 99},
		{1_000, 99, 10},
		{999, 95, 49},
		{100, 90, 10},
		{20, 50, 10},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if !ok || p != c.wantP || beyond(p, c.n) != c.beyond { //lint:allow floatcmp candidate percentiles are exact constants
			t.Errorf("n=%d: tail percentile p%g (ok %v, %d beyond), want p%g with %d beyond",
				c.n, p, ok, beyond(p, c.n), c.wantP, c.beyond)
		}
		if want := percentile(seq(c.n), p); v != want { //lint:allow floatcmp same computation
			t.Errorf("n=%d: tail value %g, want %g", c.n, v, want)
		}
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Errorf("19 samples leave fewer than 10 beyond the median; the rule should report nothing")
	}
	if !reportable(99, 1000) || reportable(99, 999) {
		t.Errorf("p99 needs exactly 1000 samples for 10 beyond")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 { //lint:allow floatcmp exact
		t.Errorf("median of 3 values = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 { //lint:allow floatcmp exact
		t.Errorf("median of 4 values = %g", got)
	}
}

// fakeClock is a clock that moves only when told: Sleep advances it,
// and so do the operations under test.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) Now() time.Duration    { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t += d }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{}
	// Operation 3 stalls for 3.5 intervals; the ones queued behind it
	// are charged the wait even though each takes only 200us itself.
	interval := time.Millisecond
	res := runOpen(clk, interval, 10*interval, func(i int, due time.Duration) {
		if due != time.Duration(i)*interval {
			t.Fatalf("op %d due at %v", i, due)
		}
		if i == 3 {
			clk.t += 3500 * time.Microsecond
		} else {
			clk.t += 200 * time.Microsecond
		}
	})
	want := []time.Duration{
		200 * time.Microsecond, 200 * time.Microsecond, 200 * time.Microsecond,
		3500 * time.Microsecond, // op 3 itself
		2700 * time.Microsecond, // due at 4ms, sent at 3.5ms+3ms=6.5ms, done 6.7ms
		1900 * time.Microsecond, // due 5ms, done 6.9ms
		1100 * time.Microsecond, // due 6ms, done 7.1ms
		300 * time.Microsecond,  // due 7ms, sent 7.1ms, done 7.3ms
		200 * time.Microsecond, 200 * time.Microsecond,
	}
	if len(res.Latency) != len(want) {
		t.Fatalf("%d operations, want %d", len(res.Latency), len(want))
	}
	for i := range want {
		if res.Latency[i] != want[i] {
			t.Errorf("op %d latency %v, want %v", i, res.Latency[i], want[i])
		}
	}
	if res.Late[4] != 2500*time.Microsecond || res.Late[8] != 0 {
		t.Errorf("generator lateness %v", res.Late)
	}
	if res.Backlog {
		t.Errorf("a transient stall is not a growing backlog")
	}
}

func TestOpenLoopDetectsGrowingBacklog(t *testing.T) {
	interval := time.Millisecond
	for _, c := range []struct {
		service time.Duration
		growing bool
	}{
		{900 * time.Microsecond, false},  // 90% busy: keeps up
		{1000 * time.Microsecond, false}, // exactly at capacity
		{1100 * time.Microsecond, true},  // 10% over capacity
		{2000 * time.Microsecond, true},
	} {
		clk := &fakeClock{}
		res := runOpen(clk, interval, 2*time.Second, func(int, time.Duration) { clk.t += c.service })
		if res.Backlog != c.growing {
			t.Errorf("service %v at interval %v: backlog growing %v, want %v", c.service, interval, res.Backlog, c.growing)
		}
	}
}

func TestOpenLoopStopsWhenFarBehind(t *testing.T) {
	clk := &fakeClock{}
	res := runOpen(clk, time.Millisecond, time.Second, func(int, time.Duration) { clk.t += 5 * time.Millisecond })
	if len(res.Latency) >= 1000 || res.Elapsed > 2*time.Second+5*time.Millisecond {
		t.Errorf("issued %d operations over %v; an overloaded phase must stop at twice its length", len(res.Latency), res.Elapsed)
	}
	if !res.Backlog {
		t.Errorf("5x overload must show a growing backlog")
	}
}

func TestClosedLoopRunsForLength(t *testing.T) {
	clk := &fakeClock{}
	n, el := runClosed(clk, 10*time.Millisecond, func(int) { clk.t += 3 * time.Millisecond })
	if n != 4 || el != 12*time.Millisecond {
		t.Errorf("closed loop ran %d operations in %v, want 4 in 12ms", n, el)
	}
}
