package main

import (
	"net/http"
	"runtime"
	"sync"
	"time"
)

// respWriter is a reusable in-process http.ResponseWriter: it counts
// body bytes and remembers the status, so handlers run through
// ServeHTTP with no sockets.
type respWriter struct {
	h    http.Header
	code int
	n    int64
}

// newRespWriter returns an empty response writer.
func newRespWriter() *respWriter { return &respWriter{h: http.Header{}} }

// Header implements http.ResponseWriter.
func (w *respWriter) Header() http.Header { return w.h }

// Write implements http.ResponseWriter.
func (w *respWriter) Write(b []byte) (int, error) {
	w.n += int64(len(b))
	return len(b), nil
}

// WriteHeader implements http.ResponseWriter.
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// status returns the response status; a handler that never called
// WriteHeader answered 200.
func (w *respWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// reset prepares the writer for the next request.
func (w *respWriter) reset() {
	w.code = 0
	w.n = 0
	clear(w.h)
}

// poller is the second goroutine of a workload: it calls an HTTP
// handler at a fixed cadence and times each call.
type poller struct {
	stop chan struct{}
	done chan struct{}
	// Read the fields below only after halt returns.
	durs  []time.Duration
	bytes int64
	bad   int64 // responses other than 200
}

// startPoller calls h every interval until halt, each call a span of
// layer l on its own track.
func startPoller(h http.Handler, req *http.Request, every time.Duration, clk clock, tr *tracer, l layer) *poller {
	p := &poller{stop: make(chan struct{}), done: make(chan struct{})}
	trk := tr.newTrack()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		w := newRespWriter()
		for i := uint64(1); ; i++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			w.reset()
			t0 := clk.Now()
			trk.begin(l, i)
			h.ServeHTTP(w, req)
			trk.end()
			p.durs = append(p.durs, clk.Now()-t0)
			p.bytes += w.n
			if w.status() != http.StatusOK {
				p.bad++
			}
		}
	}()
	return p
}

// halt stops the poller and waits for its goroutine to exit.
func (p *poller) halt() {
	close(p.stop)
	<-p.done
}

// samples is a goroutine-safe list of measurements.
type samples struct {
	mu sync.Mutex
	xs []float64 // guarded by mu
}

// add appends one measurement.
func (s *samples) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

// sorted returns the measurements in ascending order.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedCopy(s.xs)
}

// waitFor polls cond every millisecond until it holds or timeout
// passes, and reports whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// heapLiveMB forces a garbage collection and returns the live heap in
// megabytes (10^6 bytes), less the benchmark's own sample arrays.
func (o *outcome) heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	own := 8 * (cap(o.latency) + cap(o.late))
	return float64(int64(ms.HeapAlloc)-int64(own)) / 1e6
}

// msOf converts a duration to float milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// noteOpen reports the open-loop phases: the rate, the generator's
// lateness and whether the backlog grew.
func noteOpen(o *outcome, rate int) {
	late := sortedCopy(durationsIn(o.late, time.Microsecond))
	o.note("open loop: %d phases, %d operations at %d/s; generator late p50 %.1f us, p99 %.1f us; backlog growing: %v",
		len(o.cycleRate), len(o.latency), rate, percentile(late, 50), percentile(late, 99), o.backlog)
	o.note("window medians: p50 %.4g us and p90 %.4g us over %d windows of %d, p99 %.4g us over %d windows of %d",
		median(o.winP50), median(o.winP90), len(o.winP50), tailWindow, median(o.winP99), len(o.winP99), p99Window)
	o.set("gen.late_p99_us", percentile(late, 99))
	o.set("gen.backlog_growing", boolValue(o.backlog))
}

// noteLatency reports the pooled latency samples of a pass: the
// median, p90, p99 and the highest percentile with at least ten
// samples beyond it, with the sample count.
func noteLatency(o *outcome) {
	lat := sortedCopy(o.latency)
	p, v, _ := tailPercentile(lat)
	o.note("pooled latency: p50 %.4g us, p90 %.4g us, p99 %.4g us, tail p%g %.4g us (n=%d, %d beyond)",
		percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), p, v, len(lat), beyond(p, len(lat)))
	o.note("closed-loop phase rates %.4g", o.cycleRate)
}
