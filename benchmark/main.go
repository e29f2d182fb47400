// Command rejuvbench is the repository's benchmark. It drives one of
// three workloads through the public rejuv API from a single process,
// checks the outputs against references, and prints every metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	rejuvbench --workload fleet-ingest --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// workload runs twice, untraced and then traced, and the metrics are
// the per-layer ones, including the tracing overhead. See README.md for
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed the committed reference values were
// recorded at.
const defaultSeed = 1

// env is what one pass of a workload runs with.
type env struct {
	seed   uint64
	length time.Duration
	// tr is nil for the untraced pass.
	tr *tracer
	// gold holds the committed reference values; record asks the pass
	// to fill it instead of checking against it.
	gold   *golden
	record bool
}

// checkGolden reports whether this pass compares against the committed
// reference values.
func (e env) checkGolden() bool { return e.seed == defaultSeed && !e.record }

// workload is one benchmark workload.
type workload struct {
	name string
	run  func(env) (*outcome, error)
	// procs, when positive, is the GOMAXPROCS the workload runs with.
	procs int
}

// workloads lists the benchmark's workloads; the names are final.
// sim-sweep is single-threaded and runs with one P: the garbage
// collector then works on the simulating core, so the pass measures the
// whole CPU cost of a replication, allocation included, and does not
// depend on how much of a second virtual CPU the host grants.
var workloads = []workload{
	{"fleet-ingest", runFleet, 0},
	{"monitor-http", runMonitor, 0},
	{"sim-sweep", runSim, 1},
}

func main() { os.Exit(run(os.Args[1:])) }

// run is the benchmark's entry point; it returns the exit code. The
// report goes to standard output, the result line last; errors go to
// standard error.
func run(args []string) int {
	fs := flag.NewFlagSet("rejuvbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fleet-ingest, monitor-http or sim-sweep")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per pass")
	trace := fs.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	commit := fs.String("commit", "unknown", "git commit of the tree under test, for the run metadata")
	update := fs.String("update-golden", "", "record the reference values of this workload at the default seed into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "rejuvbench: need --workload fleet-ingest|monitor-http|sim-sweep, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rejuvbench: %v\n", err)
		return 1
	}
	// A traced run measures two passes, untraced and traced, of half the
	// measured seconds each, so it takes as long as an untraced run.
	length := time.Duration(*seconds * float64(time.Second))
	if *trace == 1 {
		length /= 2
	}
	e := env{seed: *seed, length: length, gold: gold}
	if *update != "" {
		if *seed != defaultSeed {
			fmt.Fprintf(os.Stderr, "rejuvbench: reference values are recorded at seed %d\n", defaultSeed)
			return 2
		}
		e.record = true
	}

	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	meta := runMeta(w.name, *seed, *seconds, *trace, *commit)
	fmt.Printf("meta %s\n", meta)

	base, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rejuvbench: %s: %v\n", w.name, err)
		return 1
	}
	report("untraced pass", base)
	e2e := base.endToEndValues()
	printMetrics("end-to-end metrics (untraced pass)", endToEnd, e2e)
	errRate := float64(base.failed) / float64(base.attempted)
	fmt.Printf("  %-28s %16.6g %-6s n=%d\n", "error_rate", errRate, "1", base.attempted)

	if *update != "" {
		if !base.correct() {
			fmt.Fprintf(os.Stderr, "rejuvbench: not recording reference values from a failing run\n")
			return 1
		}
		if err := saveGolden(*update, gold); err != nil {
			fmt.Fprintf(os.Stderr, "rejuvbench: %v\n", err)
			return 1
		}
		fmt.Printf("recorded reference values in %s\n", *update)
	}

	if *trace == 0 {
		if err := writeResult(base.correct(), base.attempted, base.failed, endToEnd, e2e); err != nil {
			fmt.Fprintf(os.Stderr, "rejuvbench: %v\n", err)
			return 1
		}
		if !base.correct() {
			return 1
		}
		return 0
	}

	tr := newTracer()
	e.tr = tr
	traced, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rejuvbench: %s (traced): %v\n", w.name, err)
		return 1
	}
	traced.expect("traced pass reproduces the untraced output", traced.digest == base.digest,
		"untraced %s, traced %s", base.digest, traced.digest)
	st := tr.stats()
	traced.applyTrace(st)
	kept, dropped := tr.spanCounts()
	traced.set("trace.spans", float64(kept+dropped))
	// The overhead is the throughput lost to tracing, in percent of the
	// untraced pass.
	traced.set("trace.overhead_pct", 100*(1-traced.throughput()/base.throughput()))
	report("traced pass", traced)
	printLayerTable(st)
	printMetrics("end-to-end metrics (traced pass)", endToEnd, traced.endToEndValues())
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	if err := writeSpans(path, tr); err != nil {
		fmt.Fprintf(os.Stderr, "rejuvbench: %v\n", err)
		return 1
	}
	fmt.Printf("spans: %d kept in %s, %d more counted only\n", kept, path, dropped)
	printMetrics("per-layer metrics (traced pass)", perLayer, traced.layerValues())

	correct := base.correct() && traced.correct()
	attempted := base.attempted + traced.attempted
	failed := base.failed + traced.failed
	if err := writeResult(correct, attempted, failed, perLayer, traced.layerValues()); err != nil {
		fmt.Fprintf(os.Stderr, "rejuvbench: %v\n", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// report prints a pass's checks, notes and per-layer counts.
func report(title string, o *outcome) {
	fmt.Printf("%s\n", title)
	for _, n := range o.notes {
		fmt.Printf("  %s\n", n)
	}
	for _, c := range o.checks {
		verdict := "ok  "
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %s: %s\n", verdict, c.name, c.detail)
	}
	names := make([]string, 0, len(o.layer))
	for n := range o.layer {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.6g", n, o.layer[n])
	}
	fmt.Printf("  layers:%s\n", b.String())
}

// writeSpans dumps the tracer's spans as JSONL into path.
func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// runMeta renders the run metadata as one JSON-ish line: host, Go
// runtime, tree and run parameters.
func runMeta(name string, seed uint64, seconds float64, trace int, commit string) string {
	procs := runtime.GOMAXPROCS(0)
	// The fleet rounds GOMAXPROCS up to a power of two for its default
	// shard count.
	shards := 1 << int(math.Ceil(math.Log2(float64(procs))))
	return fmt.Sprintf(`{"workload":%q,"seed":%d,"seconds":%g,"trace":%d,"cpu":%q,"nproc":%d,"gomaxprocs":%d,"fleet_shards":%d,"go":%q,"commit":%q}`,
		name, seed, seconds, trace, cpuModel(), runtime.NumCPU(), procs, shards, runtime.Version(), commit)
}

// cpuModel returns the processor model name from /proc/cpuinfo, or
// "unknown" where that file is unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
