// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time, checks every output for correctness and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off); with
// -trace 1 they are the per-layer ones from a traced run, and the spans
// are written to .bench_build/traces/. Run it through run.py from the
// root of a checkout; README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	_ "repro/internal/core" // registers the passes and named flows
)

// Each run sets its workload up at least minSetups times and goes on
// until the set-ups have taken setupBudget (at most maxSetups); setup_s is
// the median, so a slow first set-up does not decide it and a set-up of a
// few milliseconds still gets a steady median.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 2 * time.Second
)

// traceDir is where traced runs write their spans, relative to the
// checkout root.
const traceDir = ".bench_build/traces"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units (README.md gives each one's meaning per workload).
var endToEnd = []metricDef{
	{"compile_s", "s"},
	{"compile_geomean_ms", "ms"},
	{"aig_area", "count"},
	{"hit_p50_ms", "ms"},
	{"hit_p95_ms", "ms"},
	{"edit_p50_ms", "ms"},
	{"req_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	out := []metricDef{
		{"core.satmux_ms", "ms"}, {"core.oracle_queries", "count"}, {"core.mux_collapsed", "count"},
		{"infer.fact_hits", "count"}, {"infer.inference_hits", "count"},
		{"sim.filtered", "count"}, {"sim.vectors", "count"}, {"sim.filter_ratio", "ratio"},
		{"sat.calls", "count"}, {"sat.encodings", "count"}, {"sat.encode_reuse", "count"},
		{"sat.calls_per_query", "ratio"},
		{"core.rebuild_ms", "ms"}, {"core.trees_rebuilt", "count"},
		{"egraph.pass_ms", "ms"}, {"egraph.nodes", "count"}, {"egraph.rules_applied", "count"},
		{"egraph.iters", "count"}, {"cec.verified", "count"}, {"cec.rejected", "count"},
		{"cec.accept_ratio", "ratio"},
		{"opt.opt_expr_ms", "ms"}, {"opt.opt_clean_ms", "ms"}, {"opt.opt_dff_ms", "ms"},
		{"opt.pass_calls", "count"}, {"opt.cells_removed", "count"}, {"cec.seq_proved", "count"},
		{"rtlil.index_ms", "ms"}, {"rtlil.cells_in", "count"}, {"rtlil.cells_out", "count"},
		{"verilog.parse_ms", "ms"}, {"verilog.elaborate_ms", "ms"},
		{"rtlil.read_json_ms", "ms"}, {"rtlil.hash_ms", "ms"}, {"rtlil.write_json_ms", "ms"},
		{"rtlil.json_mb", "MB"},
		{"cache.hit_ratio", "ratio"}, {"cache.puts", "count"}, {"cache.bytes", "MB"},
		{"server.sync_p50_ms", "ms"}, {"server.queue_wait_p50_ms", "ms"},
		{"server.client_gap_ratio", "ratio"},
		{"aig.area_ms", "ms"},
		{"trace.overhead_ms", "ms"},
		{"check.counter_drift", "count"},
	}
	for _, c := range allCaseNames() {
		out = append(out, metricDef{"case." + c + ".compile_ms", "ms"})
	}
	return out
}()

// workload is one benchmark workload: set up (timed, repeated nsetup
// times), then measure for the given duration.
type workload interface {
	setup(seed int64, seconds float64) error
	measure(seconds float64, tr *tracer, rep *report) error
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	drifts            int // repeated compiles whose RunReport counters changed
	values            map[string]float64
	notes             []string // human-readable lines: sample counts, failures
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// op counts one checked operation; a non-nil err marks it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 20 {
			r.note("FAIL: %v", err)
		}
	}
}

// counterDrift records a repeated compile whose outputs checked out but
// whose RunReport counters changed (see counterDrift in compile.go); ""
// records nothing. Each drift is printed on standard error as it happens.
func (r *report) counterDrift(desc string) {
	if desc == "" {
		return
	}
	r.drifts++
	fmt.Fprintf(os.Stderr, "perfbench: DETERMINISM DEFECT: %s\n", desc)
	if r.drifts <= 20 {
		r.note("DRIFT: %s", desc)
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: table2_full, datapath_proofs or serve_mix")
	seed := flag.Int64("seed", 0, "input seed; 0 reproduces the committed recipe seeds")
	seconds := flag.Float64("seconds", 30, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	var w workload
	switch *name {
	case "table2_full":
		w = newTable2Full()
	case "datapath_proofs":
		w = newDatapathProofs()
	case "serve_mix":
		w = newServeMix()
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := run(w, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
}

func run(w workload, name string, seed int64, seconds float64, traced bool) error {
	rep := &report{values: map[string]float64{}}
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || len(setups) < maxSetups && spent < setupBudget {
		runtime.GC()
		start := time.Now()
		if err := w.setup(seed, seconds); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.note("%d set-ups", len(setups))

	tr := newTracer(traced)
	if err := w.measure(seconds, tr, rep); err != nil {
		return err
	}
	rep.set("peak_rss_mb", peakRSSMB())
	if err := tr.write(traceDir, name, seed); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}

	list := endToEnd
	if traced {
		list = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metric{}}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: rep.values[m.name], Unit: m.unit}
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	printHuman(name, seed, traced, rep, list)
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

func printHuman(name string, seed int64, traced bool, rep *report, list []metricDef) {
	fmt.Printf("workload %s seed %d traced %v: %d operations, %d failed (fail_ratio %.4f), %d counter drifts\n",
		name, seed, traced, rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)), rep.drifts)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(list))
	units := map[string]string{}
	for _, m := range list {
		names = append(names, m.name)
		units[m.name] = m.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.4f %s\n", n, rep.values[n], units[n])
	}
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
