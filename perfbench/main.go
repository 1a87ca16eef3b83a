// Command perfbench is the repository's benchmark. It runs registered
// scenarios through bench.ScenarioByName(...).RunWith(bench.Mechanisms), one
// at a time in this process, checks every run's OutcomeDigest, and reports
// the host cost of a workload: with --trace 0 the end-to-end metrics of
// untraced passes, with --trace 1 the per-layer metrics of traced passes
// (timed by wrapping the layers' public hooks). The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Usage (from the repository root, via run.py, which builds this program):
//
//	python3 perfbench/run.py --workload steady-twitch --seed 7 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricSpec struct{ name, unit string }

// endToEnd are the metrics of untraced passes; BENCHMARK.json lists the same.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"records_per_s", "rec/s"},
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of traced passes, named after the internal/
// package each layer is; BENCHMARK.json lists the same.
var perLayer = []metricSpec{
	{"simtime.events", "count"},
	{"simtime.events_per_record", "1/record"},
	{"simtime.loop_self_s", "s"},
	{"netsim.deliveries", "count"},
	{"netsim.delivered_mb", "MB"},
	{"engine.records_processed", "count"},
	{"engine.on_record_calls", "count"},
	{"engine.on_record_s", "s"},
	{"engine.on_watermark_calls", "count"},
	{"engine.on_watermark_s", "s"},
	{"engine.source_start_s", "s"},
	{"engine.source_s", "s"},
	{"dataflow.graph_build_s", "s"},
	{"cluster.build_s", "s"},
	{"bench.scenario_build_s", "s"},
	{"workload.stream_open_s", "s"},
	{"workload.arrivals", "count"},
	{"workload.next_s", "s"},
	{"state.bytes_end", "bytes"},
	{"scaling.operations", "count"},
	{"scaling.begin_s", "s"},
	{"scaling.kg_migrated", "count"},
	{"cluster.transfer_mb", "MB"},
	{"cluster.cross_rack_mb", "MB"},
	{"control.decisions", "count"},
	{"control.superseded", "count"},
	{"faults.crashes", "count"},
	{"faults.failed_transfers", "count"},
	{"faults.retried_transfers", "count"},
	{"faults.recovered_groups", "count"},
	{"faults.replayed_records", "count"},
	{"process.allocs", "count"},
	{"process.alloc_mb", "MB"},
	{"process.gc_cycles", "count"},
	{"process.gc_pause_s", "s"},
	{"metrics.sim_peak_latency_ms", "ms"},
	{"metrics.sim_avg_latency_ms", "ms"},
	{"core.sim_scaling_period_s", "s"},
	{"core.sim_suspension_ms", "ms"},
	{"core.sim_propagation_ms", "ms"},
	{"trace.wall_s", "s"},
	{"trace.accounted_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 0, "input seed (default: the workload's pinned seed)")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics of untraced passes; 1: per-layer metrics of traced passes")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory the traced passes' spans are written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = w.seed
	}

	heap := startHeapSampler()
	defer heap.close()
	ps := &passer{cases: w.cases(*seed), heap: heap, log: stderr}

	// The first pass is traced and unmeasured: it warms the process up and
	// gives the reference digests every measured pass must reproduce, so
	// each workload's traced and untraced digests are compared on any seed.
	warm := ps.pass(true, newTracer())
	attempted, failed := warm.attempted, warm.failed

	var plain, traced []passResult
	tr := newTracer()
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for len(plain) == 0 || time.Now().Before(deadline) {
		plain = append(plain, ps.pass(false, newTracer()))
		if *trace == 1 {
			traced = append(traced, ps.pass(true, tr))
		}
	}
	for _, r := range append(plain, traced...) {
		attempted += r.attempted
		failed += r.failed
	}
	correct := failed == 0

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d untraced and %d traced passes of %d runs each after one warm-up pass\n",
		w.name, *seed, len(plain), len(traced), len(ps.cases))
	if *trace == 0 {
		values := map[string][]float64{}
		for _, r := range plain {
			values["wall_s"] = append(values["wall_s"], r.wall.Seconds())
			values["cpu_s"] = append(values["cpu_s"], r.cpu.Seconds())
			values["records_per_s"] = append(values["records_per_s"], float64(r.records)/r.wall.Seconds())
			values["setup_s"] = append(values["setup_s"], r.setup.Seconds())
			values["peak_heap_mb"] = append(values["peak_heap_mb"], float64(r.peakHeap)/1e6)
		}
		report(stdout, res.Metrics, endToEnd, values)
	} else {
		values := map[string][]float64{}
		for _, r := range traced {
			// The hooks' self times must add up to the pass's wall time.
			var accounted float64
			for _, h := range hookSpecs {
				accounted += r.layers[selfTimeMetric(h.name)]
			}
			r.layers["trace.accounted_frac"] = accounted / r.layers["trace.wall_s"]
			if math.Abs(r.layers["trace.accounted_frac"]-1) > 1e-6 {
				fmt.Fprintf(stderr, "perfbench: self times account for %.6f of a traced pass's wall time\n", r.layers["trace.accounted_frac"])
				correct = false
			}
			for _, m := range perLayer {
				if !strings.HasPrefix(m.name, "process.") {
					values[m.name] = append(values[m.name], r.layers[m.name])
				}
			}
		}
		// Allocation and GC counts come from the untraced passes, which the
		// wrappers' own allocations do not disturb.
		var plainWall []float64
		for _, r := range plain {
			plainWall = append(plainWall, r.wall.Seconds())
			for _, m := range perLayer {
				if strings.HasPrefix(m.name, "process.") {
					values[m.name] = append(values[m.name], r.layers[m.name])
				}
			}
		}
		values["trace.overhead_frac"] = []float64{median(values["trace.wall_s"])/median(plainWall) - 1}
		report(stdout, res.Metrics, perLayer, values)
		if err := writeSpans(*outDir, w.name, *seed, ps.cases, tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%-28s %-14.6g ratio (%d of %d runs failed)\n", "failed_frac",
		float64(failed)/float64(attempted), failed, attempted)
	res.Correct = correct
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// report prints each metric's median and quartiles and records the median.
func report(w io.Writer, into map[string]metricValue, specs []metricSpec, values map[string][]float64) {
	for _, m := range specs {
		vs := values[m.name]
		q1, med, q3 := quartiles(vs)
		into[m.name] = metricValue{Value: med, Unit: m.unit}
		fmt.Fprintf(w, "%-28s %-14.6g %-8s [q1 %.6g, q3 %.6g, n %d]\n", m.name, med, m.unit, q1, q3, len(vs))
	}
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quartiles returns the first quartile, median and third quartile exactly as
// Python's statistics.quantiles(vs, n=4) computes them (its default
// exclusive method, which extrapolates for very small samples).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// writeSpans writes the traced passes' spans twice: as the tracer keeps them
// (spans-*.json) and as Chrome trace-event JSON (trace-*.json) for Perfetto.
func writeSpans(dir, name string, seed int64, cases []runCase, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	// Runs are numbered from 1 in case order, pass after pass.
	runNames := map[int]string{}
	for run := 1; run <= tr.run; run++ {
		c := cases[(run-1)%len(cases)]
		runNames[run] = fmt.Sprintf("%s/%s seed %d", c.scenario, c.mech, c.seed)
	}
	var raw, chrome bytes.Buffer
	if err := json.NewEncoder(&raw).Encode(map[string]any{
		"workload": name, "seed": seed, "runs": runNames, "spans": tr.spans,
	}); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := writeChrome(&chrome, tr.spans, runNames); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	base := fmt.Sprintf("%s-seed%d.json", name, seed)
	for name, buf := range map[string]*bytes.Buffer{"spans-" + base: &raw, "trace-" + base: &chrome} {
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
