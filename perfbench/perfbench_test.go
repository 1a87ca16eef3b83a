package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/workload"
)

// TestPinsAgreeWithGoldenTable checks every pin against the golden test's
// table, and that every case of every workload's default seed is pinned.
func TestPinsAgreeWithGoldenTable(t *testing.T) {
	src, err := os.ReadFile("../internal/bench/golden_test.go")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[runCase]uint64{}
	re := regexp.MustCompile(`\{"([^"]+)", "([^"]+)", (-?\d+), (0x[0-9a-f]+)\}`)
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		seed, _ := strconv.ParseInt(m[3], 10, 64)
		want, _ := strconv.ParseUint(m[4][2:], 16, 64)
		golden[runCase{m[1], m[2], seed}] = want
	}
	for c, pin := range pins {
		if got, ok := golden[c]; !ok || got != pin {
			t.Errorf("%v: pinned %#016x here, golden table has %#016x (present %v)", c, pin, got, ok)
		}
	}
	for _, w := range workloads {
		for _, c := range w.cases(w.seed) {
			if _, ok := pins[c]; !ok {
				t.Errorf("workload %s: default case %v has no pin", w.name, c)
			}
		}
	}
}

// TestWrongPinCountsAsFailure runs a pinned case against a deliberately
// wrong pin.
func TestWrongPinCountsAsFailure(t *testing.T) {
	c := runCase{"node-loss-mid-migrate", "drrs", 1}
	right := pins[c]
	pins[c] = right ^ 1
	defer func() { pins[c] = right }()
	heap := startHeapSampler()
	defer heap.close()
	ps := &passer{cases: []runCase{c}, heap: heap, log: testLog{t}}
	if r := ps.pass(false, newTracer()); r.failed != 1 || r.attempted != 1 {
		t.Fatalf("wrong pin: %d of %d runs failed, want 1 of 1", r.failed, r.attempted)
	}
}

// TestTracedDigestsMatchUntraced runs each workload's default seed traced,
// then untraced: both must reproduce the pins, so the wrappers change
// nothing the simulation computes.
func TestTracedDigestsMatchUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	heap := startHeapSampler()
	defer heap.close()
	for _, w := range workloads {
		ps := &passer{cases: w.cases(w.seed), heap: heap, log: testLog{t}}
		traced := ps.pass(true, newTracer())
		plain := ps.pass(false, newTracer())
		if traced.failed+plain.failed != 0 {
			t.Errorf("%s: %d traced and %d untraced runs failed", w.name, traced.failed, plain.failed)
		}
		for i := range traced.digests {
			if traced.digests[i] != plain.digests[i] {
				t.Errorf("%s case %d: traced digest %#016x, untraced %#016x", w.name, i, traced.digests[i], plain.digests[i])
			}
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

type plainSourceContext struct{ dataflow.SourceContext }

type pumpingSourceContext struct{ dataflow.SourceContext }

func (pumpingSourceContext) IngestNow(*netsim.Record) {}

// TestWrappersKeepCapabilities checks that a wrapped logic or source context
// offers an optional interface exactly when the wrapped one does.
func TestWrappersKeepCapabilities(t *testing.T) {
	tr := newTracer()
	if _, ok := wrapLogic(&engine.KeyedReduceLogic{}, tr).(dataflow.Binder); !ok {
		t.Error("wrapped KeyedReduceLogic lost dataflow.Binder")
	}
	if _, ok := wrapLogic(engine.NewCollectSink(), tr).(dataflow.Binder); ok {
		t.Error("wrapped CollectSink gained dataflow.Binder")
	}
	if _, ok := wrapSourceContext(pumpingSourceContext{}, tr).(dataflow.SourcePump); !ok {
		t.Error("wrapped source context lost dataflow.SourcePump")
	}
	if _, ok := wrapSourceContext(plainSourceContext{}, tr).(dataflow.SourcePump); ok {
		t.Error("wrapped source context gained dataflow.SourcePump")
	}
	var _ workload.Traffic = &tracedTraffic{}
}

// TestSpansSelfTimeAndChrome checks folding, self time and the Chrome
// export on a hand-made call tree.
func TestSpansSelfTimeAndChrome(t *testing.T) {
	tr := newTracer()
	tr.beginRun()
	tr.enter(hRun)
	for i := 0; i < 3; i++ {
		tr.enter(hOnRecord)
		tr.exit()
	}
	tr.enter(hBegin)
	tr.exit()
	tr.exit()
	if len(tr.stack) != 0 || len(tr.spans) != 3 {
		t.Fatalf("%d open frames and %d spans, want 0 and 3 (run, folded on_record, begin)", len(tr.stack), len(tr.spans))
	}
	run, rec, begin := tr.spans[0], tr.spans[1], tr.spans[2]
	if rec.Calls != 3 || rec.Parent != 0 || begin.Parent != 0 {
		t.Errorf("on_record span: %d calls under %d; begin under %d", rec.Calls, rec.Parent, begin.Parent)
	}
	if run.Child != rec.Busy+begin.Busy {
		t.Errorf("run child time %d, want %d", run.Child, rec.Busy+begin.Busy)
	}
	var self int64
	for i := range tr.spans {
		self += tr.spans[i].self()
	}
	if self != run.Busy {
		t.Errorf("self times sum to %d, run took %d", self, run.Busy)
	}

	var buf jsonBuffer
	if err := writeChrome(&buf, tr.spans, map[int]string{1: "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != 3 {
		t.Errorf("%d Chrome slices, want 3", slices)
	}
}

type jsonBuffer []byte

func (b *jsonBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// TestBenchmarkJSONMatches checks BENCHMARK.json against the workloads and
// metric tables this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	src, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(src, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(pair.json) != len(pair.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(pair.json), len(pair.specs))
			continue
		}
		for i, m := range pair.json {
			if m.Name != pair.specs[i].name || m.Unit != pair.specs[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] here", i, m.Name, m.Unit, pair.specs[i].name, pair.specs[i].unit)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
