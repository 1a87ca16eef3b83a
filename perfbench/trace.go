package main

import (
	"encoding/json"
	"io"
	"time"
)

// A span is one timed interval of one scenario run. Setup hooks (one call
// each) get a span per call. Per-record hooks would make millions of spans
// a run, so a hook marked fold shares one span among its consecutive calls
// under the same parent within foldWindow: Start is the first call, End the
// last, Calls how many, Busy the time spent inside them.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Folded bool   `json:"folded"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
	// Child is the part of Busy that child spans cover.
	Child int64 `json:"child_ns"`
}

// self is the span's time minus the time its children cover.
func (s *span) self() int64 { return s.Busy - s.Child }

// foldWindow bounds how long one folded span collects calls, so the Chrome
// trace still shows where in a run a hook was busy.
const foldWindow = int64(10 * time.Millisecond)

// hookKind names one wrapped public hook; its span name is the layer
// (internal/ package) the hook belongs to.
type hookKind int

const (
	hScenarioBuild hookKind = iota // bench.ScenarioByName
	hRun                           // Scenario.RunWith
	hGraphBuild                    // Scenario.Build (or workload.BuildJob)
	hClusterBuild                  // Scenario.Cluster
	hStreamOpen                    // workload.Traffic.Stream
	hNext                          // workload.Stream.Next
	hSourceStart                   // OperatorSpec.Source, called once at start
	hSource                        // the callbacks a source schedules
	hOnRecord                      // dataflow.Logic.OnRecord
	hOnWatermark                   // dataflow.Logic.OnWatermark
	hBegin                         // scaling.Mechanism.Begin
	numHooks
)

var hookSpecs = [numHooks]struct {
	name string
	fold bool
}{
	hScenarioBuild: {"bench.scenario_build", false},
	hRun:           {"bench.run", false},
	hGraphBuild:    {"dataflow.graph_build", false},
	hClusterBuild:  {"cluster.build", false},
	hStreamOpen:    {"workload.stream_open", false},
	hNext:          {"workload.next", true},
	hSourceStart:   {"engine.source_start", false},
	hSource:        {"engine.source", true},
	hOnRecord:      {"engine.on_record", true},
	hOnWatermark:   {"engine.on_watermark", true},
	hBegin:         {"scaling.begin", false},
}

type frame struct {
	span  int
	start int64
}

// tracer keeps the spans of every run it timed in memory. It is used from
// the simulation goroutine only.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	stack []frame
	// last is, per hook, the folded span its previous call went into.
	last [numHooks]int
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginRun starts a new run id; the spans entered until the next call share it.
func (t *tracer) beginRun() { t.run++ }

// enter opens a span of hook h as a child of the innermost open span.
func (t *tracer) enter(h hookKind) {
	now := t.now()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].span
	}
	spec := hookSpecs[h]
	i := t.last[h]
	if !spec.fold || i < 0 || t.spans[i].Parent != parent || t.spans[i].Run != t.run || now-t.spans[i].Start >= foldWindow {
		i = len(t.spans)
		t.spans = append(t.spans, span{Name: spec.name, Run: t.run, ID: i, Parent: parent, Folded: spec.fold, Start: now})
		if spec.fold {
			t.last[h] = i
		}
	}
	t.stack = append(t.stack, frame{span: i, start: now})
}

// exit closes the innermost open span and charges its time to its parent.
func (t *tracer) exit() {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[f.span]
	d := now - f.start
	s.Calls++
	s.Busy += d
	s.End = now
	if s.Parent >= 0 {
		t.spans[s.Parent].Child += d
	}
}

// traceEvent is one Chrome trace-event record (the JSON Perfetto and
// chrome://tracing load).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes spans as Chrome trace-event JSON: one process per run
// (named by runNames),
// single-call spans nested on thread 0, and each folded hook on a thread of
// its own, drawn as a slice as long as the time its calls were busy.
func writeChrome(w io.Writer, spans []span, runNames map[int]string) error {
	var events []traceEvent
	tids := map[string]int{}
	named := map[[2]int]bool{}
	for _, s := range spans {
		tid := 0
		if s.Folded {
			if tids[s.Name] == 0 {
				tids[s.Name] = len(tids) + 1
			}
			tid = tids[s.Name]
		}
		if !named[[2]int{s.Run, -1}] {
			named[[2]int{s.Run, -1}] = true
			events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: s.Run,
				Args: map[string]any{"name": runNames[s.Run]}})
		}
		if !named[[2]int{s.Run, tid}] {
			named[[2]int{s.Run, tid}] = true
			name := "spans"
			if s.Folded {
				name = s.Name
			}
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: s.Run, Tid: tid,
				Args: map[string]any{"name": name}})
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: s.Run, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Busy) / 1e3,
			Args: map[string]any{"calls": s.Calls, "self_us": float64(s.self()) / 1e3, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
