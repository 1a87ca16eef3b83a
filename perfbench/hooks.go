package main

import (
	"drrs/internal/bench"
	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/scaling"
	"drrs/internal/simtime"
	"drrs/internal/workload"
)

// probe is what one instrumented scenario run leaves behind for the checks
// and the layer counters: the live runtime Inspect saw, and the arrivals the
// wrapped traffic streams yielded.
type probe struct {
	rt       *engine.Runtime
	arrivals int64
}

// instrument wraps sc's public hooks in place. Untraced, only the set-up
// hooks are timed, once per call: Build, Cluster, each source's start call
// and Traffic.Stream; the simulation itself runs unwrapped. Traced, every
// operator's logic, the callbacks its sources schedule, every traffic stream
// and the mechanisms are wrapped as well. Every wrapper keeps the optional
// capabilities of what it wraps.
func instrument(sc *bench.Scenario, tr *tracer, traced bool) *probe {
	p := &probe{}
	build := sc.Build
	if sc.Traffic != nil {
		// The scenario's traffic is built the way RunWith builds it
		// (workload.BuildJob over Job and Traffic), behind a Build closure so
		// the graph build can be timed like a custom generator's.
		job, traffic := sc.Job, &tracedTraffic{inner: sc.Traffic, tr: tr, p: p, traced: traced}
		build = func(int64) (*dataflow.Graph, *engine.CollectSink) { return workload.BuildJob(job, traffic) }
		sc.Traffic = nil
	}
	sc.Build = func(seed int64) (*dataflow.Graph, *engine.CollectSink) {
		tr.enter(hGraphBuild)
		g, sink := build(seed)
		tr.exit()
		wrapOperators(g, tr, traced)
		return g, sink
	}
	if newCluster := sc.Cluster; newCluster != nil {
		sc.Cluster = func(s *simtime.Scheduler) *cluster.Cluster {
			tr.enter(hClusterBuild)
			defer tr.exit()
			return newCluster(s)
		}
	}
	inspect := sc.Inspect
	sc.Inspect = func(rt *engine.Runtime, out *bench.Outcome) {
		p.rt = rt
		if inspect != nil {
			inspect(rt, out)
		}
	}
	return p
}

// mechanisms is the mechanism factory handed to RunWith; traced, it wraps
// each mechanism so Begin is timed.
func mechanisms(name string, tr *tracer, traced bool) func() scaling.Mechanism {
	return func() scaling.Mechanism {
		m := bench.Mechanisms(name)
		if m == nil || !traced {
			return m
		}
		return &tracedMechanism{inner: m, tr: tr}
	}
}

type tracedMechanism struct {
	inner scaling.Mechanism
	tr    *tracer
}

func (m *tracedMechanism) Name() string { return m.inner.Name() }

func (m *tracedMechanism) Begin(rt *engine.Runtime, plan scaling.Plan, done func()) scaling.Operation {
	m.tr.enter(hBegin)
	defer m.tr.exit()
	return m.inner.Begin(rt, plan, done)
}

// wrapOperators times every source's start call; traced, it also wraps the
// context sources schedule their work through, and every operator's logic.
func wrapOperators(g *dataflow.Graph, tr *tracer, traced bool) {
	for _, name := range g.Topological() {
		spec := g.Operator(name)
		if src := spec.Source; src != nil {
			spec.Source = func(ctx dataflow.SourceContext) {
				tr.enter(hSourceStart)
				if traced {
					ctx = wrapSourceContext(ctx, tr)
				}
				src(ctx)
				tr.exit()
			}
		}
		if newLogic := spec.NewLogic; traced && newLogic != nil {
			spec.NewLogic = func() dataflow.Logic { return wrapLogic(newLogic(), tr) }
		}
	}
}

type tracedLogic struct {
	inner dataflow.Logic
	tr    *tracer
}

func (l *tracedLogic) OnRecord(ctx dataflow.OpContext, r *netsim.Record) {
	l.tr.enter(hOnRecord)
	l.inner.OnRecord(ctx, r)
	l.tr.exit()
}

func (l *tracedLogic) OnWatermark(ctx dataflow.OpContext, wm simtime.Time) {
	l.tr.enter(hOnWatermark)
	l.inner.OnWatermark(ctx, wm)
	l.tr.exit()
}

// binderLogic is a tracedLogic around a logic that implements
// dataflow.Binder, so the engine still binds it.
type binderLogic struct{ tracedLogic }

func (l *binderLogic) Bind(ctx dataflow.OpContext) { l.inner.(dataflow.Binder).Bind(ctx) }

func wrapLogic(inner dataflow.Logic, tr *tracer) dataflow.Logic {
	if _, ok := inner.(dataflow.Binder); ok {
		return &binderLogic{tracedLogic{inner: inner, tr: tr}}
	}
	return &tracedLogic{inner: inner, tr: tr}
}

// tracedSourceContext times the callbacks a source schedules: a source is
// called once at start and does its work in those callbacks.
type tracedSourceContext struct {
	dataflow.SourceContext
	tr *tracer
}

func (c tracedSourceContext) After(d simtime.Duration, fn func()) {
	c.SourceContext.After(d, func() {
		c.tr.enter(hSource)
		fn()
		c.tr.exit()
	})
}

// pumpSourceContext is a tracedSourceContext around a context that
// implements dataflow.SourcePump.
type pumpSourceContext struct {
	tracedSourceContext
	pump dataflow.SourcePump
}

func (c pumpSourceContext) IngestNow(r *netsim.Record) { c.pump.IngestNow(r) }

func wrapSourceContext(ctx dataflow.SourceContext, tr *tracer) dataflow.SourceContext {
	t := tracedSourceContext{SourceContext: ctx, tr: tr}
	if p, ok := ctx.(dataflow.SourcePump); ok {
		return pumpSourceContext{tracedSourceContext: t, pump: p}
	}
	return t
}

// tracedTraffic times each Stream call; traced, it also wraps the stream.
type tracedTraffic struct {
	inner  workload.Traffic
	tr     *tracer
	p      *probe
	traced bool
}

func (t *tracedTraffic) Describe() string { return t.inner.Describe() }

func (t *tracedTraffic) Stream(instance, parallelism int, start simtime.Time) workload.Stream {
	t.tr.enter(hStreamOpen)
	st := t.inner.Stream(instance, parallelism, start)
	t.tr.exit()
	if !t.traced {
		return st
	}
	return &tracedStream{inner: st, tr: t.tr, p: t.p}
}

type tracedStream struct {
	inner workload.Stream
	tr    *tracer
	p     *probe
}

func (s *tracedStream) Next(ev *workload.Event) bool {
	s.tr.enter(hNext)
	ok := s.inner.Next(ev)
	s.tr.exit()
	if ok && !ev.Stop {
		s.p.arrivals++
	}
	return ok
}
