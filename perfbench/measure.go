package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"drrs/internal/bench"
	"drrs/internal/simtime"
)

// passResult is what one pass over a workload's cases measured. Times and
// counts are summed over the cases, except where layers says otherwise.
type passResult struct {
	wall, setup, cpu time.Duration
	peakHeap         uint64 // bytes; the highest of the cases
	records          int64  // records the sources emitted
	attempted        int
	failed           int
	digests          []uint64
	// layers holds the per-layer metrics the pass can give: end-of-run
	// counters always, span times when traced, and allocation and GC counts
	// when untraced.
	layers map[string]float64
}

// passer runs passes of one workload at one seed.
type passer struct {
	cases []runCase
	heap  *heapSampler
	log   io.Writer
	// ref holds the digests of the first pass; every later pass, traced or
	// not, must reproduce them.
	ref []uint64
}

// pass runs every case once. Traced, every hook is wrapped; untraced, only
// the set-up hooks are timed.
func (ps *passer) pass(traced bool, tr *tracer) passResult {
	r := passResult{layers: map[string]float64{}}
	var avgLatency float64
	for i, c := range ps.cases {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr.beginRun()
		first := len(tr.spans)
		ps.heap.reset()
		cpu0 := cpuTime()

		tr.enter(hScenarioBuild)
		sc := bench.ScenarioByName(c.scenario, c.seed)
		tr.exit()
		p := instrument(&sc, tr, traced)
		newMech := mechanisms(c.mech, tr, traced)
		tr.enter(hRun)
		out := sc.RunWith(newMech)
		tr.exit()

		r.cpu += cpuTime() - cpu0
		if peak := ps.heap.read(); peak > r.peakHeap {
			r.peakHeap = peak
		}
		runtime.ReadMemStats(&m1)
		spans := tr.spans[first:]
		for j := range spans {
			s := &spans[j]
			switch s.Name {
			case "bench.scenario_build", "dataflow.graph_build", "cluster.build", "engine.source_start":
				r.setup += time.Duration(s.Busy)
			}
			if s.Parent < 0 {
				r.wall += time.Duration(s.Busy)
			}
		}

		d := bench.OutcomeDigest(out)
		r.digests = append(r.digests, d)
		r.attempted++
		if why := ps.check(i, c, sc.Faults == nil, d, out, p); why != "" {
			r.failed++
			fmt.Fprintf(ps.log, "perfbench: %s/%s seed %d failed: %s\n", c.scenario, c.mech, c.seed, why)
		}
		r.records += out.Throughput.Total()
		caseLayers(r.layers, out, p)
		if peak := out.PeakIn(0, out.EndAt); peak > r.layers["metrics.sim_peak_latency_ms"] {
			r.layers["metrics.sim_peak_latency_ms"] = peak
		}
		avgLatency += out.AvgIn(0, out.EndAt)
		if traced {
			spanLayers(r.layers, spans)
		} else {
			r.layers["process.allocs"] += float64(m1.Mallocs - m0.Mallocs)
			r.layers["process.alloc_mb"] += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
			r.layers["process.gc_cycles"] += float64(m1.NumGC - m0.NumGC)
			r.layers["process.gc_pause_s"] += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
		}
	}
	r.layers["metrics.sim_avg_latency_ms"] = avgLatency / float64(len(ps.cases))
	if r.records > 0 {
		r.layers["simtime.events_per_record"] = r.layers["simtime.events"] / float64(r.records)
	}
	if ps.ref == nil {
		ps.ref = r.digests
	}
	return r
}

// check returns why case i's run failed, or "" when it passed.
func (ps *passer) check(i int, c runCase, unfaulted bool, digest uint64, out bench.Outcome, p *probe) string {
	switch {
	case p.rt == nil:
		return "the run never reached its Inspect hook"
	case !out.Done:
		return "a scaling operation did not complete"
	case unfaulted && p.rt.LostRecords() > 0:
		return fmt.Sprintf("lost %d records on an unfaulted run", p.rt.LostRecords())
	}
	if want, ok := pins[c]; ok && digest != want {
		return fmt.Sprintf("digest %#016x, pinned %#016x", digest, want)
	}
	if ps.ref != nil && digest != ps.ref[i] {
		return fmt.Sprintf("digest %#016x differs from the first pass's %#016x", digest, ps.ref[i])
	}
	return ""
}

// caseLayers adds the end-of-run counters of one case to layers.
func caseLayers(layers map[string]float64, out bench.Outcome, p *probe) {
	add := func(name string, v float64) { layers[name] += v }
	add("simtime.events", float64(out.Events))
	var deliveries, delivered, processed uint64
	for _, op := range p.rt.Graph.Topological() {
		for _, in := range p.rt.Instances(op) {
			processed += in.Processed
			for _, e := range in.InEdges() {
				deliveries += e.Delivered
				delivered += e.DeliveredBytes
			}
		}
		add("state.bytes_end", float64(p.rt.TotalStateBytes(op)))
	}
	add("netsim.deliveries", float64(deliveries))
	add("netsim.delivered_mb", float64(delivered)/1e6)
	add("engine.records_processed", float64(processed))
	add("workload.arrivals", float64(p.arrivals))

	var scalingPeriod, suspension, propagation simtime.Duration
	for _, w := range out.Waves {
		if w.Scale == nil {
			continue // never launched
		}
		add("scaling.operations", 1)
		add("scaling.kg_migrated", float64(w.Scale.UnitsMigrated()))
		scalingPeriod += w.ScalingPeriod()
		suspension += w.Scale.CumulativeSuspension()
		propagation += w.Scale.CumulativePropagationDelay()
	}
	add("core.sim_scaling_period_s", float64(scalingPeriod)/float64(simtime.Second))
	add("core.sim_suspension_ms", float64(suspension)/float64(simtime.Millisecond))
	add("core.sim_propagation_ms", float64(propagation)/float64(simtime.Millisecond))
	add("cluster.transfer_mb", float64(out.TransferredBytes)/1e6)
	add("cluster.cross_rack_mb", float64(out.CrossRackBytes)/1e6)

	add("control.decisions", float64(len(out.Decisions)))
	for _, d := range out.Decisions {
		if d.Superseded {
			add("control.superseded", 1)
		}
	}
	if f := out.Faults; f != nil {
		add("faults.crashes", float64(f.Crashes))
		add("faults.failed_transfers", float64(f.FailedTransfers))
		add("faults.retried_transfers", float64(f.RetriedTransfers))
		add("faults.recovered_groups", float64(f.RecoveredGroups))
		add("faults.replayed_records", float64(f.ReplayedRecords))
	}
}

// selfTimeMetric names the per-layer metric a span's self time is reported
// as: <span name>_s, except for the run span, whose self time is the
// scheduler loop's (RunWith's time minus every hook it called).
func selfTimeMetric(spanName string) string {
	if spanName == hookSpecs[hRun].name {
		return "simtime.loop_self_s"
	}
	return spanName + "_s"
}

// spanLayers adds the self times and call counts of one traced case's spans
// to layers.
func spanLayers(layers map[string]float64, spans []span) {
	for i := range spans {
		s := &spans[i]
		layers[selfTimeMetric(s.Name)] += float64(s.self()) / 1e9
		switch s.Name {
		case "engine.on_record":
			layers["engine.on_record_calls"] += float64(s.Calls)
		case "engine.on_watermark":
			layers["engine.on_watermark_calls"] += float64(s.Calls)
		}
		if s.Parent < 0 {
			layers["trace.wall_s"] += float64(s.Busy) / 1e9
		}
	}
}

// cpuTime is the process's user plus system CPU time so far, GC workers
// included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the peak of the Go heap (live and not yet swept
// objects) by sampling it every millisecond on its own goroutine. Each
// sampling goroutine reuses its own sample slice, so sampling does not
// allocate and process.allocs counts the simulation alone.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
	// caller is the slice reset and read sample into.
	caller []metrics.Sample
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), caller: []metrics.Sample{{Name: heapMetric}}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample(s)
			}
		}
	}()
	return h
}

func (h *heapSampler) sample(s []metrics.Sample) {
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
	}
}

// reset restarts the peak from the current heap size.
func (h *heapSampler) reset() {
	h.peak.Store(0)
	h.sample(h.caller)
}

// read returns the peak since the last reset.
func (h *heapSampler) read() uint64 {
	h.sample(h.caller)
	return h.peak.Load()
}

// close stops the sampling goroutine and waits for it to exit.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}
