package engine

import (
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// BenchmarkStateCheckpoint measures one out-of-band snapshot sweep plus the
// recovery-path lookups over populated keyed stores — the recurring cost the
// fault layer adds to a run at every checkpoint cadence. The sweep deep-copies
// every live keyed group, so this is the number to watch when changing the
// slab store's Snapshot path.
func BenchmarkStateCheckpoint(b *testing.B) {
	sink := NewCollectSink()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 2,
		Source: fixedRateSource(2000, simtime.Ms(1), 512),
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "agg", Parallelism: 4, KeyedInput: true, MaxKeyGroups: 32,
		CostPerRecord: simtime.Ms(0.1),
		NewLogic:      func() dataflow.Logic { return &KeyedReduceLogic{EmitUpdates: true} },
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return sink },
	})
	g.Connect("src", "agg", dataflow.ExchangeKeyed)
	g.Connect("agg", "sink", dataflow.ExchangeRebalance)
	s := simtime.NewScheduler()
	rt := New(s, g, nil, Config{Seed: 7, MarkerInterval: -1})
	rt.Start()
	rt.RunFor(simtime.Sec(5))

	ck := rt.StartStateCheckpoints(simtime.Sec(1))
	ck.Stop() // drive take() by hand below; no timer churn in the loop
	name := rt.Instance("agg", 0).Name()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ck.take()
		for kg := 0; kg < 32; kg++ {
			if _, ok := ck.Lookup("agg", name, kg); !ok {
				b.Fatalf("kg %d in no snapshot", kg)
			}
		}
	}
}

// emitBench wires src → dst (parallelism 4, 128 key groups when keyed) over
// the given exchange and returns the runtime and the source instance. Every
// output channel of the source drains straight back into the record pool, so
// a loop of Emit calls measures the data plane's per-record routing (port
// lookup, key-group hash, routing-table owner, round-robin cursor) and edge
// enqueue without any downstream processing.
func emitBench(b *testing.B, ex dataflow.Exchange) (*Runtime, *Instance) {
	b.Helper()
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "dst", Parallelism: 4, KeyedInput: ex == dataflow.ExchangeKeyed, MaxKeyGroups: 128,
		NewLogic: func() dataflow.Logic { return &MapLogic{} },
	})
	g.Connect("src", "dst", ex)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	src := rt.Instance("src", 0)
	for _, e := range src.OutEdges("dst") {
		e.SetReceiver(func(e *netsim.Edge) {
			for e.InboxLen() > 0 {
				if r, ok := e.PopInbox().(*netsim.Record); ok {
					rt.recPool.Put(r)
				}
			}
		})
	}
	return rt, src
}

// runEmitBench emits b.N pooled records from src, draining the channels every
// 64 records (well inside their 128-record output caches, so no emission is
// ever parked on the pending queue).
func runEmitBench(b *testing.B, rt *Runtime, src *Instance) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rt.recPool.Get()
		r.Key = uint64(i % 4096)
		r.Size = 64
		src.Emit(r)
		if i%64 == 63 {
			rt.Sched.Run()
		}
	}
	rt.Sched.Run()
	if src.PendingEmits() != 0 {
		b.Fatalf("%d emissions parked on backpressure", src.PendingEmits())
	}
}

// BenchmarkRouteKeyed measures one keyed emission: hash to a key group,
// look up its owner in the sender's routing table, enqueue on that channel.
func BenchmarkRouteKeyed(b *testing.B) {
	rt, src := emitBench(b, dataflow.ExchangeKeyed)
	runEmitBench(b, rt, src)
}

// BenchmarkEmitRebalance measures one round-robin emission: advance the
// port's cursor, enqueue on the next channel.
func BenchmarkEmitRebalance(b *testing.B) {
	rt, src := emitBench(b, dataflow.ExchangeRebalance)
	runEmitBench(b, rt, src)
}

// BenchmarkCollectSink measures the sink's per-record bookkeeping (per-key
// sum and count, sequence-number duplicate tracking) for densely numbered
// records over 1024 keys, once every key has been seen.
func BenchmarkCollectSink(b *testing.B) {
	sink := NewCollectSink()
	r := &netsim.Record{Value: 1}
	for k := uint64(0); k < 1024; k++ {
		r.Key = k
		sink.OnRecord(nil, r) // Seq 0: per-key maps only
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq = uint64(i) + 1
		r.Key = uint64(i % 1024)
		sink.OnRecord(nil, r)
	}
	if sink.Duplicates() != 0 {
		b.Fatal("dense sequence numbers reported as duplicates")
	}
}
