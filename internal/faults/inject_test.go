package faults

import (
	"testing"

	"drrs/internal/cluster"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/simtime"
)

// injectorHarness builds the smallest runtime an injector can drive: one
// silent source feeding one sink, on a two-node, one-rack cluster. Fault mechanics (speed
// factors, uplink state, heal timers, onset jitter) act on the cluster and
// scheduler alone, so no traffic needs to flow.
func injectorHarness(t *testing.T, plan *Plan, seed int64) (*simtime.Scheduler, *cluster.Cluster, *Injector) {
	t.Helper()
	s := simtime.NewScheduler()
	cl := cluster.New(s)
	cl.AddRack("r0", 8<<20, simtime.Ms(1))
	cl.AddNode("n0", 1.0, 16<<20).Rack = "r0"
	cl.AddNode("n1", 1.0, 16<<20).Rack = "r0"
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "src", Parallelism: 1,
		Source: func(ctx dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "sink", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return engine.NewCollectSink() },
	})
	g.Connect("src", "sink", dataflow.ExchangeRebalance)
	rt := engine.New(s, g, cl, engine.Config{Seed: seed, MarkerInterval: -1})
	rt.Start()
	inj := NewInjector(rt, plan, seed)
	inj.Start()
	return s, cl, inj
}

// TestStraggleHealScheduling: a straggle fault multiplies the node's speed at
// onset and the heal timer restores the original speed, both on schedule.
func TestStraggleHealScheduling(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Straggle, At: simtime.Sec(1), Node: "n0", Factor: 0.5, Heal: simtime.Sec(2)},
	}}
	s, cl, inj := injectorHarness(t, plan, 1)
	defer inj.Stop()
	s.RunUntil(simtime.Time(simtime.Ms(999)))
	if sp := cl.Node("n0").Speed; sp != 1.0 {
		t.Fatalf("speed %g before onset", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(1500)))
	if sp := cl.Node("n0").Speed; sp != 0.5 {
		t.Fatalf("speed %g during straggle, want 0.5", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(2999)))
	if sp := cl.Node("n0").Speed; sp != 0.5 {
		t.Fatalf("speed %g before heal, want 0.5", sp)
	}
	s.RunUntil(simtime.Time(simtime.Ms(3001)))
	if sp := cl.Node("n0").Speed; sp != 1.0 {
		t.Fatalf("speed %g after heal, want 1.0", sp)
	}
	if ev, _ := inj.Health(); ev != 1 {
		t.Fatalf("disruptions %d, want 1 (heal is not a disruption)", ev)
	}
}

// TestUplinkHealScheduling: partition flips Rack.Down at onset and the heal
// restores both flags; a degrade variant restores the original bandwidth.
func TestUplinkHealScheduling(t *testing.T) {
	plan := &Plan{Faults: []Fault{
		{Kind: Uplink, At: simtime.Sec(1), Rack: "r0", Bandwidth: 0, Heal: simtime.Sec(1)},
		{Kind: Uplink, At: simtime.Sec(4), Rack: "r0", Bandwidth: 256 << 10, Heal: simtime.Sec(1)},
	}}
	s, cl, inj := injectorHarness(t, plan, 1)
	defer inj.Stop()
	r := cl.Rack("r0")
	s.RunUntil(simtime.Time(simtime.Ms(1500)))
	if !r.Down {
		t.Fatal("rack not partitioned at onset")
	}
	s.RunUntil(simtime.Time(simtime.Ms(2500)))
	if r.Down || r.UplinkBandwidth != 8<<20 {
		t.Fatalf("partition heal incomplete: down=%v bw=%g", r.Down, r.UplinkBandwidth)
	}
	s.RunUntil(simtime.Time(simtime.Ms(4500)))
	if r.Down || r.UplinkBandwidth != 256<<10 {
		t.Fatalf("degrade not applied: down=%v bw=%g", r.Down, r.UplinkBandwidth)
	}
	s.RunUntil(simtime.Time(simtime.Ms(5500)))
	if r.UplinkBandwidth != 8<<20 {
		t.Fatalf("degrade heal restored bw=%g, want original", r.UplinkBandwidth)
	}
}

// straggleOnsetAt runs one jittered straggle plan and samples (on a 1 ms
// grid) when the speed change lands.
func straggleOnsetAt(t *testing.T, seed int64, jitter float64) simtime.Duration {
	t.Helper()
	plan := &Plan{Faults: []Fault{
		{Kind: Straggle, At: simtime.Sec(2), Node: "n0", Factor: 0.5, Jitter: jitter},
	}}
	s, cl, inj := injectorHarness(t, plan, seed)
	defer inj.Stop()
	for at := simtime.Ms(1000); at <= simtime.Ms(4000); at += simtime.Ms(1) {
		s.RunUntil(simtime.Time(at))
		if cl.Node("n0").Speed != 1.0 {
			return at
		}
	}
	t.Fatalf("seed %d: jittered fault never fired in [1s,4s]", seed)
	return 0
}

// TestJitterScheduling: per-fault jitter draws from the dedicated "faults"
// stream — deterministic per seed, onset stays inside At·(1±jitter), and a
// zero jitter fires exactly on schedule.
func TestJitterScheduling(t *testing.T) {
	if exact := straggleOnsetAt(t, 5, 0); exact != simtime.Ms(2000) {
		t.Fatalf("unjittered onset observed at %v, want 2s", exact)
	}
	a := straggleOnsetAt(t, 5, 0.25)
	b := straggleOnsetAt(t, 5, 0.25)
	if a != b {
		t.Fatalf("same seed jittered to %v then %v", a, b)
	}
	if lo, hi := simtime.Ms(1500), simtime.Ms(2501); a < lo || a > hi {
		t.Fatalf("jittered onset %v outside [%v, %v]", a, lo, hi)
	}
	seen := map[simtime.Duration]bool{a: true}
	for seed := int64(6); seed < 12; seed++ {
		seen[straggleOnsetAt(t, seed, 0.25)] = true
	}
	if len(seen) < 2 {
		t.Fatal("seven seeds produced one identical jittered onset")
	}
}
