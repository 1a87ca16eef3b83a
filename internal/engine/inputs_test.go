package engine

import (
	"strings"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// fanInRuntime builds n idle source instances feeding one "down" instance,
// which therefore has n input slots in source order. A nil logic selects a
// pass-through map.
func fanInRuntime(tb testing.TB, n int, logic func() dataflow.Logic) (*Runtime, *Instance) {
	tb.Helper()
	if logic == nil {
		logic = func() dataflow.Logic { return &MapLogic{} }
	}
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "up", Parallelism: n,
		Source: func(dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{Name: "down", Parallelism: 1, NewLogic: logic})
	g.Connect("up", "down", dataflow.ExchangeRebalance)
	rt := New(simtime.NewScheduler(), g, nil, Config{Seed: 1, MarkerInterval: -1})
	return rt, rt.Instance("down", 0)
}

func probeRuntime(t *testing.T, n int) (*Runtime, *Instance, *[]simtime.Time) {
	t.Helper()
	var wms []simtime.Time
	rt, in := fanInRuntime(t, n, func() dataflow.Logic { return &watermarkProbe{out: &wms} })
	return rt, in, &wms
}

func TestWatermarkWaitsForEveryInput(t *testing.T) {
	_, in, wms := probeRuntime(t, 3)
	ins := in.InEdges()
	in.onWatermark(&netsim.Watermark{WM: 10}, ins[0])
	in.onWatermark(&netsim.Watermark{WM: 30}, ins[2])
	in.onWatermark(&netsim.Watermark{WM: 40}, ins[2])
	if len(*wms) != 0 || in.CurrentWatermark() != -1 {
		t.Fatalf("watermark %v advanced before every input reported (calls %v)", in.CurrentWatermark(), *wms)
	}
	in.onWatermark(&netsim.Watermark{WM: 20}, ins[1])
	if got := in.CurrentWatermark(); got != 10 || len(*wms) != 1 {
		t.Fatalf("watermark %v after all inputs reported (calls %v), want 10", got, *wms)
	}
	in.onWatermark(&netsim.Watermark{WM: 50}, ins[0])
	if got := in.CurrentWatermark(); got != 20 {
		t.Fatalf("watermark %v, want the new minimum 20", got)
	}
}

func TestSeededMinusOneHoldsWatermark(t *testing.T) {
	_, in, wms := probeRuntime(t, 3)
	ins := in.InEdges()
	in.SeedWatermark(ins[2], -1)
	in.onWatermark(&netsim.Watermark{WM: 10}, ins[0])
	in.onWatermark(&netsim.Watermark{WM: 20}, ins[1])
	// Every input has a watermark now, but the seeded -1 is the minimum.
	if len(*wms) != 0 || in.CurrentWatermark() != -1 {
		t.Fatalf("watermark %v advanced past a seeded -1 input", in.CurrentWatermark())
	}
	in.SeedWatermark(ins[2], 99) // ignored: the input already has one
	in.onWatermark(&netsim.Watermark{WM: 15}, ins[2])
	if got := in.CurrentWatermark(); got != 10 {
		t.Fatalf("watermark %v once the seeded input reported, want 10", got)
	}
}

func TestAuxiliaryInputAndDetachedWatermarks(t *testing.T) {
	rt, in, _ := probeRuntime(t, 2)
	aux := rt.ConnectInstances(rt.Instance("up", 0), in)
	ins := in.InEdges()
	in.onWatermark(&netsim.Watermark{WM: 10}, ins[0])
	in.onWatermark(&netsim.Watermark{WM: 20}, ins[1])
	if got := in.CurrentWatermark(); got != 10 {
		t.Fatalf("watermark %v, want 10: the auxiliary input (seeded 1<<62) must not hold it back", got)
	}
	rt.DetachInput(in, aux)
	// A watermark still in flight on the detached edge is ignored, and it
	// leaves no per-input state behind.
	in.onWatermark(&netsim.Watermark{WM: 5}, aux)
	if got := in.CurrentWatermark(); got != 10 {
		t.Fatalf("watermark %v after a detached edge's watermark, want 10", got)
	}
	if len(in.inWM) != 2 || len(in.inHasWM) != 2 || in.noWM != 0 {
		t.Fatalf("per-input watermarks %v %v (noWM %d) after detach", in.inWM, in.inHasWM, in.noWM)
	}
	in.onWatermark(&netsim.Watermark{WM: 30}, ins[0])
	if got := in.CurrentWatermark(); got != 20 {
		t.Fatalf("watermark %v, want 20", got)
	}
}

func TestDetachMiddleInputKeepsLaterSlotState(t *testing.T) {
	rt, in := fanInRuntime(t, 70, nil)
	in.Halted = true // keep the inbox for inspection
	up := rt.Instance("up", 0)
	auxA := rt.ConnectInstances(up, in)
	auxB := rt.ConnectInstances(up, in)
	last := rt.ConnectInstances(up, in)
	before := last.RecvSlot
	if before != 72 || auxB.RecvSlot != 71 {
		t.Fatalf("slots %d, %d: want 71, 72 after 70 wired inputs", auxB.RecvSlot, before)
	}
	// auxB: blocked and ready; last: ready with its own watermark.
	auxB.ForceSend(&netsim.Record{Key: 1, Size: 64})
	last.ForceSend(&netsim.Record{Key: 2, Size: 64})
	rt.Sched.Run()
	in.BlockEdge(auxB)
	in.onWatermark(&netsim.Watermark{WM: 77}, last)

	rt.DetachInput(in, auxA)

	if auxA.RecvSlot != -1 || in.EdgeBlocked(auxA) || in.slotOf(auxA) != -1 {
		t.Fatalf("detached edge still looks like an input (slot %d)", auxA.RecvSlot)
	}
	if auxB.RecvSlot != 70 || last.RecvSlot != before-1 || in.InEdges()[70] != auxB || in.InEdges()[71] != last {
		t.Fatalf("later inputs not renumbered: slots %d, %d", auxB.RecvSlot, last.RecvSlot)
	}
	if !in.EdgeBlocked(auxB) || !in.inReady.has(70) || !in.inReady.has(71) || in.inBlocked.has(71) || in.inBlocked.has(72) {
		t.Fatal("blocked or ready bits did not move with their inputs")
	}
	if !in.inHasWM[71] || in.inWM[71] != 77 || in.inWM[70] != simtime.Time(1)<<62 {
		t.Fatalf("watermarks did not move with their inputs: %v", in.inWM[70:])
	}
	if got := in.ReadyInput(0, len(in.InEdges())); got != 71 {
		t.Fatalf("ReadyInput = %d, want 71 (70 is blocked)", got)
	}
	in.UnblockEdge(auxB)
	if got := in.ReadyInput(0, len(in.InEdges())); got != 70 {
		t.Fatalf("ReadyInput after unblock = %d, want 70", got)
	}
}

func TestBlockEdgeOnNonInputPanics(t *testing.T) {
	rt, in := fanInRuntime(t, 2, nil)
	detached := rt.ConnectInstances(rt.Instance("up", 1), in)
	rt.DetachInput(in, detached)
	foreign := rt.ConnectInstances(rt.Instance("up", 0), rt.Instance("up", 1))
	for _, c := range []struct {
		name string
		e    *netsim.Edge
	}{{"detached", detached}, {"foreign", foreign}} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, in.Name()) || !strings.Contains(msg, "not one of its inputs") {
					t.Fatalf("panic %q does not name the instance and the cause", msg)
				}
			}()
			in.BlockEdge(c.e)
		})
	}
}

// BenchmarkFanInNext measures one input-handler poll on an instance with 256
// inputs of which exactly one holds a record; the ready input rotates by 97
// slots per poll, so every scan crosses word boundaries.
func BenchmarkFanInNext(b *testing.B) {
	const n = 256
	rt, in := fanInRuntime(b, n, nil)
	in.Halted = true // the benchmark polls the handler itself
	ins := in.InEdges()
	h := &NativeHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rt.recPool.Get()
		r.Size = 64
		ins[i*97%n].ForceSend(r)
		rt.Sched.Run()
		m, _, st := h.Next(in)
		if st != NextOK {
			b.Fatalf("poll %d: status %v", i, st)
		}
		rt.recPool.Put(m.(*netsim.Record))
	}
}

// BenchmarkFanInWatermark measures one watermark arrival on an instance with
// 256 inputs. Input 0 holds the minimum, so every arrival folds all inputs
// and none advances the instance's watermark.
func BenchmarkFanInWatermark(b *testing.B) {
	const n = 256
	_, in := fanInRuntime(b, n, nil)
	ins := in.InEdges()
	w := &netsim.Watermark{}
	for _, e := range ins {
		in.onWatermark(w, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WM = simtime.Time(i + 1)
		in.onWatermark(w, ins[1+i%(n-1)])
	}
}
