package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"drrs/internal/core"
	"drrs/internal/dataflow"
	"drrs/internal/engine"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// keyGate makes records whose key is a multiple of 4 unprocessable, so polls
// meet suspended heads and the intra-channel pass has records to bypass.
type keyGate struct{ engine.BaseHook }

func (keyGate) Processable(_ *engine.Instance, r *netsim.Record, _ *netsim.Edge) bool {
	return r.Key%4 != 0
}

// refScan is the input handlers' linear round-robin scan as it was written
// before the ready set: every poll steps the cursor through all inputs one by
// one. It reads blocking from its own set, not from the instance, and reports
// the input and inbox depth it would consume without consuming anything.
type refScan struct {
	rr      int
	stuck   *netsim.Edge // native only
	blocked map[*netsim.Edge]bool
}

func (h *refScan) native(in *engine.Instance) (*netsim.Edge, int, engine.NextStatus) {
	if e := h.stuck; e != nil {
		if h.blocked[e] || e.InboxLen() == 0 {
			h.stuck = nil
		} else {
			if !in.CanProcess(e.InboxAt(0), e) {
				return e, -1, engine.NextSuspended
			}
			h.stuck = nil
			return e, 0, engine.NextOK
		}
	}
	ins := in.InEdges()
	n := len(ins)
	for k := 0; k < n; k++ {
		h.rr = (h.rr + 1) % n
		e := ins[h.rr]
		if h.blocked[e] || e.InboxLen() == 0 {
			continue
		}
		if !in.CanProcess(e.InboxAt(0), e) {
			h.stuck = e
			return e, -1, engine.NextSuspended
		}
		return e, 0, engine.NextOK
	}
	return nil, -1, engine.NextIdle
}

func (h *refScan) scheduling(in *engine.Instance, depth int) (*netsim.Edge, int, engine.NextStatus) {
	ins := in.InEdges()
	n := len(ins)
	if n == 0 {
		return nil, -1, engine.NextIdle
	}
	queued := false
	for k := 0; k < n; k++ {
		h.rr = (h.rr + 1) % n
		e := ins[h.rr]
		if h.blocked[e] || e.InboxLen() == 0 {
			continue
		}
		queued = true
		if in.CanProcess(e.InboxAt(0), e) {
			return e, 0, engine.NextOK
		}
	}
	if !queued {
		return nil, -1, engine.NextIdle
	}
	for k := 0; k < n; k++ {
		e := ins[(h.rr+k)%n]
		if h.blocked[e] {
			continue
		}
		limit := min(e.InboxLen(), depth)
		for i := 1; i < limit; i++ {
			msg := e.InboxAt(i)
			if _, isRec := msg.(*netsim.Record); !isRec {
				break
			}
			if in.CanProcess(msg, e) {
				return e, i, engine.NextOK
			}
		}
	}
	return nil, -1, engine.NextSuspended
}

// cursor reads a handler's unexported round-robin cursor.
func cursor(h engine.InputHandler) int {
	return int(reflect.ValueOf(h).Elem().FieldByName("rr").Int())
}

// scanRig is one instance with n wired inputs (plus auxiliary ones) that is
// polled directly: it stays halted, so arrivals only fill its inboxes.
type scanRig struct {
	t      *testing.T
	rng    *rand.Rand
	rt     *engine.Runtime
	in     *engine.Instance
	h      engine.InputHandler
	ref    *refScan
	sched  bool // h is core.SchedulingHandler
	polls  int
	gone   []*netsim.Edge // detached inputs
	pastRR int            // detaches that left the cursor at or past the last input
}

const refDepth = 8

func newScanRig(t *testing.T, seed int64, sched bool) *scanRig {
	rng := rand.New(rand.NewSource(seed))
	n := 70 + rng.Intn(61)
	g := dataflow.NewGraph()
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "up", Parallelism: n,
		Source: func(dataflow.SourceContext) {},
	})
	g.AddOperator(&dataflow.OperatorSpec{
		Name: "down", Parallelism: 1,
		NewLogic: func() dataflow.Logic { return &engine.MapLogic{} },
	})
	g.Connect("up", "down", dataflow.ExchangeRebalance)
	rt := engine.New(simtime.NewScheduler(), g, nil, engine.Config{Seed: seed, MarkerInterval: -1})
	r := &scanRig{t: t, rng: rng, rt: rt, in: rt.Instance("down", 0), sched: sched,
		ref: &refScan{blocked: map[*netsim.Edge]bool{}}}
	r.in.Halted = true
	r.in.SetHook(keyGate{})
	if sched {
		r.h = &core.SchedulingHandler{Depth: refDepth}
	} else {
		r.h = &engine.NativeHandler{}
	}
	for i := 0; i < 4; i++ {
		r.attach()
	}
	return r
}

func (r *scanRig) attach() {
	r.rt.ConnectInstances(r.rt.Instance("up", r.rng.Intn(len(r.rt.Instances("up")))), r.in)
}

// pick returns a random input; half the time one of a few fixed slots that
// straddle the bitset's word boundaries, so inboxes stack up.
func (r *scanRig) pick() *netsim.Edge {
	ins := r.in.InEdges()
	if r.rng.Intn(2) == 0 {
		hot := [...]int{0, 63, 64, len(ins) - 1}
		return ins[hot[r.rng.Intn(len(hot))]]
	}
	return ins[r.rng.Intn(len(ins))]
}

// arrive delivers one to three messages on e: records, a tenth of them
// watermarks (control messages fence the intra-channel pass).
func (r *scanRig) arrive(e *netsim.Edge, key int) {
	for k := 1 + r.rng.Intn(3); k > 0; k-- {
		var m netsim.Message = &netsim.Record{Key: uint64(key), Size: 64}
		if key < 0 {
			m = &netsim.Record{Key: uint64(r.rng.Intn(64)), Size: 64}
		}
		if r.rng.Intn(10) == 0 {
			m = &netsim.Watermark{WM: r.rt.Sched.Now()}
		}
		e.ForceSend(m)
	}
	r.rt.Sched.Run()
}

// poll runs the handler under test and the reference on the same state and
// fails on any difference in the consumed message, input, status or cursor.
func (r *scanRig) poll() {
	r.polls++
	var wantE *netsim.Edge
	var at int
	var wantSt engine.NextStatus
	if r.sched {
		wantE, at, wantSt = r.ref.scheduling(r.in, refDepth)
	} else {
		wantE, at, wantSt = r.ref.native(r.in)
	}
	var wantMsg netsim.Message
	if at >= 0 {
		wantMsg = wantE.InboxAt(at)
	}
	m, e, st := r.h.Next(r.in)
	if m != wantMsg || e != wantE || st != wantSt || cursor(r.h) != r.ref.rr {
		r.t.Fatalf("poll %d over %d inputs: got (%v, %s, %v, rr %d), reference (%v, %s, %v, rr %d)",
			r.polls, len(r.in.InEdges()), m, edgeName(e), st, cursor(r.h), wantMsg, edgeName(wantE), wantSt, r.ref.rr)
	}
}

func edgeName(e *netsim.Edge) string {
	if e == nil {
		return "none"
	}
	return fmt.Sprintf("%s→%s@%d", e.Src, e.Dst, e.RecvSlot)
}

func (r *scanRig) block(e *netsim.Edge) {
	r.in.BlockEdge(e)
	r.ref.blocked[e] = true
}

func (r *scanRig) unblock(e *netsim.Edge) {
	r.in.UnblockEdge(e)
	delete(r.ref.blocked, e)
}

// detachMiddle points the cursor at the last input when it can (only the
// last input unblocked, with a processable record queued), then detaches an
// auxiliary input before it, so the cursor ends at or past the new end, and
// polls on from there.
func (r *scanRig) detachMiddle() {
	ins := r.in.InEdges()
	last := len(ins) - 1
	mid := -1
	for s := last - 1; s >= 0 && ins[s].Auxiliary; s-- {
		mid = s
	}
	if mid < 0 {
		return
	}
	mid += r.rng.Intn(last - mid)
	if r.ref.blocked[ins[last]] {
		r.unblock(ins[last])
	}
	r.arrive(ins[last], 1)
	var held []*netsim.Edge
	for _, e := range ins[:last] {
		if !r.ref.blocked[e] {
			r.block(e)
			held = append(held, e)
		}
	}
	r.poll()
	e := ins[mid]
	r.rt.DetachInput(r.in, e)
	delete(r.ref.blocked, e)
	r.gone = append(r.gone, e)
	if cursor(r.h) >= len(r.in.InEdges()) {
		r.pastRR++
	}
	// Drain the one open input, so polls also go idle from a cursor past
	// the end.
	for i := 0; i < 4; i++ {
		r.poll()
	}
	for _, e := range held {
		r.unblock(e)
	}
}

// check asserts that the instance's blocked bitset agrees with the
// reference's set on every input, and that detached edges read unblocked.
func (r *scanRig) check(step int) {
	for s, e := range r.in.InEdges() {
		if r.in.EdgeBlocked(e) != r.ref.blocked[e] {
			r.t.Fatalf("step %d: input %d blocked=%v, reference %v", step, s, r.in.EdgeBlocked(e), r.ref.blocked[e])
		}
	}
	for _, e := range r.gone {
		if r.in.EdgeBlocked(e) {
			r.t.Fatalf("step %d: detached %s reads blocked", step, edgeName(e))
		}
	}
}

// TestReadySetScanMatchesLinearScan drives NativeHandler and
// core.SchedulingHandler through seeded sequences of arrivals, polls,
// blocking, crashes and input churn, and checks every poll against the
// linear scan they replaced.
func TestReadySetScanMatchesLinearScan(t *testing.T) {
	for _, sched := range []bool{false, true} {
		name := "native"
		if sched {
			name = "scheduling"
		}
		t.Run(name, func(t *testing.T) {
			pastRR := 0
			for seed := int64(1); seed <= 12; seed++ {
				r := newScanRig(t, seed, sched)
				for step := 0; step < 2000; step++ {
					switch op := r.rng.Intn(100); {
					case op < 35:
						r.arrive(r.pick(), -1)
					case op < 70:
						r.poll()
					case op < 80:
						r.block(r.pick())
					case op < 90:
						r.unblock(r.pick())
					case op < 92:
						if len(r.gone) > 0 { // a late arrival on a detached edge
							r.arrive(r.gone[r.rng.Intn(len(r.gone))], -1)
						}
					case op < 93:
						r.in.Fail()
						clear(r.ref.blocked)
					case op < 96:
						r.attach()
					default:
						r.detachMiddle()
					}
					r.check(step)
				}
				pastRR += r.pastRR
			}
			if pastRR == 0 {
				t.Fatal("no detach left the cursor past the last input; the sequences miss that case")
			}
		})
	}
}
