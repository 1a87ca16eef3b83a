package engine

import (
	"strings"
	"testing"

	"drrs/internal/dataflow"
	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// refSink is the reference duplicate count: a map from Seq to times seen.
type refSink map[uint64]int

func (r refSink) duplicates() int {
	var n int
	for _, c := range r {
		if c > 1 {
			n += c - 1
		}
	}
	return n
}

func TestCollectSinkDuplicatesMatchReference(t *testing.T) {
	sink := NewCollectSink()
	ref := refSink{}
	observe := func(seq uint64) {
		sink.OnRecord(nil, &netsim.Record{Seq: seq, Key: seq % 7, Value: 1})
		if seq != 0 {
			ref[seq]++
		}
		if got, want := sink.Duplicates(), ref.duplicates(); got != want {
			t.Fatalf("after seq %d: Duplicates() = %d, reference %d", seq, got, want)
		}
	}
	rng := simtime.NewRNG(11, "collect-sink")
	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0:
			observe(0) // unsequenced: never a duplicate
		case 1:
			observe(uint64(rng.Intn(i+1)) + 1) // likely a repeat
		case 2:
			observe(1<<62 + uint64(rng.Intn(4))) // sparse, far beyond the records seen
		default:
			observe(uint64(i) + 1)
		}
	}
	if sink.Records != 5000 {
		t.Fatalf("records %d", sink.Records)
	}
	if len(sink.far) == 0 || len(sink.far) > 4 {
		t.Fatalf("far holds %d sequence numbers, want the 1..4 sparse ones", len(sink.far))
	}
	if limit := sink.Records + seenSlackWords; len(sink.seen) > limit {
		t.Fatalf("bitset has %d words, more than %d for %d records", len(sink.seen), limit, sink.Records)
	}
}

func TestCollectSinkFarSeqMovesIntoGrownBitset(t *testing.T) {
	sink := NewCollectSink()
	far := uint64(64 * (seenSlackWords + 10))
	obs := func(seq uint64) { sink.OnRecord(nil, &netsim.Record{Seq: seq}) }
	obs(far)
	if !sink.far[far] {
		t.Fatalf("seq %d beyond the bitset limit should go to the fallback map", far)
	}
	for seq := uint64(1); seq < 64*20; seq++ {
		obs(seq) // records seen raise the limit past far
	}
	obs(far + 64*(seenSlackWords)) // grows the bitset over far
	if len(sink.far) != 0 {
		t.Fatalf("fallback map kept %d entries the bitset now covers", len(sink.far))
	}
	obs(far)
	if d := sink.Duplicates(); d != 1 {
		t.Fatalf("repeat of a migrated seq: Duplicates() = %d, want 1", d)
	}
}

func TestNodeCacheFollowsPlacementAndSpeed(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 500)
	cl := rt.Cluster
	in := rt.Instance("agg", 1)
	check := func(when string) {
		t.Helper()
		if got, want := in.speed(), cl.SpeedOf(in.Endpoint()); got != want {
			t.Fatalf("%s: cached speed %v, cluster says %v", when, got, want)
		}
	}
	rt.Start()
	rt.RunFor(simtime.Ms(100))
	check("default node")

	cl.AddNode("fast", 4, 0)
	cl.Place(in.Endpoint(), "fast")
	check("after Place mid-run")
	if in.speed() != 4 {
		t.Fatalf("speed %v after Place onto a speed-4 node", in.speed())
	}
	cl.Node("fast").Speed = 0.5 // a straggler fault edits the node in place
	check("after in-place Speed change")

	rt.RunFor(simtime.Ms(100))
	cl.RemoveNode("fast")
	check("after RemoveNode")
	if in.speed() != 1 {
		t.Fatalf("speed %v on a removed node, want the fallback 1", in.speed())
	}
	cl.Place(in.Endpoint(), "local")
	cl.Node("local").Speed = 2
	check("after re-placement")
	rt.RunFor(simtime.Sec(2))
	if in.Processed == 0 {
		t.Fatal("instance processed nothing across re-placements")
	}
}

func TestSetRoutingOnNonDownstreamPanics(t *testing.T) {
	rt, _ := buildSimpleJob(t, 1, 2, 10)
	src := rt.Instance("src", 0)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "src[0]") || !strings.Contains(msg, "sink") {
			t.Fatalf("panic %q should name the instance and the operator", msg)
		}
		if src.Routing("sink") != nil {
			t.Fatal("SetRouting stored a table toward a non-downstream operator")
		}
	}()
	src.SetRouting("sink", dataflow.NewRoutingTable(32, 1))
}
