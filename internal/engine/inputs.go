package engine

import (
	"fmt"
	"math/bits"

	"drrs/internal/netsim"
	"drrs/internal/simtime"
)

// An instance numbers its inputs by slot: an input's position in ins, kept
// on the edge as RecvSlot. Per-input state is indexed by slot, so the input
// handlers' scans and the watermark fan-in walk dense words and slices
// instead of looking every channel up in a map:
//
//   - inReady: a set bit means the input may hold inbox messages. Every
//     arrival sets it (noteArrival is the edges' receiver callback, and
//     delivery is the only way into an inbox); ReadyInput clears the bits of
//     empty inboxes it passes over.
//   - inBlocked: a set bit means the input is alignment-blocked.
//   - inWM / inHasWM: the input's last watermark and whether it has one;
//     noWM counts the inputs that have none yet.

// bitset is a slot-indexed set of inputs.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) unset(i int)    { b[i>>6] &^= 1 << (i & 63) }

// removeBit drops bit i of the first n, shifting the bits above it down.
func (b bitset) removeBit(i, n int) {
	for j := i; j < n-1; j++ {
		if b.has(j + 1) {
			b.set(j)
		} else {
			b.unset(j)
		}
	}
	b.unset(n - 1)
}

// addInput appends e as the instance's next input slot.
func (in *Instance) addInput(e *netsim.Edge) {
	e.RecvSlot = len(in.ins)
	in.ins = append(in.ins, e)
	if words := (len(in.ins) + 63) >> 6; words > len(in.inReady) {
		in.inReady = append(in.inReady, 0)
		in.inBlocked = append(in.inBlocked, 0)
	}
	in.inWM = append(in.inWM, 0)
	in.inHasWM = append(in.inHasWM, false)
	in.noWM++
}

// removeInput drops input slot s, renumbering the later inputs along with
// their ready and blocked bits and watermarks. Only scaling cleanup detaches
// inputs, so the O(inputs) shift is off the per-record path.
func (in *Instance) removeInput(s int) {
	n := len(in.ins)
	in.ins[s].RecvSlot = -1
	if !in.inHasWM[s] {
		in.noWM--
	}
	in.ins = append(in.ins[:s], in.ins[s+1:]...)
	in.inWM = append(in.inWM[:s], in.inWM[s+1:]...)
	in.inHasWM = append(in.inHasWM[:s], in.inHasWM[s+1:]...)
	in.inReady.removeBit(s, n)
	in.inBlocked.removeBit(s, n)
	for j := s; j < n-1; j++ {
		in.ins[j].RecvSlot = j
	}
}

// slotOf returns e's input slot, or -1 when e is not an input of the
// instance (never wired to it, or detached).
func (in *Instance) slotOf(e *netsim.Edge) int {
	if s := e.RecvSlot; s >= 0 && s < len(in.ins) && in.ins[s] == e {
		return s
	}
	return -1
}

// noteArrival is the receiver callback of every input edge: it marks the
// input ready and wakes the instance. A detached edge only wakes it.
func (in *Instance) noteArrival(e *netsim.Edge) {
	if s := in.slotOf(e); s >= 0 {
		in.inReady.set(s)
	}
	in.Wake()
}

// ReadyInput returns the first input slot in [lo, hi) that is not
// alignment-blocked and has inbox messages, or -1. It clears the ready bits
// of the empty inboxes it passes over. Input handlers scan with it instead of
// polling every channel.
func (in *Instance) ReadyInput(lo, hi int) int {
	for lo < hi {
		w := lo >> 6
		word := (in.inReady[w] &^ in.inBlocked[w]) >> (lo & 63) << (lo & 63)
		if end := (w + 1) << 6; hi < end {
			word &= 1<<(hi&63) - 1
		}
		if word == 0 {
			lo = (w + 1) << 6
			continue
		}
		s := w<<6 + bits.TrailingZeros64(word)
		if in.ins[s].InboxLen() > 0 {
			return s
		}
		in.inReady.unset(s)
		lo = s + 1
	}
	return -1
}

// BlockEdge excludes an input channel from the handler (alignment blocking).
// It panics when e is not an input of the instance: only a bug aligns on a
// channel the instance does not read.
func (in *Instance) BlockEdge(e *netsim.Edge) {
	s := in.slotOf(e)
	if s < 0 {
		panic(fmt.Sprintf("engine: BlockEdge on %s for %s→%s, which is not one of its inputs", in.Name(), e.Src, e.Dst))
	}
	in.inBlocked.set(s)
}

// UnblockEdge re-admits a blocked channel and wakes the instance.
func (in *Instance) UnblockEdge(e *netsim.Edge) {
	if s := in.slotOf(e); s >= 0 {
		in.inBlocked.unset(s)
	}
	in.Wake()
}

// EdgeBlocked reports whether e is an alignment-blocked input.
func (in *Instance) EdgeBlocked(e *netsim.Edge) bool {
	s := in.slotOf(e)
	return s >= 0 && in.inBlocked.has(s)
}

// --- Watermarks ---

func (in *Instance) onWatermark(w *netsim.Watermark, e *netsim.Edge) {
	if e != nil {
		if s := in.slotOf(e); s >= 0 {
			if !in.inHasWM[s] {
				in.inHasWM[s] = true
				in.noWM--
			}
			in.inWM[s] = w.WM
		}
	}
	if in.noWM > 0 {
		return // some channel has no watermark yet
	}
	min := simtime.Time(-1)
	for _, wm := range in.inWM {
		if min == -1 || wm < min {
			min = wm
		}
	}
	if min > in.curWM {
		in.curWM = min
		if in.logic != nil {
			in.logic.OnWatermark(in, min)
		}
		in.broadcastControl(&netsim.Watermark{WM: min})
	}
}

// SeedWatermark initializes an input channel's watermark unless it already
// has one (used when a scaling mechanism wires a new instance so its windows
// don't stall forever). Edges that are not inputs are ignored.
func (in *Instance) SeedWatermark(e *netsim.Edge, wm simtime.Time) {
	if s := in.slotOf(e); s >= 0 && !in.inHasWM[s] {
		in.inHasWM[s] = true
		in.inWM[s] = wm
		in.noWM--
	}
}
