// Package simtime provides the virtual clock and event scheduler that the
// whole simulation runs on.
//
// Everything in this repository — record transmission, operator processing,
// state migration, scaling-signal propagation — is an event scheduled on a
// single Scheduler. Time is virtual: a "600 second" experiment is an event
// count, not wall time, so runs are fast and fully deterministic. Events at
// the same instant fire in the order they were scheduled, which makes every
// experiment replayable bit-for-bit.
//
// The scheduler is built for the simulation hot path: events live in a
// free-list pool (no per-event heap allocation in steady state), and the
// time ordering is a monotone radix heap (Ahuja, Mehlhorn, Orlin & Tarjan,
// JACM 1990). No event is ever scheduled before the current instant, so an
// event's bucket is the highest bit in which its time differs from the most
// recently fired one; pushes are appends, and events at the current instant —
// the ubiquitous After(0, ...) wake pattern — go straight into the FIFO
// bucket 0. A cancelled event is only marked: it holds its pool slot until
// the scheduler reaches its bucket, and never counts as pending.
package simtime

import (
	"fmt"
	"math/bits"
)

// Time is an instant in virtual time, in microseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Convenient duration units.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Ms constructs a Duration from milliseconds.
func Ms(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Sec constructs a Duration from seconds.
func Sec(s float64) Duration { return Duration(s * float64(Second)) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between t and earlier instant o.
func (t Time) Sub(o Time) Duration { return Duration(t - o) }

// Millis reports t in (fractional) milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Seconds reports t in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Millis reports d in (fractional) milliseconds.
func (d Duration) Millis() float64 { return float64(d) / float64(Millisecond) }

// Seconds reports d in (fractional) seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// String formats the duration as milliseconds.
func (d Duration) String() string { return fmt.Sprintf("%.3fms", d.Millis()) }

// event is one pooled scheduler entry. Events are recycled through a free
// list; the generation counter invalidates stale Timer handles on reuse. A
// nil fn marks a cancelled event whose slot is not yet released.
type event struct {
	fn  func()
	gen uint32
}

// entry is a queued event: its pool slot, with the time stored inline so a
// bucket scan never touches the pool.
type entry struct {
	at Time
	i  int32
}

// Timer is a handle to a scheduled event. The zero Timer is valid and
// behaves as an already-fired event. Cancelling a fired or already cancelled
// timer is a no-op.
type Timer struct {
	s   *Scheduler
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Reports whether the event was still
// pending. The event leaves Pending() at once; its pool slot is released when
// the scheduler reaches the event's bucket.
func (t Timer) Cancel() bool {
	if t.s == nil {
		return false
	}
	return t.s.cancel(t.idx, t.gen)
}

// Pending reports whether the timer's event has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	if t.s == nil {
		return false
	}
	ev := &t.s.pool[t.idx]
	return ev.gen == t.gen && ev.fn != nil
}

// Scheduler is a deterministic discrete-event scheduler.
//
// It is not safe for concurrent use; each simulation is single-threaded by
// design (the parallel scenario runner gives every run its own Scheduler).
type Scheduler struct {
	now     Time
	stepped uint64
	live    int // scheduled and neither fired nor cancelled
	dead    int // cancelled but still queued

	pool []event
	free []int32

	// last is the time of the most recently settled minimum (last <= now),
	// and only ever the time of a live event about to fire. An entry at t
	// sits in buckets[bits.Len64(t^last)]; times are never negative, so 64
	// buckets cover every key (the & 63 below only drops bounds checks).
	// Each bucket is in scheduling order. Bucket 0 holds the entries at last
	// and drains FIFO from head. Bit k of mask is set when bucket k holds
	// entries; bit 0 is not kept up to date.
	last    Time
	head    int
	mask    uint64
	buckets [64][]entry
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Scheduler) Processed() uint64 { return s.stepped }

// Pending reports how many events are scheduled and still runnable.
// Cancelled events never count, though they stay queued until reached.
func (s *Scheduler) Pending() int { return s.live }

// release returns a slot to the free list, invalidating outstanding Timers.
func (s *Scheduler) release(i int32) {
	ev := &s.pool[i]
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, i)
}

// At schedules fn to run at instant t. Scheduling in the past panics: it
// always indicates a simulation bug. Events at the same instant fire in the
// order they were scheduled.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("simtime: scheduling a nil func")
	}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.pool[i].fn = fn
	} else {
		i = int32(len(s.pool))
		s.pool = append(s.pool, event{fn: fn})
	}
	s.live++
	k := bits.Len64(uint64(t^s.last)) & 63
	if k == 0 && s.head > 0 && len(s.buckets[0]) == cap(s.buckets[0]) {
		// Drop bucket 0's fired prefix before it would grow: a chain that
		// keeps scheduling at the current instant stays in bounded space.
		s.buckets[0] = s.buckets[0][:copy(s.buckets[0], s.buckets[0][s.head:])]
		s.head = 0
	}
	s.buckets[k] = append(s.buckets[k], entry{t, i})
	s.mask |= 1 << k
	return Timer{s: s, idx: i, gen: s.pool[i].gen}
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

func (s *Scheduler) cancel(idx int32, gen uint32) bool {
	ev := &s.pool[idx]
	if ev.gen != gen || ev.fn == nil {
		return false
	}
	ev.fn = nil
	s.live--
	s.dead++
	if s.dead > s.live+purgeSlack {
		s.purge()
	}
	return true
}

// purgeSlack is how many more cancelled than live entries the queue holds
// before purge runs.
const purgeSlack = 32

// purge releases every cancelled entry, keeping each bucket's order. It runs
// once cancelled entries outnumber live ones by purgeSlack, so the queue
// stays within twice the pending count plus the slack, and each cancel costs
// amortised O(1).
func (s *Scheduler) purge() {
	b0 := s.buckets[0]
	s.buckets[0] = b0[:copy(b0, b0[s.head:])]
	s.head = 0
	for m := s.mask | 1; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		b := s.buckets[k][:0]
		for _, e := range s.buckets[k] {
			if s.pool[e.i].fn == nil {
				s.release(e.i)
			} else {
				b = append(b, e)
			}
		}
		s.buckets[k] = b
		if len(b) == 0 {
			s.mask &^= 1 << k
		}
	}
	s.dead = 0
}

// settle refills the drained bucket 0 from the lowest non-empty bucket k: it
// finds the earliest live time there, makes it last, and moves the entries,
// in order, into the lower buckets (all empty by then). Entries of cancelled
// events are released on the way. It reports false, leaving last alone, when
// no live event lies at or before limit.
func (s *Scheduler) settle(limit Time) bool {
	for s.mask&^1 != 0 {
		k := bits.TrailingZeros64(s.mask &^ 1)
		b := s.buckets[k]
		lo, hi := maxTime, Time(-1)
		for _, e := range b {
			if s.dead == 0 || s.pool[e.i].fn != nil {
				lo = min(lo, e.at)
				hi = max(hi, e.at)
			}
		}
		if hi < 0 {
			// Only cancelled entries: release them and look further.
			for _, e := range b {
				s.release(e.i)
			}
			s.dead -= len(b)
			s.buckets[k] = b[:0]
			s.mask &^= 1 << k
			continue
		}
		if lo > limit {
			return false
		}
		s.last = lo
		s.head = 0
		s.mask &^= 1 << k
		if lo == hi {
			// One instant, already in order: the bucket becomes bucket 0
			// whole. Cancelled entries may come along; step skips them.
			s.buckets[0], s.buckets[k] = b, s.buckets[0][:0]
			return true
		}
		s.buckets[0] = s.buckets[0][:0]
		s.buckets[k] = b[:0]
		for _, e := range b {
			if s.dead > 0 && s.pool[e.i].fn == nil {
				s.release(e.i)
				s.dead--
				continue
			}
			j := bits.Len64(uint64(e.at^lo)) & 63
			s.buckets[j] = append(s.buckets[j], e)
			s.mask |= 1 << j
		}
		return true
	}
	return false
}

// step fires the next event if it lies at or before limit.
func (s *Scheduler) step(limit Time) bool {
	for s.live > 0 {
		if s.head == len(s.buckets[0]) && !s.settle(limit) {
			return false
		}
		if s.last > limit {
			return false
		}
		e := s.buckets[0][s.head]
		s.head++
		fn := s.pool[e.i].fn
		s.release(e.i)
		if fn == nil {
			s.dead--
			continue
		}
		s.now = e.at
		s.live--
		s.stepped++
		fn()
		return true
	}
	return false
}

// Step fires the next event. It reports false when no runnable event remains.
func (s *Scheduler) Step() bool { return s.step(maxTime) }

// RunUntil fires every event at or before t, then leaves the clock at
// max(t, now): it never moves backwards.
func (s *Scheduler) RunUntil(t Time) {
	for s.step(t) {
	}
	if s.now < t {
		s.now = t
	}
}

// Run fires events until none remain.
func (s *Scheduler) Run() {
	for s.step(maxTime) {
	}
}

// maxTime is the latest representable instant.
const maxTime = Time(1<<63 - 1)
