package simtime

import (
	"fmt"
	"slices"
	"testing"
)

// The order tests drive the scheduler and a reference model with the same
// decoded operation sequence and compare what each observes: which event
// fires when, Now(), Pending(), and the results of Cancel and Step. The model
// is the specification: pending events sorted by (time, scheduling order).

// queue is the surface the operation driver uses; the real scheduler and the
// reference model both implement it.
type queue interface {
	At(t Time, fn func()) handle
	Step() bool
	RunUntil(t Time)
	Now() Time
	Pending() int
}

type handle interface {
	Cancel() bool
	Pending() bool
}

type realQueue struct{ *Scheduler }

func (q realQueue) At(t Time, fn func()) handle { return q.Scheduler.At(t, fn) }

// refQueue is the reference model: a flat list scanned for the least
// (at, seq) on every step.
type refQueue struct {
	now  Time
	seq  int
	list []*refEvent
}

type refEvent struct {
	q   *refQueue
	at  Time
	seq int
	fn  func()
}

func (q *refQueue) At(t Time, fn func()) handle {
	if t < q.now {
		panic("reference: scheduling in the past")
	}
	ev := &refEvent{q: q, at: t, seq: q.seq, fn: fn}
	q.seq++
	q.list = append(q.list, ev)
	return ev
}

func (e *refEvent) Pending() bool { return slices.Contains(e.q.list, e) }

func (e *refEvent) Cancel() bool {
	i := slices.Index(e.q.list, e)
	if i < 0 {
		return false
	}
	e.q.list = slices.Delete(e.q.list, i, i+1)
	return true
}

// next returns the index of the least (at, seq) event, or -1.
func (q *refQueue) next() int {
	best := -1
	for i, e := range q.list {
		if best < 0 || e.at < q.list[best].at || (e.at == q.list[best].at && e.seq < q.list[best].seq) {
			best = i
		}
	}
	return best
}

func (q *refQueue) Step() bool {
	i := q.next()
	if i < 0 {
		return false
	}
	e := q.list[i]
	q.list = slices.Delete(q.list, i, i+1)
	q.now = e.at
	e.fn()
	return true
}

func (q *refQueue) RunUntil(t Time) {
	for i := q.next(); i >= 0 && q.list[i].at <= t; i = q.next() {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

func (q *refQueue) Now() Time    { return q.now }
func (q *refQueue) Pending() int { return len(q.list) }

// orderDelays are the fixed delays the driver draws from: the current
// instant, one tick, and the processing, transfer and hop delays that
// dominate a rescale.
var orderDelays = [...]Duration{0, 1, 10, 500, 2500}

// driveOrder decodes data into operations on q and returns the log of what
// q reported. Each operation is one byte, followed by its argument bytes;
// missing bytes read as zero. Run() drains the queue at the end.
func driveOrder(data []byte, q queue) []string {
	var log []string
	var timers []handle
	ids := 0
	byteAt := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	cancel := func(pick byte) {
		if len(timers) == 0 {
			return
		}
		h := timers[int(pick)%len(timers)]
		was := h.Pending()
		log = append(log, fmt.Sprintf("cancel pending=%v ok=%v", was, h.Cancel()))
	}
	// schedule adds an event d from now. When it fires it logs itself and
	// acts on nest: 1 schedules at the current instant, 2 schedules at a
	// fixed delay, 3 cancels a timer; nest's higher digits feed the child.
	var schedule func(d Duration, nest int)
	schedule = func(d Duration, nest int) {
		id := ids
		ids++
		timers = append(timers, q.At(q.Now().Add(d), func() {
			log = append(log, fmt.Sprintf("fire %d at %d pending %d", id, q.Now(), q.Pending()))
			switch nest % 4 {
			case 1:
				schedule(0, nest/4)
			case 2:
				schedule(orderDelays[nest/4%len(orderDelays)], nest/16)
			case 3:
				cancel(byte(nest / 4))
			}
		}))
	}
	for len(data) > 0 {
		switch op := byteAt() % 11; op {
		case 0, 1, 2, 3, 4:
			schedule(orderDelays[op], int(byteAt()))
		case 5:
			d := Duration(byteAt()) | Duration(byteAt())<<8 | Duration(byteAt())<<16
			schedule(d, int(byteAt()))
		case 6:
			cancel(byteAt())
		case 7:
			log = append(log, fmt.Sprintf("step %v", q.Step()))
		case 8:
			// Limits reach up to ~32K ticks either side of now; a limit
			// before now fires nothing and leaves the clock alone.
			d := Duration(int16(uint16(byteAt()) | uint16(byteAt())<<8))
			q.RunUntil(q.Now().Add(d))
			log = append(log, fmt.Sprintf("rununtil %d", d))
		case 9:
			// A burst of pushes onto one future instant, the shape that
			// lands many events in the same bucket.
			d := orderDelays[byteAt()%uint8(len(orderDelays))]
			for n := byteAt()%8 + 1; n > 0; n-- {
				schedule(d, 0)
			}
		case 10:
			// A cancel storm: every stride-th timer from a start index,
			// enough to make cancelled entries outnumber live ones.
			start, stride := int(byteAt()), int(byteAt()%4)+1
			ok := 0
			for i := start; i < len(timers); i += stride {
				if timers[i].Cancel() {
					ok++
				}
			}
			log = append(log, fmt.Sprintf("cancelled %d", ok))
		}
		log = append(log, fmt.Sprintf("now %d pending %d", q.Now(), q.Pending()))
	}
	for q.Step() {
	}
	log = append(log, fmt.Sprintf("drained now %d pending %d", q.Now(), q.Pending()))
	return log
}

// checkOrder runs data against the scheduler and the model and reports the
// first point where their logs differ.
func checkOrder(t *testing.T, data []byte) {
	t.Helper()
	got := driveOrder(data, realQueue{NewScheduler()})
	want := driveOrder(data, &refQueue{})
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("log line %d: scheduler %q, model %q\nscheduler: %v\nmodel:     %v",
				i, got[i], want[i], got[max(0, i-5):i+1], want[max(0, i-5):i+1])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("scheduler logged %d lines, model %d", len(got), len(want))
	}
}

// FuzzSchedulerOrder checks the scheduler against the reference model on
// arbitrary operation sequences. Run it with
//
//	go test ./internal/simtime -run '^$' -fuzz FuzzSchedulerOrder -fuzztime 20s
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0, 3, 0, 6, 0, 7, 1, 5, 7, 7})
	f.Add([]byte{0, 1, 0, 5, 0, 9, 7, 7, 7, 7})
	f.Add([]byte{4, 0, 8, 100, 0, 2, 0, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		checkOrder(t, data)
	})
}

// TestSchedulerOrderSeeds runs the fuzz target's check on 300 seeded random
// operation sequences, so plain go test covers it too.
func TestSchedulerOrderSeeds(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		r := NewRNG(seed, "order")
		data := make([]byte, 64+r.Intn(961))
		r.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkOrder(t, data) })
	}
}

// TestSchedulerCancelledMinimumKeepsOrder cancels the earliest future
// events, steps to drain the current instant, then schedules between now
// and the cancelled time: the cancelled entries must neither fire nor
// become the scheduler's reference time, which only a live event may set.
func TestSchedulerCancelledMinimumKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	rec := func() { got = append(got, s.Now()) }
	s.At(0, rec)
	early := s.At(100, rec)
	s.At(100, rec).Cancel()
	s.At(120, rec)
	s.At(200, rec)
	early.Cancel()
	if !s.Step() || s.Now() != 0 {
		t.Fatalf("first step: now %v", s.Now())
	}
	s.At(63, rec)
	s.At(50, rec)
	s.At(60, rec)
	s.Run()
	if want := []Time{0, 50, 60, 63, 120, 200}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestSchedulerRunUntilShortKeepsOrder stops RunUntil short of a pending
// event, then schedules between the two: peeking at the next event must not
// move the scheduler's reference time.
func TestSchedulerRunUntilShortKeepsOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	rec := func() { got = append(got, s.Now()) }
	s.At(100, rec)
	s.RunUntil(50)
	if s.Now() != 50 || len(got) != 0 {
		t.Fatalf("RunUntil(50): now %v, fired %v", s.Now(), got)
	}
	s.At(99, rec)
	s.At(70, rec)
	s.At(64, rec)
	s.Run()
	if want := []Time{64, 70, 99, 100}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestSchedulerCancelStormPurges cancels most of a large queue: cancelled
// entries are released once they outnumber live ones, and the survivors
// still fire in order.
func TestSchedulerCancelStormPurges(t *testing.T) {
	s := NewScheduler()
	var got []Time
	rec := func() { got = append(got, s.Now()) }
	var timers []Timer
	for i := range 1000 {
		timers = append(timers, s.At(Time(i%250*7+1), rec))
	}
	var want []Time
	for i, tm := range timers {
		if i%10 == 3 {
			want = append(want, Time(i%250*7+1))
			continue
		}
		tm.Cancel()
	}
	queued := len(s.buckets[0]) - s.head
	for k := 1; k < len(s.buckets); k++ {
		queued += len(s.buckets[k])
	}
	if s.Pending() != 100 || queued > 2*s.Pending()+purgeSlack {
		t.Fatalf("pending %d with %d entries queued, want 100 and at most %d", s.Pending(), queued, 2*100+purgeSlack)
	}
	s.Run()
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
}

// TestSchedulerSameInstantChainBounded runs a 10^5-long After(0) chain
// alongside a second one: bucket 0 drops its fired prefix instead of
// growing with the chain.
func TestSchedulerSameInstantChainBounded(t *testing.T) {
	s := NewScheduler()
	const n = 100000
	var fired int
	var chain func()
	chain = func() {
		if fired++; fired < n {
			s.After(0, chain)
		}
	}
	s.At(7, chain)
	s.At(7, chain)
	s.Run()
	if fired != n+1 || s.Now() != 7 {
		t.Fatalf("fired %d at %v, want %d at 7", fired, s.Now(), n+1)
	}
	if c := cap(s.buckets[0]); c > 64 {
		t.Fatalf("bucket 0 grew to capacity %d during a same-instant chain", c)
	}
}
