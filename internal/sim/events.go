package sim

import "container/heap"

// The event queue is a calendar (bucket) queue: pending events live in a
// ring of time buckets, each covering 2^bucketShift ns, so scheduling and
// firing are O(1) amortized instead of the O(log n) of a binary heap.
// Events beyond the ring's horizon wait in a small overflow heap and
// migrate into buckets as the window advances.
const (
	// bucketShift sets the bucket width: 2^20 ns ≈ 1.05 ms.
	bucketShift = 20
	// numBuckets sizes the ring; the covered horizon is
	// numBuckets << bucketShift ≈ 1.07 s, longer than one profiling
	// epoch, so steady-state scheduling never touches the overflow heap.
	numBuckets = 1024
	bucketMask = numBuckets - 1
)

// Event slot sentinels; a non-negative slot is the ring bucket holding
// the event.
const (
	slotDone = -1 // fired or cancelled
	slotFar  = -2 // waiting in the overflow heap
)

// Event is a callback scheduled to fire at a simulated time. Events with
// equal times fire in scheduling order (FIFO), which keeps runs
// deterministic regardless of queue internals.
type Event struct {
	At Time
	Fn func(now Time)

	seq  uint64
	tick int64 // At >> bucketShift
	slot int32 // ring bucket index, or slotDone/slotFar
	pos  int32 // index within its bucket slice or the overflow heap
}

// Cancelled reports whether the event has been removed from its queue
// (either fired or cancelled).
func (e *Event) Cancelled() bool { return e.slot == slotDone }

// farHeap is the overflow min-heap ordered by (At, seq) holding events
// scheduled beyond the ring's current window.
type farHeap []*Event

func (h farHeap) Len() int { return len(h) }
func (h farHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h farHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = int32(i)
	h[j].pos = int32(j)
}
func (h *farHeap) Push(x any) {
	e := x.(*Event)
	e.pos = int32(len(*h))
	*h = append(*h, e)
}
func (h *farHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Queue is a discrete-event scheduler bound to a Clock. The zero value is
// unusable; construct with NewQueue.
type Queue struct {
	clock *Clock
	seq   uint64

	// buckets is the calendar ring. While a tick is inside
	// [winStart, winStart+numBuckets), bucket (tick & bucketMask) holds
	// exactly that tick's events and no other's.
	buckets [numBuckets][]*Event
	// winStart is the lowest tick the ring currently covers.
	winStart int64
	// count is the number of events in the ring (excluding far).
	count int
	// far holds events past the ring horizon.
	far farHeap
}

// NewQueue returns an event queue driving clock.
func NewQueue(clock *Clock) *Queue {
	return &Queue{clock: clock}
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.count + len(q.far) }

// insertBucket places e — whose tick must be inside the window — in its
// ring bucket.
func (q *Queue) insertBucket(e *Event) {
	slot := int32(e.tick & bucketMask)
	e.slot = slot
	b := q.buckets[slot]
	e.pos = int32(len(b))
	q.buckets[slot] = append(b, e)
	q.count++
}

// removeBucket unlinks e from its ring bucket by swap-remove.
func (q *Queue) removeBucket(e *Event) {
	b := q.buckets[e.slot]
	i := int(e.pos)
	last := len(b) - 1
	if i != last {
		b[i] = b[last]
		b[i].pos = int32(i)
	}
	b[last] = nil
	q.buckets[e.slot] = b[:last]
	q.count--
}

// drainFar migrates overflow events that now fall inside the window into
// their ring buckets.
func (q *Queue) drainFar() {
	for len(q.far) > 0 && q.far[0].tick < q.winStart+numBuckets {
		q.insertBucket(heap.Pop(&q.far).(*Event))
	}
}

// lowerWindow slides the window start down to newStart (below the current
// winStart), evicting ring events that the moved view pushes past the
// horizon back into the overflow heap. This only happens when a fresh
// event is scheduled below a window that previously jumped forward across
// an idle gap — rare by construction.
func (q *Queue) lowerWindow(newStart int64) {
	horizon := newStart + numBuckets
	for slot := range q.buckets {
		b := q.buckets[slot]
		for i := 0; i < len(b); {
			e := b[i]
			if e.tick < horizon {
				i++
				continue
			}
			last := len(b) - 1
			if i != last {
				b[i] = b[last]
				b[i].pos = int32(i)
			}
			b[last] = nil
			b = b[:last]
			q.count--
			e.slot = slotFar
			heap.Push(&q.far, e)
		}
		q.buckets[slot] = b
	}
	q.winStart = newStart
}

// peekMin returns the earliest pending event without removing it, or nil
// when the queue is empty. It advances the window past empty buckets,
// draining overflow events as they come into range, and jumps straight
// across fully idle gaps.
func (q *Queue) peekMin() *Event {
	for {
		if q.count == 0 {
			if len(q.far) == 0 {
				return nil
			}
			q.winStart = q.far[0].tick
			q.drainFar()
			continue
		}
		if b := q.buckets[q.winStart&bucketMask]; len(b) > 0 {
			best := b[0]
			for _, e := range b[1:] {
				if e.At < best.At || (e.At == best.At && e.seq < best.seq) {
					best = e
				}
			}
			return best
		}
		q.winStart++
		q.drainFar()
	}
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past panics: it would silently reorder causality.
func (q *Queue) At(t Time, fn func(now Time)) *Event {
	if t < q.clock.Now() {
		panic("sim: scheduling event in the past")
	}
	e := &Event{At: t, Fn: fn, seq: q.seq, tick: int64(t) >> bucketShift}
	q.seq++
	switch {
	case q.count == 0 && len(q.far) == 0:
		// Empty queue: re-anchor the window at the new event.
		q.winStart = e.tick
	case e.tick < q.winStart:
		q.lowerWindow(e.tick)
	}
	if e.tick >= q.winStart+numBuckets {
		e.slot = slotFar
		heap.Push(&q.far, e)
	} else {
		q.insertBucket(e)
	}
	return e
}

// After schedules fn to run d after the current time.
func (q *Queue) After(d Duration, fn func(now Time)) *Event {
	return q.At(q.clock.Now()+Time(d), fn)
}

// Cancel removes a pending event; it is a no-op if the event already fired.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.slot == slotDone {
		return
	}
	if e.slot == slotFar {
		heap.Remove(&q.far, int(e.pos))
	} else {
		q.removeBucket(e)
	}
	e.slot = slotDone
	// Drop the callback so a retained *Event cannot pin the closure's
	// captures after the queue is done with it.
	e.Fn = nil
}

// PeekTime returns the time of the next pending event, or ok=false when
// the queue is empty.
func (q *Queue) PeekTime() (Time, bool) {
	e := q.peekMin()
	if e == nil {
		return 0, false
	}
	return e.At, true
}

// Step fires the single next event, advancing the clock to its time. It
// returns false when no events remain.
func (q *Queue) Step() bool {
	e := q.peekMin()
	if e == nil {
		return false
	}
	q.removeBucket(e)
	e.slot = slotDone
	fn := e.Fn
	// Popped events are often retained by callers (for Cancelled
	// checks); nil the callback so its captures are collectable.
	e.Fn = nil
	q.clock.AdvanceTo(e.At)
	fn(e.At)
	return true
}
