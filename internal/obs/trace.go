package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the event tracer. Events are stamped with
// *simulation* time read from the injected Clock (never the wall
// clock — instrumented packages are subject to rwc-lint's nowalltime
// rule), plus a monotonically increasing sequence number that orders
// events sharing a timestamp. The JSONL export is byte-identical
// across identical runs.

// Attr is one key/value annotation on an event. A value is an int,
// an int64, a finite float64 or a string; a value of any other kind is
// recorded as an error that the trace writers return.
type Attr struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Attr at call sites.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Event is one trace record.
type Event struct {
	// Seq is the global order of the event within the run (1-based).
	Seq int
	// T is the simulation time when the event was recorded.
	T time.Duration
	// Name identifies the instrumentation site (e.g. "wan.order").
	Name string
	// Attrs annotates the event.
	Attrs []Attr
}

// Tracer records events as the JSONL artifact will render them, not as
// Go values: each event is encoded at once into an append-only record
// log (see tracelog.go), and every reader — Events, Subscribe's
// backlog, Merge and the JSONL writer — decodes the records. All
// methods are nil-safe: a nil *Tracer is the disabled state.
type Tracer struct {
	mu    sync.Mutex
	clock Clock
	log   eventLog
	subs  []*Subscription
	// fields is Event's scratch: the attrs as the log encodes them.
	fields []field
	// err is the first recorded event that cannot render (a NaN or
	// infinite float, a value encoding/json refuses), kept so the
	// artifact writers fail before they write anything (JSONL.Err).
	err error
}

// NewTracer returns a tracer stamping events from clock (a nil clock
// stamps every event t=0, leaving ordering to sequence numbers).
func NewTracer(clock Clock) *Tracer {
	return &Tracer{clock: clock}
}

// now reads the clock under the tracer lock.
func (t *Tracer) now() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// Event records a point event.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	fields := t.fields[:0]
	for _, a := range attrs {
		fields = append(fields, fieldOf(a))
	}
	t.fields = fields
	at := t.now()
	seq := t.recordLocked(name, at, fields)
	// Subscribers get their own copy of attrs, so the caller's slice
	// does not escape and an unsubscribed event allocates none.
	if len(t.subs) > 0 {
		t.publishLocked(Event{Seq: seq, T: at, Name: name, Attrs: append([]Attr(nil), attrs...)})
	}
	t.mu.Unlock()
}

// recordLocked appends one event to the log, noting the first one that
// cannot render, and returns its sequence number. Callers hold t.mu.
func (t *Tracer) recordLocked(name string, at time.Duration, fields []field) int {
	seq := t.log.n + 1
	if t.err == nil {
		if err := renderErr(fields); err != nil {
			t.err = fmt.Errorf("obs: marshal trace event %d: %w", seq, err)
		}
	}
	t.log.add(name, at, fields)
	return seq
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log.n
}

// Events decodes the recorded events. Attr values come back as the
// types they were recorded with (int, int64, float64, string); a value
// of any other type comes back as one that fails to marshal with the
// error it was recorded with.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	v := t.log.view()
	t.mu.Unlock()
	return v.events()
}

// Subscription is one live tail of a tracer's event stream (the SSE
// /traces endpoint holds one per connected client). Delivery never
// blocks the simulation: when the subscriber's buffer is full the
// incoming event is dropped for that subscriber — deterministically
// the *newest* event, so the delivered prefix is always an exact
// prefix of the recorded stream — and counted in Dropped.
type Subscription struct {
	t       *Tracer
	ch      chan Event
	dropped atomic.Uint64
	closed  bool
}

// Subscribe registers a live tail with the given channel buffer
// (minimum 1) and returns the backlog of events already recorded —
// captured atomically with the registration, so backlog + channel
// reads observe every event exactly once, in sequence order, even
// when the subscriber joins mid-run. Close the subscription when done.
// A nil tracer returns a nil backlog and nil subscription (whose
// methods are all safe).
func (t *Tracer) Subscribe(buffer int) ([]Event, *Subscription) {
	if t == nil {
		return nil, nil
	}
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{t: t, ch: make(chan Event, buffer)}
	t.mu.Lock()
	v := t.log.view()
	t.subs = append(t.subs, sub)
	t.mu.Unlock()
	return v.events(), sub
}

// publishLocked fans one freshly recorded event out to the live
// subscribers. Callers hold t.mu.
func (t *Tracer) publishLocked(e Event) {
	for _, sub := range t.subs {
		select {
		case sub.ch <- e:
		default:
			// Slow consumer: drop the newest event for this subscriber
			// (drop-newest keeps the delivered stream a strict prefix +
			// gap, never a reordering) and count it.
			sub.dropped.Add(1)
		}
	}
}

// C is the live event channel (nil on a nil subscription, which
// blocks forever in a select — the idiomatic disabled state).
func (s *Subscription) C() <-chan Event {
	if s == nil {
		return nil
	}
	return s.ch
}

// Dropped returns how many events were dropped for this subscriber.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close unregisters the subscription and closes its channel (draining
// any buffered events is still allowed after Close returns).
func (s *Subscription) Close() {
	if s == nil || s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for i, sub := range s.t.subs {
		if sub == s {
			s.t.subs = append(s.t.subs[:i], s.t.subs[i+1:]...)
			break
		}
	}
	close(s.ch)
}
