package obs

import (
	"encoding/json"
	"fmt"
	"io"
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

// Attr is one key/value annotation on an event. Values must be
// JSON-marshalable; the instrumentation sticks to strings, ints,
// floats, and bools.
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

// Tracer records events in memory for a JSONL dump at the end of the
// run. All methods are nil-safe: a nil *Tracer is the disabled state.
type Tracer struct {
	mu     sync.Mutex
	clock  Clock
	events []Event
	subs   []*Subscription
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
	e := Event{Seq: len(t.events) + 1, T: t.now(), Name: name, Attrs: attrs}
	t.events = append(t.events, e)
	t.publishLocked(e)
	t.mu.Unlock()
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
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
	backlog := append([]Event(nil), t.events...)
	t.subs = append(t.subs, sub)
	t.mu.Unlock()
	return backlog, sub
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

// eventJSON is the wire shape of one JSONL line. Attrs marshal as a
// JSON object; encoding/json sorts map keys, so output is stable. Kind
// is always "event": every record is a point event, and the field keeps
// the line shape trace readers parse.
type eventJSON struct {
	Seq   int            `json:"seq"`
	TNs   int64          `json:"t_ns"`
	Kind  string         `json:"kind"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// MarshalEvent renders one event as the canonical JSON object used by
// both the -trace-out JSONL artifact and the live SSE /traces stream.
func MarshalEvent(e Event) ([]byte, error) {
	rec := eventJSON{Seq: e.Seq, TNs: e.T.Nanoseconds(), Kind: "event", Name: e.Name}
	if len(e.Attrs) > 0 {
		rec.Attrs = make(map[string]any, len(e.Attrs))
		for _, a := range e.Attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("obs: marshal trace event %d: %w", e.Seq, err)
	}
	return line, nil
}

// WriteJSONL writes one JSON object per event, in sequence order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, e := range t.Events() {
		line, err := MarshalEvent(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
