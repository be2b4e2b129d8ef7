package obs

import (
	"fmt"
	"sync"
	"testing"
)

// drain empties everything currently buffered on the subscription.
func drain(sub *Subscription) []Event {
	var out []Event
	for {
		select {
		case e, ok := <-sub.C():
			if !ok {
				return out
			}
			out = append(out, e)
		default:
			return out
		}
	}
}

func TestSubscribeNilTracer(t *testing.T) {
	var tr *Tracer
	backlog, sub := tr.Subscribe(4)
	if backlog != nil || sub != nil {
		t.Fatal("nil tracer should return nil backlog and subscription")
	}
	sub.Close()
	if sub.Dropped() != 0 {
		t.Fatal("nil subscription Dropped should be 0")
	}
}

func TestSubscribeMidRunSeesEveryEventOnce(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < 5; i++ {
		tr.Event("early", A("i", i))
	}
	backlog, sub := tr.Subscribe(64)
	defer sub.Close()
	if len(backlog) != 5 {
		t.Fatalf("backlog = %d events, want 5", len(backlog))
	}
	for i := 5; i < 12; i++ {
		tr.Event("late", A("i", i))
	}
	live := drain(sub)
	seqs := make([]int, 0, len(backlog)+len(live))
	for _, e := range append(backlog, live...) {
		seqs = append(seqs, e.Seq)
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("gap or duplicate: seqs=%v", seqs)
		}
	}
	if len(seqs) != 12 {
		t.Fatalf("saw %d events, want 12", len(seqs))
	}
	if sub.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", sub.Dropped())
	}
}

func TestSlowConsumerDropPolicyIsDeterministic(t *testing.T) {
	tr := NewTracer(nil)
	_, sub := tr.Subscribe(3)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		tr.Event("e", A("i", i))
	}
	// Drop-newest: exactly the first 3 events are buffered, the last 7
	// dropped — same outcome on every run.
	if got := sub.Dropped(); got != 7 {
		t.Fatalf("Dropped = %d, want 7", got)
	}
	buffered := drain(sub)
	if len(buffered) != 3 {
		t.Fatalf("buffered %d events, want 3", len(buffered))
	}
	for i, e := range buffered {
		if e.Seq != i+1 {
			t.Fatalf("delivered stream is not a prefix: event %d has seq %d", i, e.Seq)
		}
	}
}

func TestSubscribeUnderConcurrentWrites(t *testing.T) {
	tr := NewTracer(nil)
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				tr.Event(fmt.Sprintf("w%d", w), A("i", i))
			}
		}(w)
	}
	// Join mid-run: subscribe after the writers are poised, with a
	// buffer large enough that nothing drops.
	backlog, sub := tr.Subscribe(writers * perWriter)
	defer sub.Close()
	close(start)
	wg.Wait()
	total := len(backlog) + len(drain(sub)) + int(sub.Dropped())
	if total != writers*perWriter {
		t.Fatalf("backlog+live+dropped = %d, want %d", total, writers*perWriter)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("buffer was large enough; drops = %d", sub.Dropped())
	}
}

func TestCloseUnsubscribes(t *testing.T) {
	tr := NewTracer(nil)
	_, sub := tr.Subscribe(1)
	sub.Close()
	sub.Close() // idempotent
	tr.Event("after-close")
	if sub.Dropped() != 0 {
		t.Fatal("events after Close must not count as drops")
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel should be closed")
	}
	if tr.Len() != 1 {
		t.Fatal("tracer itself keeps recording")
	}
}

func TestMergePublishesToParentSubscribers(t *testing.T) {
	parent := NewTracer(nil)
	parent.Event("p1")
	_, sub := parent.Subscribe(16)
	defer sub.Close()
	child := NewTracer(nil)
	child.Event("c1")
	child.Event("c2")
	parent.Merge(child)
	live := drain(sub)
	if len(live) != 2 {
		t.Fatalf("subscriber saw %d merged events, want 3", len(live))
	}
	if live[0].Name != "c1" || live[0].Seq != 2 {
		t.Fatalf("merged event not renumbered for subscriber: %+v", live[0])
	}
}
