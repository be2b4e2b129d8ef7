package main

import "time"

// clock is the generator's view of time, so the due-time arithmetic can
// be tested against a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loopSample is one scheduled request. All three times are offsets from
// the schedule's start: when it was due, when it was actually sent, and
// when its reply was complete.
type loopSample struct {
	Index           int
	Due, Sent, Done time.Duration
	OK              bool
}

// latency is measured from the due time, so a stall charges the wait it
// imposes on every request queued behind it.
func (s loopSample) latency() time.Duration { return s.Done - s.Due }

// lateness is how far behind schedule the generator sent the request.
func (s loopSample) lateness() time.Duration { return s.Sent - s.Due }

// openLoop issues n requests on one connection on a fixed schedule:
// request i is due at start + i×period whether or not earlier replies
// have arrived. One connection sends sequentially, so a slow reply
// makes later requests late rather than dropping them; that lateness is
// recorded, not hidden. Requests still unsent at giveUp are abandoned
// and returned with OK false and Sent = Done = the abandon time.
func openLoop(clk clock, start time.Time, period time.Duration, n int, giveUp time.Duration, do func(i int) bool) []loopSample {
	out := make([]loopSample, 0, n)
	for i := 0; i < n; i++ {
		due := time.Duration(i) * period
		now := clk.Now().Sub(start)
		if now > giveUp {
			out = append(out, loopSample{Index: i, Due: due, Sent: now, Done: now})
			continue
		}
		if now < due {
			clk.Sleep(due - now)
		}
		sent := clk.Now().Sub(start)
		ok := do(i)
		out = append(out, loopSample{Index: i, Due: due, Sent: sent, Done: clk.Now().Sub(start), OK: ok})
	}
	return out
}
