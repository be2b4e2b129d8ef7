package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sli"
)

// This file implements the /traces endpoint: a Server-Sent Events
// stream of the run's trace events, in the exact JSON shape of the
// -trace-out JSONL artifact (obs.MarshalEvent). A client joining
// mid-run first receives the backlog, then live events, observing
// every event exactly once in sequence order — Tracer.Subscribe
// captures backlog and registration atomically.
//
// A slow client never blocks or reorders the simulation's stream:
// when its buffer fills, the newest events are dropped for that client
// (the delivered stream stays an exact prefix of the record, plus a
// gap visible in the seq numbers) and counted in the server-owned
// obs_trace_dropped_total{cause="slow-consumer"}. A graceful Drain
// ends the session instead; events still buffered but undelivered at
// that point are counted under cause="shutdown", so the two ways a
// client can miss events stay distinguishable.

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tracer := s.tracer()
	if tracer == nil {
		http.Error(w, "tracing disabled for this run", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	backlog, sub := tracer.Subscribe(s.opts.SSEBuffer)
	defer sub.Close()

	clients := s.reg.Gauge("obs_sse_clients", "Currently connected /traces SSE clients.")
	clients.Add(1)
	s.opts.SLI.SSESubscribers(int(s.sseClients.Add(1)))
	defer func() {
		clients.Add(-1)
		s.opts.SLI.SSESubscribers(int(s.sseClients.Add(-1)))
	}()
	droppedSlow := s.reg.Counter("obs_trace_dropped_total",
		"Trace events dropped on the /traces SSE fan-out, by cause (slow-consumer: drop-newest on a full client buffer; shutdown: buffered but undelivered at graceful drain).",
		obs.L("cause", sli.DropSlowConsumer))
	var droppedSeen uint64
	syncDropped := func() {
		if d := sub.Dropped(); d > droppedSeen {
			droppedSlow.Add(float64(d - droppedSeen))
			s.opts.SLI.SSEDropped(sli.DropSlowConsumer, d-droppedSeen)
			droppedSeen = d
		}
	}
	// dropShutdown counts the events a graceful drain leaves in the
	// subscription buffer: delivered-stream truncation the client can
	// attribute to the server stopping, not to its own slowness.
	dropShutdown := func() {
		n := uint64(len(sub.C()))
		if n == 0 {
			return
		}
		s.reg.Counter("obs_trace_dropped_total", //nolint:seriesname // cold: once per subscriber, at graceful drain
			"Trace events dropped on the /traces SSE fan-out, by cause (slow-consumer: drop-newest on a full client buffer; shutdown: buffered but undelivered at graceful drain).",
			obs.L("cause", sli.DropShutdown)).Add(float64(n))
		s.opts.SLI.SSEDropped(sli.DropShutdown, n)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	for _, e := range backlog {
		if err := writeSSEEvent(w, e); err != nil {
			return
		}
	}
	fl.Flush()
	// A session starting after Drain serves the backlog (final-state
	// reads stay possible until Close) and ends immediately.
	if s.Draining() {
		syncDropped()
		dropShutdown()
		return
	}

	// The heartbeat keeps proxies from reaping idle connections and
	// bounds how stale the dropped-event counter can go. It is wall
	// time by nature: this goroutine serves an external client and
	// never touches simulation state or artifacts.
	heartbeat := time.NewTicker(s.opts.Heartbeat) //nolint:nowalltime // SSE keep-alive for a live HTTP client; no simulation state involved
	defer heartbeat.Stop()

	for {
		select {
		case <-r.Context().Done():
			syncDropped()
			return
		case <-s.drainCh:
			// Graceful shutdown: end the session now, counting what the
			// buffer still holds as shutdown drops rather than racing to
			// deliver it.
			syncDropped()
			dropShutdown()
			return
		case <-heartbeat.C:
			syncDropped()
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil { //nolint:chanorder // keep-alive comment frame on a live HTTP stream; trace events carry seq numbers, so where heartbeats interleave cannot reorder the artifact
				return
			}
			fl.Flush()
		case e, open := <-sub.C():
			if !open {
				syncDropped()
				return
			}
			if err := writeSSEEvent(w, e); err != nil {
				syncDropped()
				return
			}
			// Drain whatever else is already buffered before flushing so
			// a burst costs one flush, then report drops.
			for drained := true; drained; {
				select {
				case e, open := <-sub.C():
					if !open {
						fl.Flush()
						syncDropped()
						return
					}
					if err := writeSSEEvent(w, e); err != nil {
						syncDropped()
						return
					}
				default:
					drained = false
				}
			}
			fl.Flush()
			syncDropped()
		}
	}
}

// writeSSEEvent renders one trace event as an SSE frame. The data
// payload is byte-identical to the corresponding -trace-out JSONL line.
func writeSSEEvent(w http.ResponseWriter, e obs.Event) error {
	line, err := obs.MarshalEvent(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: trace\nid: %d\ndata: %s\n\n", e.Seq, line)
	return err
}
