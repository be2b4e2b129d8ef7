// Package telemetry is the wire between optical monitoring and the
// controller: a TCP server that streams per-link SNR samples to
// subscribers (the role an optical monitoring collector plays in
// production) and a client the controller consumes updates from.
//
// Wire protocol (all little-endian, length-prefixed):
//
//	frame := u32 length | u8 type | payload
//	type 1 (sample):  u32 linkIndex | i64 unixNano | f32 snrdB
//	type 2 (catalog): u32 nLinks | nLinks × (u16 nameLen | name)
//
// A session starts with one catalog frame, then sample frames until
// either side closes. The framing keeps parsing trivial and the
// fixed-size sample payload keeps the hot path allocation-free.
package telemetry

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// Frame types.
const (
	frameSample  = 1
	frameCatalog = 2
)

// maxFrame bounds a frame length against corrupt peers.
const maxFrame = 1 << 20

// Sample is one SNR observation for a link.
type Sample struct {
	// LinkIndex refers into the session catalog.
	LinkIndex int
	// Time is the observation timestamp.
	Time time.Time
	// SNRdB is the observed SNR.
	SNRdB float64
}

// ErrFrameTooLarge reports a frame exceeding the protocol bound.
var ErrFrameTooLarge = errors.New("telemetry: frame too large")

// writeFrame writes one frame.
func writeFrame(w io.Writer, frameType byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return ErrFrameTooLarge
	}
	var head [5]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(payload)+1))
	head[4] = frameType
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame.
func readFrame(r io.Reader) (frameType byte, payload []byte, err error) {
	var head [5]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n == 0 || n > maxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return head[4], payload, nil
}

// encodeSample packs a sample payload.
func encodeSample(s Sample) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(s.LinkIndex))
	binary.LittleEndian.PutUint64(buf[4:12], uint64(s.Time.UnixNano()))
	binary.LittleEndian.PutUint32(buf[12:16], math.Float32bits(float32(s.SNRdB)))
	return buf
}

// decodeSample unpacks a sample payload.
func decodeSample(p []byte) (Sample, error) {
	if len(p) != 16 {
		return Sample{}, fmt.Errorf("telemetry: sample payload %d bytes, want 16", len(p))
	}
	return Sample{
		LinkIndex: int(binary.LittleEndian.Uint32(p[0:4])),
		Time:      time.Unix(0, int64(binary.LittleEndian.Uint64(p[4:12]))),
		SNRdB:     float64(math.Float32frombits(binary.LittleEndian.Uint32(p[12:16]))),
	}, nil
}

// encodeCatalog packs the link-name catalog.
func encodeCatalog(names []string) ([]byte, error) {
	size := 4
	for _, n := range names {
		if len(n) > math.MaxUint16 {
			return nil, fmt.Errorf("telemetry: link name too long")
		}
		size += 2 + len(n)
	}
	buf := make([]byte, 0, size)
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], uint32(len(names)))
	buf = append(buf, tmp[:]...)
	for _, n := range names {
		var l [2]byte
		binary.LittleEndian.PutUint16(l[:], uint16(len(n)))
		buf = append(buf, l[:]...)
		buf = append(buf, n...)
	}
	return buf, nil
}

// decodeCatalog unpacks the catalog.
func decodeCatalog(p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("telemetry: catalog too short")
	}
	n := binary.LittleEndian.Uint32(p[:4])
	if n > 1<<20 {
		return nil, fmt.Errorf("telemetry: absurd catalog size %d", n)
	}
	names := make([]string, 0, n)
	off := 4
	for i := uint32(0); i < n; i++ {
		if off+2 > len(p) {
			return nil, fmt.Errorf("telemetry: truncated catalog")
		}
		l := int(binary.LittleEndian.Uint16(p[off : off+2]))
		off += 2
		if off+l > len(p) {
			return nil, fmt.Errorf("telemetry: truncated catalog name")
		}
		names = append(names, string(p[off:off+l]))
		off += l
	}
	return names, nil
}

// Server streams SNR samples to every connected subscriber.
type Server struct {
	names []string

	mu       sync.Mutex
	ln       net.Listener
	subs     map[net.Conn]chan Sample
	closed   bool
	wg       sync.WaitGroup
	sendBuf  int
	dropSlow bool
}

// NewServer creates a server publishing the given link catalog.
func NewServer(linkNames []string) *Server {
	return &Server{
		names:    append([]string(nil), linkNames...),
		subs:     make(map[net.Conn]chan Sample),
		sendBuf:  256,
		dropSlow: true,
	}
}

// Serve listens on addr ("127.0.0.1:0" for an ephemeral port) and
// accepts subscribers until ctx is done or Close is called. It returns
// the bound address via the Addr method after it starts listening; use
// the returned ready channel pattern: Serve blocks, so run it in a
// goroutine and wait on Addr.
func (s *Server) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("telemetry: server closed")
	}
	s.ln = ln
	s.mu.Unlock()

	go func() {
		<-ctx.Done()
		s.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// Addr returns the bound listen address, or nil before Serve listens.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// handle serves one subscriber.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	ch := make(chan Sample, s.sendBuf)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.subs[conn] = ch
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.subs, conn)
		s.mu.Unlock()
	}()

	bw := bufio.NewWriter(conn)
	catalog, err := encodeCatalog(s.names)
	if err != nil {
		return
	}
	if err := writeFrame(bw, frameCatalog, catalog); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for sample := range ch {
		if err := writeFrame(bw, frameSample, encodeSample(sample)); err != nil {
			return
		}
		// Flush opportunistically: drain the channel first so bursts
		// coalesce into one syscall.
		if len(ch) == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
	bw.Flush()
}

// Publish fans a sample out to every subscriber. Slow subscribers are
// skipped (telemetry is a lossy feed; the next sample supersedes).
func (s *Server) Publish(sample Sample) error {
	if sample.LinkIndex < 0 || sample.LinkIndex >= len(s.names) {
		return fmt.Errorf("telemetry: link index %d outside catalog", sample.LinkIndex)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("telemetry: server closed")
	}
	for _, ch := range s.subs {
		select {
		case ch <- sample:
		default:
			if !s.dropSlow {
				ch <- sample
			}
		}
	}
	return nil
}

// Close stops the listener and disconnects subscribers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn, ch := range s.subs {
		close(ch)
		_ = conn
	}
	s.subs = make(map[net.Conn]chan Sample)
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Client subscribes to a telemetry server.
type Client struct {
	conn  net.Conn
	br    *bufio.Reader
	names []string
}

// Dial connects and reads the catalog frame.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReader(conn)}
	if deadline, ok := ctx.Deadline(); ok {
		_ = conn.SetReadDeadline(deadline)
	}
	ft, payload, err := readFrame(c.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("telemetry: reading catalog: %w", err)
	}
	if ft != frameCatalog {
		conn.Close()
		return nil, fmt.Errorf("telemetry: expected catalog frame, got type %d", ft)
	}
	names, err := decodeCatalog(payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.names = names
	_ = conn.SetReadDeadline(time.Time{})
	return c, nil
}

// LinkNames returns the catalog announced by the server.
func (c *Client) LinkNames() []string { return append([]string(nil), c.names...) }

// Next blocks for the next sample. io.EOF (possibly wrapped) reports a
// clean server shutdown.
func (c *Client) Next() (Sample, error) {
	for {
		ft, payload, err := readFrame(c.br)
		if err != nil {
			return Sample{}, err
		}
		switch ft {
		case frameSample:
			s, err := decodeSample(payload)
			if err != nil {
				return Sample{}, err
			}
			if s.LinkIndex < 0 || s.LinkIndex >= len(c.names) {
				return Sample{}, fmt.Errorf("telemetry: sample for unknown link %d", s.LinkIndex)
			}
			return s, nil
		case frameCatalog:
			// A server restart mid-stream could resend it; refresh.
			names, err := decodeCatalog(payload)
			if err != nil {
				return Sample{}, err
			}
			c.names = names
		default:
			return Sample{}, fmt.Errorf("telemetry: unknown frame type %d", ft)
		}
	}
}

// SetDeadline bounds the next Read.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetReadDeadline(t) }

// Close disconnects.
func (c *Client) Close() error { return c.conn.Close() }
