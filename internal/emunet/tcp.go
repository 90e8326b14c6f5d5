package emunet

import (
	"errors"
	"io"
	"net"
	"sync"
)

// Throughput-test protocol: the client sends a one-byte mode, then either
// uploads ('U') for its test duration, or asks the server to download ('D')
// to it until the client closes. Shaping happens at whichever end transmits.
const (
	ModeUpload   byte = 'U'
	ModeDownload byte = 'D'
)

// chunkSize is the transfer unit; small enough for smooth token-bucket
// pacing at the few-Mbps rates used in tests.
const chunkSize = 8 * 1024

// ThroughputServer is an iperf3-like TCP endpoint. For download tests it
// transmits through a token bucket at the link's RateMbps; for upload tests
// it drains the socket (the client shapes).
type ThroughputServer struct {
	ln   net.Listener
	link Link

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewThroughputServer starts the server on a loopback ephemeral port.
func NewThroughputServer(link Link) (*ThroughputServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &ThroughputServer{ln: ln, link: link}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the dialable server address.
func (s *ThroughputServer) Addr() string { return s.ln.Addr().String() }

func (s *ThroughputServer) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			defer c.Close()
			s.handle(c)
		}(conn)
	}
}

func (s *ThroughputServer) handle(c net.Conn) {
	mode := make([]byte, 1)
	if _, err := io.ReadFull(c, mode); err != nil {
		return
	}
	switch mode[0] {
	case ModeUpload:
		_, _ = io.Copy(io.Discard, c)
	case ModeDownload:
		s.sendShaped(c)
	}
}

func (s *ThroughputServer) sendShaped(c net.Conn) {
	var bucket *TokenBucket
	if s.link.RateMbps > 0 {
		bucket = NewTokenBucket(MbpsToBytesPerSec(s.link.RateMbps), 4*chunkSize)
	}
	chunk := make([]byte, chunkSize)
	for {
		if bucket != nil {
			bucket.WaitN(len(chunk))
		}
		if _, err := c.Write(chunk); err != nil {
			return // client closed: test over
		}
	}
}

// Close shuts the listener down and waits for handlers to exit.
func (s *ThroughputServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("emunet: throughput server already closed")
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// ShapedWriter rate-limits writes to an underlying writer with a token
// bucket; it is the client-side shaper for upload tests.
type ShapedWriter struct {
	w      io.Writer
	bucket *TokenBucket
}

// NewShapedWriter wraps w at rateMbps (<=0 panics; use the raw writer for
// unshaped traffic).
func NewShapedWriter(w io.Writer, rateMbps float64) *ShapedWriter {
	if rateMbps <= 0 {
		panic("emunet: ShapedWriter requires a positive rate")
	}
	return &ShapedWriter{w: w, bucket: NewTokenBucket(MbpsToBytesPerSec(rateMbps), 4*chunkSize)}
}

// Write conforms p to the configured rate before forwarding, splitting large
// buffers into pacing chunks.
func (sw *ShapedWriter) Write(p []byte) (int, error) {
	var written int
	for len(p) > 0 {
		n := len(p)
		if n > chunkSize {
			n = chunkSize
		}
		sw.bucket.WaitN(n)
		k, err := sw.w.Write(p[:n])
		written += k
		if err != nil {
			return written, err
		}
		p = p[n:]
	}
	return written, nil
}
