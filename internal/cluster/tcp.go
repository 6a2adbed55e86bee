package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/straggler"
)

// FramedEndpoint carries protocol messages over a stream connection as
// length-prefixed binary frames (see codec.go). Sends are serialized by a
// mutex; receives happen from a single loop per endpoint, matching the
// Endpoint contract.
type FramedEndpoint struct {
	conn net.Conn
	br   *bufio.Reader
	body []byte // reused frame body, owned by the one Recv loop

	wmu sync.Mutex
	enc BinWriter // reused frame buffer, guarded by wmu

	closeOnce sync.Once
}

// maxReusedBody caps the receive buffer an endpoint keeps between frames: a
// one-off partition install may be hundreds of megabytes, and holding on to
// that for the life of the connection would pin it.
const maxReusedBody = 4 << 20

// NewFramedEndpoint wraps a connection in the framed message protocol.
func NewFramedEndpoint(conn net.Conn) *FramedEndpoint {
	return &FramedEndpoint{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
	}
}

// Send encodes m as one frame and writes it to the connection. A message
// that cannot be encoded (ErrNotEncodable) fails before anything reaches the
// connection.
func (e *FramedEndpoint) Send(m Message) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	frame, err := encodeFrame(&e.enc, &m)
	if err != nil {
		return fmt.Errorf("cluster: framed send: %w", err)
	}
	if _, err := e.conn.Write(frame); err != nil {
		return fmt.Errorf("cluster: framed send: %w", err)
	}
	wireTxFrames.Inc()
	wireTxBytes.Add(int64(len(frame)))
	return nil
}

// Recv reads and decodes one frame. The body buffer is reused from frame to
// frame: the decoder copies every string, vector and index run out of it, so
// no Message aliases it (TestDecodeDoesNotAliasFrame).
func (e *FramedEndpoint) Recv() (Message, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(e.br, hdr[:]); err != nil {
		return Message{}, fmt.Errorf("cluster: framed recv: %w", err)
	}
	l := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
	if l < 1 || l > maxFrame {
		return Message{}, fmt.Errorf("cluster: framed recv: bad frame length %d", l)
	}
	body := e.body
	if n := int(l - 1); n <= cap(body) {
		body = body[:n]
	} else {
		body = make([]byte, n)
		if n <= maxReusedBody {
			e.body = body
		}
	}
	if _, err := io.ReadFull(e.br, body); err != nil {
		return Message{}, fmt.Errorf("cluster: framed recv: %w", err)
	}
	wireRxFrames.Inc()
	wireRxBytes.Add(int64(l) + 4)
	return decodeFrameBody(hdr[4], body)
}

// Close tears down the connection.
func (e *FramedEndpoint) Close() error {
	var err error
	e.closeOnce.Do(func() { err = e.conn.Close() })
	return err
}

// ListenTCP starts a server listener and accepts exactly numWorkers worker
// connections; each must open with a Hello naming a distinct worker id in
// [0, numWorkers). It returns the assembled Cluster.
func ListenTCP(addr string, numWorkers int) (*Cluster, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	c, err := ServeTCP(ln, numWorkers)
	if err != nil {
		_ = ln.Close()
		return nil, nil, err
	}
	return c, ln, nil
}

// ServeTCP accepts exactly numWorkers worker connections on an existing
// listener and assembles the Cluster. Connections that fail the handshake
// (bad hello, duplicate or out-of-range id) are dropped and the slot stays
// open for a retry.
func ServeTCP(ln net.Listener, numWorkers int) (*Cluster, error) {
	if numWorkers <= 0 {
		return nil, fmt.Errorf("cluster: non-positive worker count %d", numWorkers)
	}
	c := newCluster()
	seen := map[int]bool{}
	for len(seen) < numWorkers {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("cluster: accept: %w", err)
		}
		ep := NewFramedEndpoint(conn)
		m, err := ep.Recv()
		if err != nil || m.Kind != KindHello || m.Hello == nil {
			_ = ep.Close()
			continue
		}
		id := m.Hello.Worker
		if id < 0 || id >= numWorkers || seen[id] {
			_ = ep.Close()
			continue
		}
		seen[id] = true
		c.addWorker(id, ep)
	}
	return c, nil
}

// DialWorkerTCP connects a worker process to the server and runs its
// executor loop until shutdown. It blocks for the lifetime of the worker.
func DialWorkerTCP(addr string, id int, delay straggler.Model, seed int64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	ep := NewFramedEndpoint(conn)
	w := NewWorker(id, ep, delay, seed)
	defer ep.Close()
	return w.Run()
}
