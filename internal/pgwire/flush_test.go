package pgwire

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/proxy"
)

// scriptConn is a netConn driven by the test: Read hands out the chunks
// sent on in and signals idle each time the server has consumed every
// chunk and would block on the client; Write records each write.
type scriptConn struct {
	in      chan []byte
	idle    chan struct{}
	pending []byte

	mu     sync.Mutex
	writes [][]byte
}

func (s *scriptConn) Read(p []byte) (int, error) {
	if len(s.pending) == 0 {
		s.idle <- struct{}{}
		b, ok := <-s.in
		if !ok {
			return 0, io.EOF
		}
		s.pending = b
	}
	n := copy(p, s.pending)
	s.pending = s.pending[n:]
	return n, nil
}

func (s *scriptConn) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writes = append(s.writes, bytes.Clone(p))
	return len(p), nil
}

func (s *scriptConn) Close() error { return nil }

// exchange sends one chunk of frontend messages, waits until the server
// would block on the client again, and returns the writes it issued
// meanwhile.
func (s *scriptConn) exchange(t *testing.T, chunk []byte) [][]byte {
	t.Helper()
	s.mu.Lock()
	s.writes = nil
	s.mu.Unlock()
	s.in <- chunk
	select {
	case <-s.idle:
	case <-time.After(5 * time.Second):
		t.Fatal("server never returned to reading")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// frontend frames one frontend message.
func frontend(typ byte, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(payload)+4))
	return append(b, payload...)
}

// startScripted serves one connection over a scriptConn through startup
// and the Parse of an allowed one-row read as the unnamed statement.
func startScripted(t *testing.T) *scriptConn {
	t.Helper()
	px := testProxy(t, proxy.Enforce)
	sc := &scriptConn{in: make(chan []byte), idle: make(chan struct{}, 1)}
	c := &conn{srv: NewServer(Config{Proxy: px}), netc: sc, pid: 1, secret: 2}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.serve(context.Background())
	}()
	t.Cleanup(func() {
		close(sc.in)
		<-done
		px.Close()
	})
	<-sc.idle
	startup := binary.BigEndian.AppendUint32(nil, protoV3)
	startup = append(startup, "attr.MyUId\x001\x00\x00"...)
	sc.exchange(t, append(binary.BigEndian.AppendUint32(nil, uint32(len(startup)+4)), startup...))
	parse := frontend('P', append([]byte("\x00SELECT EId FROM Attendance WHERE UId = 1\x00"), 0, 0))
	sc.exchange(t, append(parse, frontend('S', nil)...))
	return sc
}

// bindExecute is a Bind of the unnamed statement with no parameters and
// an Execute of the unnamed portal.
func bindExecute() []byte {
	b := frontend('B', []byte{0, 0, 0, 0, 0, 0, 0, 0})
	return append(b, frontend('E', []byte{0, 0, 0, 0, 0})...)
}

// TestExchangeIsOneWrite pins the flush rule: a Bind/Execute/Sync
// exchange for a one-row read reaches the client in exactly one write,
// holding every reply through ReadyForQuery.
func TestExchangeIsOneWrite(t *testing.T) {
	sc := startScripted(t)
	w := sc.exchange(t, append(bindExecute(), frontend('S', nil)...))
	if len(w) != 1 {
		t.Fatalf("Bind/Execute/Sync issued %d writes, want 1", len(w))
	}
	msgs := backendMsgs(t, w[0])
	if got := msgTypes(msgs); got != "2DCZ" {
		t.Fatalf("replies %q, want BindComplete, DataRow, CommandComplete, ReadyForQuery", got)
	}
}

// TestFlushMessageDeliversRows pins that an Execute followed by Flush
// ('H') and no Sync still gets its rows onto the wire before the server
// waits on the client.
func TestFlushMessageDeliversRows(t *testing.T) {
	sc := startScripted(t)
	w := sc.exchange(t, append(bindExecute(), frontend('H', nil)...))
	if got := msgTypes(backendMsgs(t, bytes.Join(w, nil))); got != "2DC" {
		t.Fatalf("replies before the server blocked: %q, want BindComplete, DataRow, CommandComplete", got)
	}
}

// backendMsgs splits a backend byte stream into messages.
func backendMsgs(t *testing.T, b []byte) []backendMsg {
	t.Helper()
	var out []backendMsg
	for len(b) > 0 {
		if len(b) < 5 {
			t.Fatalf("torn message header %x", b)
		}
		n := int(binary.BigEndian.Uint32(b[1:5])) + 1
		if n > len(b) {
			t.Fatalf("torn message %x", b)
		}
		out = append(out, backendMsg{typ: b[0], payload: b[5:n]})
		b = b[n:]
	}
	return out
}
