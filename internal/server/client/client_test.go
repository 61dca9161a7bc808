package client

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/keys"
	"repro/internal/server"
)

// peer is the scripted server end of a net.Pipe: it decodes request
// frames and writes response frames on command.
type peer struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
}

func newPipe(t *testing.T) (*Client, *peer) {
	t.Helper()
	cc, sc := net.Pipe()
	t.Cleanup(func() { sc.Close() })
	return New(cc), &peer{conn: sc, br: bufio.NewReader(sc)}
}

// read decodes the next request frame.
func (p *peer) read() (server.Request, error) {
	body, buf, err := server.ReadFrame(p.br, p.buf, server.ReqBodyLen)
	if err != nil {
		return server.Request{}, err
	}
	p.buf = buf
	return server.DecodeRequest(body)
}

// answer writes an OK response carrying id, echoed as the value.
func (p *peer) answer(id uint64) error {
	_, err := p.conn.Write(server.AppendResponse(nil, server.Response{ID: id, Status: server.StatusOK, Value: keys.Value(id)}))
	return err
}

// waitFor fails the test unless f resolves within two seconds.
func waitFor(t *testing.T, f *Future) (server.Response, error) {
	t.Helper()
	select {
	case <-f.done:
		return f.resp, f.err
	case <-time.After(2 * time.Second):
		t.Fatal("future unresolved after 2s")
		return server.Response{}, nil
	}
}

// TestDoFlushesBeforeBlocking fills the in-flight window without ever
// calling Flush. The peer answers nothing until it has seen more than
// maxInflight requests, which only a flush before Do blocks can send:
// a buffered writer alone delivers them in 4 KiB chunks.
func TestDoFlushesBeforeBlocking(t *testing.T) {
	c, p := newPipe(t)
	const n = maxInflight + 2
	futs := make(chan *Future, n)
	doErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			f, err := c.Do(keys.Search(keys.Key(i)))
			if err != nil {
				doErr <- err
				return
			}
			futs <- f
		}
		doErr <- nil
	}()

	got := make(chan uint64, n)
	peerErr := make(chan error, 1)
	go func() {
		var ids []uint64
		for len(ids) <= maxInflight {
			req, err := p.read()
			if err != nil {
				peerErr <- err
				return
			}
			ids = append(ids, req.ID)
			got <- req.ID
		}
		for _, id := range ids {
			if err := p.answer(id); err != nil {
				peerErr <- err
				return
			}
		}
		for { // answer the rest as they arrive
			req, err := p.read()
			if err != nil {
				peerErr <- nil
				return
			}
			if err := p.answer(req.ID); err != nil {
				peerErr <- err
				return
			}
		}
	}()

	for i := 0; i <= maxInflight; i++ {
		select {
		case id := <-got:
			if id != uint64(i) {
				t.Fatalf("request %d arrived with id %d", i, id)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("peer saw %d of %d requests: Do blocked without flushing", i, maxInflight+1)
		}
	}
	select {
	case err := <-doErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do still blocked after the peer answered")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := waitFor(t, <-futs)
		if err != nil || resp.ID != uint64(i) || resp.Value != keys.Value(i) {
			t.Fatalf("future %d: %+v, %v", i, resp, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatal(err)
	}
}

// TestResponseIDMismatchFailsPipeline answers the second of three
// requests with the wrong ID: that future and every later one must
// fail with the desync error, while the first keeps its response.
func TestResponseIDMismatchFailsPipeline(t *testing.T) {
	c, p := newPipe(t)
	var futs []*Future
	for i := 0; i < 3; i++ {
		f, err := c.Do(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := p.read(); err != nil {
				return
			}
		}
		p.answer(0)
		p.answer(5)
	}()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if resp, err := waitFor(t, futs[0]); err != nil || resp.ID != 0 {
		t.Fatalf("first future: %+v, %v", resp, err)
	}
	for i, f := range futs[1:] {
		if _, err := waitFor(t, f); err == nil || !strings.Contains(err.Error(), "pipeline desync") {
			t.Fatalf("future %d: err %v, want a pipeline desync", i+1, err)
		}
	}
	c.Close()
}

// TestCloseResolvesOutstanding closes a client with unflushed requests
// while the peer answers one and hangs up: Close must flush, return,
// and leave every future resolved, the unanswered ones with an error.
func TestCloseResolvesOutstanding(t *testing.T) {
	c, p := newPipe(t)
	var futs []*Future
	for i := 0; i < 3; i++ {
		f, err := c.Do(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	go func() {
		for i := 0; i < 3; i++ {
			if _, err := p.read(); err != nil {
				return
			}
		}
		p.answer(0)
		p.conn.Close()
	}()
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	if resp, err := waitFor(t, futs[0]); err != nil || resp.ID != 0 {
		t.Fatalf("answered future: %+v, %v", resp, err)
	}
	for i, f := range futs[1:] {
		if _, err := waitFor(t, f); err == nil {
			t.Fatalf("future %d resolved without error after the peer hung up", i+1)
		}
	}
	if _, err := c.Do(keys.Search(9)); err == nil {
		t.Fatal("Do after Close succeeded")
	}
}
