package server_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/palm"
	"repro/internal/server"
	"repro/internal/server/client"
)

func newEngine(t testing.TB) *core.Engine {
	t.Helper()
	eng, err := core.NewEngine(core.EngineConfig{
		Mode:          core.IntraInter,
		Palm:          palm.Config{Order: 16, Workers: 2, LoadBalance: true},
		CacheCapacity: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// startServer brings up a Server on a loopback listener and returns
// it with its address and a shutdown func (also run at cleanup).
func startServer(t testing.TB, cfg server.Config) (*server.Server, string, func()) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
			if err := <-serveErr; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
	}
	t.Cleanup(shutdown)
	return s, ln.Addr().String(), shutdown
}

// TestAllOpsEndToEnd runs every wire operation through a real engine
// behind the server and checks the results a client decodes.
func TestAllOpsEndToEnd(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 64, MaxDelay: time.Millisecond})
	defer b.Close()
	_, addr, _ := startServer(t, server.Config{Batcher: b})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	call := func(q keys.Query) server.Response {
		t.Helper()
		resp, err := c.Call(q)
		if err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		if resp.Status != server.StatusOK {
			t.Fatalf("%+v: status %s", q, resp.Status)
		}
		return resp
	}

	for k := keys.Key(10); k < 20; k++ {
		call(keys.Insert(k, keys.Value(k*100)))
	}
	if r := call(keys.Search(12)); !r.Recorded || !r.Found || r.Value != 1200 {
		t.Fatalf("search hit: %+v", r)
	}
	if r := call(keys.Search(999)); !r.Recorded || r.Found {
		t.Fatalf("search miss: %+v", r)
	}
	call(keys.Insert(12, 7)) // update
	if r := call(keys.Search(12)); r.Value != 7 {
		t.Fatalf("update not visible: %+v", r)
	}
	call(keys.Delete(13))
	if r := call(keys.Search(13)); r.Found {
		t.Fatalf("delete not visible: %+v", r)
	}
	r := call(keys.Scan(10, 15, 0))
	if !r.Found || r.Value != 4 || len(r.Rows) != 4 {
		t.Fatalf("scan [10,15): %+v", r)
	}
	want := []keys.KV{{Key: 10, Value: 1000}, {Key: 11, Value: 1100}, {Key: 12, Value: 7}, {Key: 14, Value: 1400}}
	for i, kv := range want {
		if r.Rows[i] != kv {
			t.Fatalf("scan row %d = %+v, want %+v", i, r.Rows[i], kv)
		}
	}
	if r := call(keys.Scan(10, 20, 2)); r.Value != 2 || len(r.Rows) != 2 {
		t.Fatalf("limited scan: %+v", r)
	}
	if r := call(keys.AddDelta(500, 3)); !r.Recorded || r.Found {
		t.Fatalf("AddDelta absent pre-state: %+v", r)
	}
	if r := call(keys.AddDelta(500, 4)); !r.Found || r.Value != 3 {
		t.Fatalf("AddDelta pre-value: %+v", r)
	}
	if r := call(keys.SetIfAbsent(500, 99)); !r.Found || r.Value != 7 {
		t.Fatalf("SetIfAbsent on present key: %+v", r)
	}
	if r := call(keys.Search(500)); r.Value != 7 {
		t.Fatalf("SetIfAbsent overwrote: %+v", r)
	}
}

// TestPipelining pushes a window of requests before any flush and
// checks every response resolves, in submission order, with the right
// values.
func TestPipelining(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 128, MaxDelay: time.Millisecond})
	defer b.Close()
	_, addr, _ := startServer(t, server.Config{Batcher: b})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2000
	futs := make([]*client.Future, 0, 2*n)
	for i := 0; i < n; i++ {
		f, err := c.Do(keys.Insert(keys.Key(i), keys.Value(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < n; i++ {
		f, err := c.Do(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		resp, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if resp.Status != server.StatusOK {
			t.Fatalf("future %d: status %s", i, resp.Status)
		}
		if i >= n {
			k := i - n
			if !resp.Found || resp.Value != keys.Value(k) {
				t.Fatalf("search %d: %+v", k, resp)
			}
		}
	}
}

// gatedProc stalls ProcessBatch until released, building dispatch
// backlog on demand.
type gatedProc struct {
	gate chan struct{}
}

func (p *gatedProc) ProcessBatch(qs []keys.Query, rs *keys.ResultSet) {
	<-p.gate
	for i := range qs {
		if qs[i].Op == keys.OpSearch {
			rs.Set(qs[i].Idx, keys.Value(qs[i].Key), true)
		}
	}
}

// TestAdmissionControlSheds stalls the processor until the dispatch
// backlog exceeds HighWater, then proves new requests are answered
// StatusShed (not executed, not dropped) and that execution resumes
// once the backlog clears.
func TestAdmissionControlSheds(t *testing.T) {
	proc := &gatedProc{gate: make(chan struct{})}
	b := batcher.New(proc, batcher.Config{MaxBatch: 1, MaxDelay: time.Hour})
	defer b.Close()
	s, addr, _ := startServer(t, server.Config{Batcher: b, HighWater: 2})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Build backlog to HighWater+1: MaxBatch 1 turns each submit into
	// one dispatched batch the stalled processor cannot retire. (A 4th
	// request would itself be shed, so 3 is the reachable maximum.)
	stalled := make([]*client.Future, 0, 3)
	for i := 0; i < 3; i++ {
		f, err := c.Do(keys.Search(keys.Key(i)))
		if err != nil {
			t.Fatal(err)
		}
		stalled = append(stalled, f)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		waitBacklog(t, b, i+1) // the server has submitted it
	}
	// Probe on a second connection: responses are in-order per
	// connection, so on c the shed reply would queue behind the three
	// stalled futures.
	c2, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	resp, err := c2.Call(keys.Search(99))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != server.StatusShed {
		t.Fatalf("over high water: status %s, want shed", resp.Status)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", st.Shed)
	}
	close(proc.gate) // processor recovers
	for i, f := range stalled {
		r, err := f.Wait()
		if err != nil || r.Status != server.StatusOK || r.Value != keys.Value(i) {
			t.Fatalf("stalled future %d after recovery: %+v, %v", i, r, err)
		}
	}
	if resp, err := c.Call(keys.Search(7)); err != nil || resp.Status != server.StatusOK {
		t.Fatalf("post-recovery call: %+v, %v", resp, err)
	}
}

// TestDrainAnswersEveryAcceptedRequest shuts the server down in the
// middle of sustained multi-connection load and asserts the core
// drain invariant: a response was written for every accepted request,
// and every response the clients got back was OK or Draining — never
// a dropped frame.
func TestDrainAnswersEveryAcceptedRequest(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 256, MaxDelay: time.Millisecond})
	defer b.Close()
	s, addr, shutdown := startServer(t, server.Config{Batcher: b})

	const nclients = 8
	var gotResponses atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < nclients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			var futs []*client.Future
			for i := 0; ; i++ {
				select {
				case <-stop:
					goto drainFuts
				default:
				}
				f, err := c.Do(keys.Insert(keys.Key(w*1_000_000+i), keys.Value(i)))
				if err != nil {
					break // connection tore down mid-drain: futures still resolve
				}
				futs = append(futs, f)
				if i%10 == 0 {
					if err := c.Flush(); err != nil {
						break
					}
				}
			}
		drainFuts:
			c.Flush()
			for _, f := range futs {
				resp, err := f.Wait()
				if err != nil {
					continue // never reached the server: not accepted
				}
				gotResponses.Add(1)
				if resp.Status != server.StatusOK && resp.Status != server.StatusDraining {
					t.Errorf("client %d: unexpected status %s", w, resp.Status)
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond) // let load build
	shutdown()
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.Accepted == 0 {
		t.Fatal("no requests accepted during the load window")
	}
	if st.Responses != st.Accepted {
		t.Fatalf("drain dropped requests: accepted %d, responses %d", st.Accepted, st.Responses)
	}
	if st.Conns != 0 {
		t.Fatalf("connections still open after drain: %d", st.Conns)
	}
	// Every response the server wrote that the clients' futures were
	// still waiting on must have arrived (clients that tore down early
	// are allowed to miss some, but not the other way round).
	if got := gotResponses.Load(); got > st.Responses {
		t.Fatalf("clients decoded %d responses, server wrote %d", got, st.Responses)
	}
}

// TestServeRejectsAfterListenerClose: Serve returns nil (not an
// error) when Shutdown closes the listener.
func TestShutdownIdempotent(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 8, MaxDelay: time.Millisecond})
	defer b.Close()
	s, _, shutdown := startServer(t, server.Config{Batcher: b})
	shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestNewRequiresBatcher pins the only construction-time validation.
func TestNewRequiresBatcher(t *testing.T) {
	if _, err := server.New(server.Config{}); err == nil {
		t.Fatal("New accepted a nil Batcher")
	}
}

// TestServerConcurrencyHammer is the -race gate for the whole stack:
// many connections issuing mixed ops concurrently with a mid-flight
// Shutdown racing them.
func TestServerConcurrencyHammer(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 128, MaxDelay: time.Millisecond})
	defer b.Close()
	s, addr, shutdown := startServer(t, server.Config{Batcher: b})

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				return // shutdown may win the race before dial
			}
			defer c.Close()
			for i := 0; i < 300; i++ {
				var q keys.Query
				switch i % 4 {
				case 0:
					q = keys.Insert(keys.Key(w*1000+i), keys.Value(i))
				case 1:
					q = keys.Search(keys.Key(w*1000 + i - 1))
				case 2:
					q = keys.Scan(keys.Key(w*1000), keys.Key(w*1000+i), 8)
				default:
					q = keys.AddDelta(keys.Key(w), 1)
				}
				if _, err := c.Call(q); err != nil {
					var nerr net.Error
					if errors.As(err, &nerr) || errors.Is(err, net.ErrClosed) {
						return
					}
					return // drain EOFs arrive as plain io errors too
				}
			}
		}(w)
	}
	time.Sleep(30 * time.Millisecond)
	shutdown()
	wg.Wait()
	st := s.Stats()
	if st.Responses != st.Accepted {
		t.Fatalf("accepted %d != responses %d", st.Accepted, st.Responses)
	}
}

// TestWriterFlushesBeforeBlockingOnFuture pipelines two requests into
// separate batches and lets only the first execute: its response must
// reach the client while the writer waits on the second future, not
// sit in the write buffer until the second batch runs.
func TestWriterFlushesBeforeBlockingOnFuture(t *testing.T) {
	proc := &gatedProc{gate: make(chan struct{})}
	b := batcher.New(proc, batcher.Config{MaxBatch: 1, MaxDelay: time.Hour})
	defer b.Close()
	_, addr, _ := startServer(t, server.Config{Batcher: b})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(proc.gate) }) }
	defer releaseAll()

	var futs [2]*client.Future
	for i := range futs {
		if futs[i], err = c.Do(keys.Search(keys.Key(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitBacklog(t, b, 2)
	// Submit returns just before the reader hands the slot to the
	// writer's queue. Give it that step: a writer that found the queue
	// empty would flush anyway, and the test would pass for the wrong
	// reason.
	time.Sleep(20 * time.Millisecond)
	proc.gate <- struct{}{} // run the first batch only

	resp := waitWithin(t, futs[0], 2*time.Second, "first response still buffered while the writer waits on the second future")
	if resp.Status != server.StatusOK || !resp.Found || resp.Value != 0 {
		t.Fatalf("first response: %+v", resp)
	}
	releaseAll() // only now can the second future resolve
	if resp, err := futs[1].Wait(); err != nil || resp.Status != server.StatusOK || resp.Value != 1 {
		t.Fatalf("second response: %+v, %v", resp, err)
	}
}

// TestFullPipelineDispatchesWhenEngineIdle pipelines more requests
// than one connection's pipeline holds, under a batcher that would
// otherwise wait an hour to dispatch: with the engine idle, the
// blocked reader must flush the batcher so responses start flowing.
func TestFullPipelineDispatchesWhenEngineIdle(t *testing.T) {
	b := batcher.New(newEngine(t), batcher.Config{MaxBatch: 1 << 20, MaxDelay: time.Hour})
	defer b.Close()
	reg := metrics.New()
	s, addr, _ := startServer(t, server.Config{Batcher: b, Metrics: reg})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	n := server.PipelineDepth + 88 // past what the queue and the writer's slot hold
	futs := make([]*client.Future, n)
	for i := range futs {
		if futs[i], err = c.Do(keys.Insert(keys.Key(i), keys.Value(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Teardown: tick Flush until every future resolves — the requests
	// behind the first dispatched batch stay pending for MaxDelay.
	resolved := make(chan struct{})
	go func() {
		for _, f := range futs {
			f.Wait()
		}
		close(resolved)
	}()
	var once sync.Once
	drain := func() {
		once.Do(func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-resolved:
					return
				case <-tick.C:
					b.Flush()
				}
			}
		})
	}
	defer drain()

	if resp := waitWithin(t, futs[0], 3*time.Second, "no response while the reader blocks on a full pipeline"); resp.Status != server.StatusOK {
		t.Fatalf("first response: %+v", resp)
	}
	if st := s.Stats(); st.PipelineFlushes == 0 {
		t.Fatal("Stats.PipelineFlushes = 0 after a full pipeline")
	}
	if got := reg.Snapshot().Counters["server_pipeline_flushes_total"]; got == 0 {
		t.Fatal("server_pipeline_flushes_total = 0 after a full pipeline")
	}
	drain()
	for i, f := range futs {
		if resp, err := f.Wait(); err != nil || resp.Status != server.StatusOK {
			t.Fatalf("future %d: %+v, %v", i, resp, err)
		}
	}
}

// waitWithin returns f's response, failing the test with msg if it
// takes longer than d.
func waitWithin(t *testing.T, f *client.Future, d time.Duration, msg string) server.Response {
	t.Helper()
	got := make(chan server.Response, 1)
	go func() {
		resp, _ := f.Wait()
		got <- resp
	}()
	select {
	case resp := <-got:
		return resp
	case <-time.After(d):
		t.Fatal(msg)
		return server.Response{}
	}
}

// waitBacklog waits until the batcher reports want dispatched batches.
func waitBacklog(t *testing.T, b *batcher.Batcher, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, backlog := b.Load(); backlog == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog never reached %d", want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
