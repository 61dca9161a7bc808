package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/keys"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/workload"
	"repro/qtrans"
)

// serve-mixed sizes. The client side keeps one connection per key
// owner: key k is only ever sent on connection k % nconns, so every
// response depends on that connection's own request order and can be
// checked against its own oracle.
const (
	nconns       = 2
	serveSpace   = 1 << 20 // keys, all prefilled
	lightRate    = 5000    // req/s
	heavyRate    = 40000   // req/s
	peakWindow   = 1024    // requests in flight per connection in the saturated phase (the client's pipeline limit)
	peakNominal  = 60000   // req/s; sizes the saturated phase's fixed request count
	serveSetups  = 3       // set-ups per run (setup_s is their median)
	scanSpan     = 16
	scanLimit    = 16
	pendingSlots = 4096 // > the client's 1024-deep pipeline: the generator blocks on the client first
	// peakChunks splits the saturated phase into runs of equal request
	// count; qps is the median of their rates.
	peakChunks = 4
	// heavyWindows splits the heavy phase into equal slices of its
	// schedule; p50_ms and tail_ms are medians of the slices' quantiles,
	// so one scheduling hiccup on a shared host moves one slice only.
	heavyWindows = 8
)

// request is one generated request and the connection that owns its key.
type request struct {
	q    keys.Query
	conn int
}

// genRequests draws n requests: 80% get, 15% put, 4% AddDelta, 1% scan,
// keys scrambled-zipfian θ=0.99 over [0, space).
func genRequests(r *rand.Rand, gen workload.Generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		k := gen.Key(r)
		var q keys.Query
		switch u := r.Float64(); {
		case u < 0.80:
			q = keys.Search(k)
		case u < 0.95:
			q = keys.Insert(k, keys.Value(r.Uint64()))
		case u < 0.99:
			q = keys.AddDelta(k, keys.Value(r.Intn(1000)+1))
		default:
			q = keys.Scan(k, k+scanSpan, scanLimit)
		}
		out[i] = request{q: q, conn: int(k % nconns)}
	}
	return out
}

// conn is one client connection with the oracle of the keys it owns.
type conn struct {
	id  int
	cl  *client.Client
	orc *oracle.Oracle
	rec phaseRec
}

// logged is one answered request, kept until the phase is checked.
type logged struct {
	req  int32
	resp server.Response
	err  error
}

// phaseRec is what one connection records during a phase.
type phaseRec struct {
	id     int64 // phase number, for span request ids
	log    []logged
	lat    []float64 // ms from due time to response
	waitMS []float64 // time blocked in Future.Wait
	doUS   []float64 // time inside Client.Do
}

// phase is one measured phase's outcome, summarised when it ends so
// the raw samples do not stay on the heap.
type phase struct {
	name string
	wall time.Duration
	// n responses; p50/p99 over all of them; wp50/wp90/wp99 the medians
	// over heavyWindows equal slices of the schedule of each slice's
	// quantile.
	n                 int
	p50, p99          float64
	wp50, wp90, wp99  float64
	doUS50, waitMS50  float64
	lagMaxMS          float64
	attempted, failed int64
	writes            int64
}

// stack is one set-up: a durable DB served over loopback TCP.
type stack struct {
	dir      string
	opts     qtrans.Options
	db       *qtrans.DB
	svc      *qtrans.Service
	srv      *server.Server
	serveErr chan error
	conns    []*conn
}

func openStack(cfg config, dir string, met *qtrans.Metrics, space uint64, tr *tracer) (*stack, error) {
	st := &stack{dir: dir, serveErr: make(chan error, 1)}
	st.opts = qtrans.Options{
		Durability: qtrans.Durability{Dir: dir, Sync: qtrans.SyncAlways},
		Metrics:    met,
	}
	t0 := time.Now()
	db, err := qtrans.Open(st.opts)
	if err != nil {
		return nil, err
	}
	st.db = db
	t1 := time.Now()
	load(db, cfg.seed, space, 1)
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	t2 := time.Now()
	st.svc = db.Serve(qtrans.ServiceOptions{})
	st.srv, err = server.New(server.Config{Batcher: st.svc.Batcher(), Metrics: met})
	if err != nil {
		st.svc.Close()
		db.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.svc.Close()
		db.Close()
		return nil, err
	}
	go func() { st.serveErr <- st.srv.Serve(ln) }()
	for i := 0; i < nconns; i++ {
		cl, err := client.Dial(ln.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		st.conns = append(st.conns, &conn{id: i, cl: cl})
	}
	t3 := time.Now()
	tr.add("qtrans.open", t0, t1, -1, -1)
	tr.add("prefill+checkpoint", t1, t2, -1, -1)
	tr.add("server.start", t2, t3, -1, -1)
	return st, nil
}

// close drains and stops everything the stack started and checks the
// server's accounting: every accepted request got exactly one response.
func (st *stack) close() error {
	for _, c := range st.conns {
		c.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.serveErr; err == nil {
		err = serr
	}
	st.svc.Close()
	st.db.Close()
	if s := st.srv.Stats(); err == nil && s.Accepted != s.Responses {
		err = mismatchf("server accepted %d requests but wrote %d responses", s.Accepted, s.Responses)
	}
	return err
}

// servePass is one full phase schedule on one set-up.
type servePass struct {
	light, heavy, peak phase
	peakQPS            float64
	recoverS, diskMB   float64
	heapMB             float64
	layers             map[string]float64
}

func runServe(cfg config) (*result, error) {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(base)
	space := scaled(serveSpace, cfg.scale)
	gen := workload.NewScrambledZipfian(space, 0.99)

	// A traced run makes two passes of half length on two set-ups: one
	// untraced (the overhead baseline) and one traced.
	passes := 1
	secs := cfg.seconds
	if cfg.trace {
		passes, secs = 2, cfg.seconds/2
	}
	r := rand.New(rand.NewSource(cfg.seed))
	lightReqs := genRequests(r, gen, int(secs*0.2*lightRate*cfg.scale))
	heavyReqs := genRequests(r, gen, int(secs*0.4*heavyRate*cfg.scale))
	peakReqs := genRequests(r, gen, int(secs*0.4*peakNominal*cfg.scale))

	var setups []float64
	var out [2]*servePass
	for i := 0; i < serveSetups; i++ {
		pass := i - (serveSetups - passes) // negative: set-up only
		traced := cfg.trace && pass == 1
		var met *qtrans.Metrics
		var tr *tracer
		if traced {
			met, res.tr = qtrans.NewMetrics(), newTracer()
			tr = res.tr
		}
		// The oracles are built before set-up so the heap baseline
		// includes them and the generated requests, leaving the DB,
		// service and server as the heap_mb difference.
		var orcs []*oracle.Oracle
		if pass >= 0 {
			orcs = make([]*oracle.Oracle, nconns)
			for c := range orcs {
				orcs[c] = oracle.New()
			}
			prefilled(cfg.seed, space, 1, func(k keys.Key, v keys.Value) {
				orcs[k%nconns].Apply(keys.Insert(k, v), nil)
			})
		}
		baseHeap := heapMB()
		t0 := time.Now()
		st, err := openStack(cfg, filepath.Join(base, fmt.Sprintf("setup%d", i)), met, space, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if pass < 0 {
			if err := st.close(); err != nil {
				return nil, err
			}
			continue
		}
		for c, cn := range st.conns {
			cn.orc = orcs[c]
		}
		p, err := runPass(cfg, st, tr, met, baseHeap, lightReqs, heavyReqs, peakReqs)
		if err != nil {
			return nil, err
		}
		out[pass] = p
		res.attempted += p.light.attempted + p.heavy.attempted + p.peak.attempted
		res.failed += p.light.failed + p.heavy.failed + p.peak.failed
	}

	p := out[0]
	if cfg.trace {
		p = out[1]
		for k, v := range p.layers {
			res.layer[k] = v
		}
		res.layer["trace.qps_overhead"] = 1 - frac(out[1].peakQPS, out[0].peakQPS)
		res.layer["trace.p50_overhead"] = frac(out[1].heavy.wp50, out[0].heavy.wp50) - 1
	}
	res.e2e["setup_s"] = median(setups)
	res.e2e["qps"] = p.peakQPS
	res.e2e["p50_ms"] = p.heavy.wp50
	res.e2e["tail_ms"] = p.heavy.wp90
	res.e2e["heap_mb"] = p.heapMB
	n := func(ph phase, q float64) string {
		return fmt.Sprintf("%d requests, %d beyond", ph.n, ph.n-int(q*float64(ph.n)))
	}
	res.table = []row{
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"peak_qps", "1/s", p.peakQPS, fmt.Sprintf("closed loop, %d in flight x %d connections, median of %d runs", peakWindow, nconns, peakChunks)},
		{"light_p50_ms", "ms", p.light.p50, n(p.light, 0.5)},
		{"light_p99_ms", "ms", p.light.p99, n(p.light, 0.99)},
		{"heavy_p50_ms", "ms", p.heavy.wp50, n(p.heavy, 0.5) + fmt.Sprintf(", median of %d windows", heavyWindows)},
		{"heavy_p90_ms", "ms", p.heavy.wp90, n(p.heavy, 0.9) + fmt.Sprintf(", median of %d windows", heavyWindows)},
		{"heavy_p99_ms", "ms", p.heavy.wp99, n(p.heavy, 0.99) + fmt.Sprintf(", median of %d windows", heavyWindows)},
		{"recover_s", "s", p.recoverS, "close, then qtrans.Open of the durable directory"},
		{"heap_mb", "MB", p.heapMB, "live heap after GC with the stack open, less the benchmark's own"},
		{"disk_mb", "MB", p.diskMB, "WAL + snapshot after close"},
	}
	return res, nil
}

func runPass(cfg config, st *stack, tr *tracer, met *qtrans.Metrics, baseHeap float64, lightReqs, heavyReqs, peakReqs []request) (*servePass, error) {
	p := &servePass{}
	fail := func(err error) (*servePass, error) {
		st.close()
		return nil, err
	}
	var err error
	if p.light, err = openLoop(st, 1, "light", lightReqs, lightRate*cfg.scale, tr, cfg.corrupt); err != nil {
		return fail(err)
	}
	var before metrics.Snapshot
	if met != nil {
		before = met.Snapshot()
	}
	walBefore := dirBytes(st.dir)
	if p.heavy, err = openLoop(st, 2, "heavy", heavyReqs, heavyRate*cfg.scale, tr, false); err != nil {
		return fail(err)
	}
	walBytes := dirBytes(st.dir) - walBefore
	if met != nil {
		p.layers = serveLayers(before, met.Snapshot(), p.heavy, walBytes)
	}
	var rates []float64
	for c := 0; c < peakChunks; c++ {
		chunk := peakReqs[c*len(peakReqs)/peakChunks : (c+1)*len(peakReqs)/peakChunks]
		ph, err := closedLoop(st, int64(3+c), chunk, tr)
		if err != nil {
			return fail(err)
		}
		rates = append(rates, float64(ph.attempted-ph.failed)/ph.wall.Seconds())
		p.peak.attempted += ph.attempted
		p.peak.failed += ph.failed
	}
	p.peakQPS = median(rates)
	p.heapMB = heapMB() - baseHeap
	// The last batch the engine ran (end of the saturated phase): the
	// registry has no per-thread leaf-operation counts.
	imbalance := st.db.LastBatchStats().LeafOpImbalance()
	srv := st.srv.Stats()
	if err := st.close(); err != nil {
		return nil, err
	}
	p.diskMB = float64(dirBytes(st.dir)) / (1 << 20)

	t0 := time.Now()
	db, err := qtrans.Open(st.opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	t1 := time.Now()
	p.recoverS = t1.Sub(t0).Seconds()
	tr.add("qtrans.open(reopen)", t0, t1, -1, -1)
	err = checkRecovered(db, st.conns)
	db.Close()
	if err != nil {
		return nil, err
	}
	if p.layers != nil {
		p.layers["server.shed_frac"] = frac(float64(srv.Shed), float64(srv.Accepted))
		p.layers["server.light_p50_ms"] = p.light.p50
		p.layers["server.light_p99_ms"] = p.light.p99
		p.layers["wal.recover_s"] = p.recoverS
		p.layers["wal.disk_mb"] = p.diskMB
		p.layers["palm.leafop_imbalance"] = imbalance
	}
	return p, nil
}

// openLoop sends reqs at rate on a fixed schedule whatever the
// responses do, timing each request from its due time, then checks
// every response.
func openLoop(st *stack, id int64, name string, reqs []request, rate float64, tr *tracer, corrupt bool) (phase, error) {
	ph := phase{name: name, attempted: int64(len(reqs))}
	pend := make([]chan pendingReq, nconns)
	var wg sync.WaitGroup
	for i, c := range st.conns {
		pend[i] = make(chan pendingReq, pendingSlots)
		c.rec = phaseRec{id: id}
		wg.Add(1)
		go func(c *conn, in <-chan pendingReq) {
			defer wg.Done()
			c.receive(in, tr)
		}(c, pend[i])
	}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	dirty := make([]bool, nconns)
	var lagMax time.Duration
	var sendErr error
	for i := 0; i < len(reqs) && sendErr == nil; {
		now := time.Now()
		for ; i < len(reqs); i++ {
			due := start.Add(time.Duration(i) * interval)
			if due.After(now) {
				break
			}
			rq := reqs[i]
			c := st.conns[rq.conn]
			s := time.Now()
			fut, err := c.cl.Do(rq.q)
			e := time.Now()
			if err != nil {
				sendErr = err
				break
			}
			lagMax = max(lagMax, s.Sub(due))
			pend[rq.conn] <- pendingReq{req: int32(i), fut: fut, due: due, sent: s, sentEnd: e}
			dirty[rq.conn] = true
		}
		for c, d := range dirty {
			if d {
				if err := st.conns[c].cl.Flush(); err != nil && sendErr == nil {
					sendErr = err
				}
				dirty[c] = false
			}
		}
		if i < len(reqs) {
			time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		}
	}
	for _, ch := range pend {
		close(ch)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.lagMaxMS = ms(lagMax)
	if sendErr != nil {
		return ph, fmt.Errorf("%s phase: %w", name, sendErr)
	}
	return ph, finishPhase(st, &ph, reqs, corrupt)
}

// pendingReq is a sent request waiting for its response.
type pendingReq struct {
	req       int32
	fut       *client.Future
	due, sent time.Time
	sentEnd   time.Time
}

// receive waits for each pending request's response in send order.
func (c *conn) receive(in <-chan pendingReq, tr *tracer) {
	for p := range in {
		c.await(p, tr)
	}
}

// await waits for one response and records it.
func (c *conn) await(p pendingReq, tr *tracer) {
	ws := time.Now()
	resp, err := p.fut.Wait()
	we := time.Now()
	c.rec.log = append(c.rec.log, logged{req: p.req, resp: resp, err: err})
	c.rec.lat = append(c.rec.lat, ms(we.Sub(p.due)))
	c.rec.waitMS = append(c.rec.waitMS, ms(we.Sub(ws)))
	c.rec.doUS = append(c.rec.doUS, float64(p.sentEnd.Sub(p.sent))/float64(time.Microsecond))
	if tr != nil {
		id := c.rec.id<<40 | int64(c.id)<<32 | int64(p.req)
		root := tr.add("request", p.due, we, -1, id)
		tr.add("client.do", p.sent, p.sentEnd, root, id)
		tr.add("client.wait", ws, we, root, id)
	}
}

// closedLoop keeps peakWindow requests in flight on every connection
// until each has sent its share of reqs; its rate is the stack's
// saturated throughput.
func closedLoop(st *stack, id int64, reqs []request, tr *tracer) (phase, error) {
	ph := phase{name: "peak", attempted: int64(len(reqs))}
	var wg sync.WaitGroup
	errs := make([]error, nconns)
	start := time.Now()
	for _, c := range st.conns {
		c.rec = phaseRec{id: id}
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			errs[c.id] = c.saturate(reqs, tr)
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ph, fmt.Errorf("peak phase: %w", err)
		}
	}
	return ph, finishPhase(st, &ph, reqs, false)
}

func (c *conn) saturate(reqs []request, tr *tracer) error {
	var window []pendingReq
	for i := 0; i < len(reqs) || len(window) > 0; {
		for ; i < len(reqs) && len(window) < peakWindow; i++ {
			if reqs[i].conn != c.id {
				continue
			}
			s := time.Now()
			fut, err := c.cl.Do(reqs[i].q)
			if err != nil {
				return err
			}
			window = append(window, pendingReq{req: int32(i), fut: fut, due: s, sent: s, sentEnd: time.Now()})
		}
		if err := c.cl.Flush(); err != nil {
			return err
		}
		// Collect half the window before refilling it.
		n := min(peakWindow/2, len(window))
		for _, p := range window[:n] {
			c.await(p, tr)
		}
		window = append(window[:0], window[n:]...)
	}
	return nil
}

// finishPhase merges the connections' records into ph and checks every
// response against the owning connection's oracle, in send order.
func finishPhase(st *stack, ph *phase, reqs []request, corrupt bool) error {
	var lat, waitMS, doUS []float64
	windows := make([][]float64, heavyWindows)
	for _, c := range st.conns {
		lat = append(lat, c.rec.lat...)
		waitMS = append(waitMS, c.rec.waitMS...)
		doUS = append(doUS, c.rec.doUS...)
		for i, l := range c.rec.log {
			w := int(l.req) * heavyWindows / len(reqs)
			windows[w] = append(windows[w], c.rec.lat[i])
		}
		for _, l := range c.rec.log {
			q := reqs[l.req].q
			if l.err != nil || l.resp.Status != server.StatusOK {
				ph.failed++ // not executed: the oracle does not apply it
				continue
			}
			if q.Op == keys.OpInsert || q.Op == keys.OpRMW {
				ph.writes++
			}
			if corrupt && q.Op == keys.OpSearch {
				l.resp.Found, corrupt = !l.resp.Found, false
			}
			if err := c.check(q, l.resp); err != nil {
				return fmt.Errorf("%s phase, connection %d, request %d: %w", ph.name, c.id, l.req, err)
			}
		}
		c.rec = phaseRec{}
	}
	var wp50, wp90, wp99 []float64
	for _, w := range windows {
		wp50, wp90, wp99 = append(wp50, quantile(w, 0.5)), append(wp90, quantile(w, 0.9)), append(wp99, quantile(w, 0.99))
	}
	ph.n = len(lat)
	ph.p50, ph.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	ph.wp50, ph.wp90, ph.wp99 = median(wp50), median(wp90), median(wp99)
	ph.doUS50, ph.waitMS50 = quantile(doUS, 0.5), quantile(waitMS, 0.5)
	return nil
}

// check compares one response with the oracle and applies the query.
func (c *conn) check(q keys.Query, resp server.Response) error {
	switch q.Op {
	case keys.OpSearch, keys.OpRMW:
		v, ok := c.orc.Get(q.Key)
		if !resp.Recorded || resp.Found != ok || (ok && resp.Value != v) {
			return mismatchf("%v: got found=%v value=%d, oracle found=%v value=%d", q, resp.Found, resp.Value, ok, v)
		}
		c.orc.Apply(q, nil)
	case keys.OpInsert:
		c.orc.Apply(q, nil)
	case keys.OpScan:
		return c.checkScan(q, resp.Rows)
	}
	return nil
}

// checkScan checks a scan's rows: ascending, inside [lo, hi), at most
// the limit, and exact on every key this connection owns up to where
// the rows end.
func (c *conn) checkScan(q keys.Query, rows []keys.KV) error {
	if len(rows) > int(q.Value) {
		return mismatchf("%v: %d rows over limit", q, len(rows))
	}
	end := q.Key2
	if len(rows) == int(q.Value) && len(rows) > 0 {
		end = rows[len(rows)-1].Key + 1
	}
	j := 0
	for k := q.Key; k < end; k++ {
		var got *keys.KV
		if j < len(rows) && rows[j].Key == k {
			got = &rows[j]
			j++
		}
		if int(k%nconns) != c.id {
			continue
		}
		v, ok := c.orc.Get(k)
		if ok != (got != nil) || (ok && got.Value != v) {
			return mismatchf("%v: key %d row %v, oracle found=%v value=%d", q, k, got, ok, v)
		}
	}
	if j != len(rows) {
		return mismatchf("%v: rows unsorted or outside the range", q)
	}
	return nil
}

// checkRecovered compares the reopened DB with the oracles: every
// acknowledged write, and nothing else, survived.
func checkRecovered(db *qtrans.DB, conns []*conn) error {
	want := 0
	for _, c := range conns {
		want += c.orc.Len()
	}
	got := 0
	var err error
	db.Scan(func(k keys.Key, v keys.Value) bool {
		got++
		if ov, ok := conns[k%nconns].orc.Get(k); !ok || ov != v {
			err = mismatchf("after reopen key %d = %d, oracle found=%v value=%d", k, v, ok, ov)
			return false
		}
		return true
	})
	if err == nil && got != want {
		err = mismatchf("after reopen %d pairs, oracle %d", got, want)
	}
	return err
}

// serveLayers reads the registry's change across the heavy phase.
func serveLayers(before, after metrics.Snapshot, heavy phase, walBytes int64) map[string]float64 {
	cnt := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	hist := func(name string) metrics.HistogramSnapshot {
		return histDelta(before.Histograms[name], after.Histograms[name])
	}
	batches := cnt("batches_total")
	queries := cnt("queries_total")
	stageMS := func(stage string) float64 { return frac(float64(hist("stage_"+stage+"_ns").Sum)/1e6, batches) }
	wall := hist("batch_wall_ns")
	secs := heavy.wall.Seconds()
	return map[string]float64{
		"core.qsat_ms":                  stageMS("qsat-phase1") + stageMS("qsat-phase2"),
		"core.reduction":                1 - frac(cnt("queries_remaining_total"), queries),
		"core.inferred_frac":            frac(cnt("inferred_returns_total"), queries),
		"core.batch_ms_p50":             float64(wall.Quantile(0.5)) / 1e6,
		"core.busy_frac":                float64(wall.Sum) / 1e9 / secs,
		"cache.pass_ms":                 stageMS("cache"),
		"cache.hit_rate":                frac(cnt("cache_hits_total"), cnt("cache_hits_total")+cnt("cache_misses_total")),
		"cache.evictions_per_batch":     frac(cnt("cache_evictions_total"), batches),
		"cache.flushes_per_batch":       frac(cnt("cache_flushes_total"), batches),
		"palm.find_ms":                  stageMS("find"),
		"palm.evaluate_ms":              stageMS("evaluate"),
		"palm.modify_ms":                stageMS("modify"),
		"palm.fence_hit_rate":           frac(cnt("fence_hits_total"), cnt("queries_remaining_total")),
		"btree.splits_per_batch":        frac(cnt("splits_total"), batches),
		"btree.shifted_slots_per_batch": frac(cnt("shifted_slots_total"), batches),
		"btree.gap_claims_per_batch":    frac(cnt("gap_claims_total"), batches),
		"batcher.batch_size_mean":       hist("batcher_batch_size").Mean(),
		"batcher.batches_per_s":         float64(hist("batcher_batch_size").Count) / secs,
		"batcher.fill_permille_p50":     float64(hist("batcher_fill_permille").Quantile(0.5)),
		"client.do_us_p50":              heavy.doUS50,
		"client.wait_ms_p50":            heavy.waitMS50,
		"gen.lag_ms_max":                heavy.lagMaxMS,
		"wal.append_us_p50":             float64(hist("wal_append_ns").Quantile(0.5)) / 1e3,
		"wal.fsync_us_p50":              float64(hist("wal_fsync_ns").Quantile(0.5)) / 1e3,
		"wal.bytes_per_write":           frac(float64(walBytes), float64(heavy.writes)),
	}
}
