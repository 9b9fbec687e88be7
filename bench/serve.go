package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"tde"
	"tde/internal/serve"
)

// classShare skews the sessions' mix Zipf-like — 1, 1/2, 1/3, ... of 24
// requests per cycle of 65 — the cheap filters first and the join last;
// q_wide_group sits in the middle so serialising a ~40 k-row JSON result
// stays a regular event.
var classShare = [nClasses]int{
	qDictFilter: 24, qZoneRange: 12, qRLERuns: 8, qTokenGroup: 6,
	qWideGroup: 5, qTPCHQ6: 4, qTPCHQ1: 3, qJoin: 3,
}

// classCycle is one cycle of the mix in an order drawn from the seed.
// Each session walks a cycle of its own round and round, so every run
// sends the classes in exactly the shares above: drawing each request at
// random instead moves the heavy classes' count, and with it throughput,
// by ~10 % from seed to seed. The sessions' orders differ so that which
// requests meet in the admission queue keeps changing through the window.
func classCycle(seed int64) []int {
	var cycle []int
	for c, n := range classShare {
		for i := 0; i < n; i++ {
			cycle = append(cycle, c)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
	return cycle
}

// pick is the nth request of a walk round cycle.
func pick(qs [nClasses][]*query, cycle []int, n int) *query {
	class := qs[cycle[n%len(cycle)]]
	return class[n/len(cycle)%len(class)]
}

// governorMemory is the shared pool's cap; the mix never comes near it,
// so nothing is shed for memory and the cache size alone decides evictions.
const governorMemory = 1 << 30

// serveStats holds the per-layer samples the traced requests collect; its
// mutex also guards the runner's operation samples, which the sessions
// record concurrently.
type serveStats struct {
	mu              sync.Mutex
	admissionWaitMs []float64
	serializeMs     []float64
	responseBytes   []float64
}

// testbed is one repetition's server: the opened extract behind
// internal/serve on a loopback listener.
type testbed struct {
	db   *tde.Database
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

func (tb *testbed) stop() {
	if tb == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = tb.http.Shutdown(ctx)
	<-tb.done
	_ = tb.srv.Drain(ctx)
	tb.db.Close()
}

// serveSessions is several HTTP sessions sharing one server, closed loop:
// each keep-alive client posts a query, reads and decodes the whole JSON
// response, checks it, and posts the next.
func (r *runner) serveSessions() error {
	var qs [nClasses][]*query
	var tb *testbed
	var cacheBytes, workingSet int64
	sc := r.cfg.sc

	err := r.setUp(func(d *dataset) error {
		o, err := newOracle(d)
		if err != nil {
			return err
		}
		qs = buildQueries(r.cfg.seed, o.origins())
		answer(qs, o)
		return nil
	}, func(d *dataset, last bool) error {
		tb.stop()
		path := filepath.Join(r.dir, fmt.Sprintf("serve-%d.tde", len(r.setups)))
		if _, err := buildExtract(d, path, nil, 0, 0); err != nil {
			return err
		}
		r.extractBytes = fileSize(path)
		db, err := tde.Open(path)
		if err != nil {
			return fmt.Errorf("open: %w", err)
		}
		// Size the decode cache from the data: run every query once
		// against a cache nothing is evicted from, and give the server
		// half of what that held.
		probe := tde.NewGovernor(tde.GovernorConfig{MemoryBytes: governorMemory, CacheBytes: governorMemory})
		for _, class := range qs {
			for _, q := range class {
				if _, err := db.QueryContext(context.Background(), q.sql, tde.QueryOptions{Governor: probe}); err != nil {
					return err
				}
			}
		}
		workingSet = probe.Stats().Cache.Bytes
		cacheBytes = workingSet / 2
		if tb, err = startTestbed(db, sc, cacheBytes); err != nil {
			return err
		}
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for i := 0; i < sc.WarmupOps*nClasses; i++ {
			r.request(client, tb.url, qs[i%nClasses][0], 0, nil, nil) // nil stats: not recorded
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer func() { tb.stop() }()
	r.info["cache_bytes"] = cacheBytes
	r.info["decoded_working_set_bytes"] = workingSet
	r.info["governor_memory_bytes"] = int64(governorMemory)
	r.info["sessions"] = sc.Sessions
	r.info["max_concurrent"] = sc.MaxConcurrent

	var directMs []float64
	if r.tr != nil {
		cycle := classCycle(r.cfg.seed)
		// The same draw of queries called directly, under a governor sized
		// like the server's: the base serve.overhead_over_direct divides by.
		gov := tde.NewGovernor(tde.GovernorConfig{MemoryBytes: governorMemory, CacheBytes: cacheBytes})
		for i := 0; i < 3*len(cycle); i++ {
			q := pick(qs, cycle, i)
			took := r.tr.timed("exec.query", 0, 0, func() {
				_, _ = tb.db.QueryContext(context.Background(), q.sql, tde.QueryOptions{Governor: gov})
			})
			directMs = append(directMs, millis(took))
		}
	}

	before := tb.srv.Stats()
	st := &serveStats{}
	var wg sync.WaitGroup
	start := startWindow()
	for s := 0; s < sc.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			cycle := classCycle(r.cfg.seed*31 + int64(s))
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for n := 0; time.Since(start).Seconds() < r.cfg.seconds; n++ {
				r.request(client, tb.url, pick(qs, cycle, n), s*1_000_000+n+1, r.tracerFor(n), st)
			}
		}(s)
	}
	wg.Wait()
	r.window = time.Since(start).Seconds()
	after := tb.srv.Stats()

	cache := after.Governor.Cache
	lookups := float64(cache.Hits - before.Governor.Cache.Hits + cache.Misses - before.Governor.Cache.Misses)
	r.info["cache_hit_rate"] = ratio(float64(cache.Hits-before.Governor.Cache.Hits), lookups)
	if r.tr != nil {
		accepted := float64(after.Accepted - before.Accepted)
		r.layer["serve.admission_wait_ms_p50"] = percentile(st.admissionWaitMs, 0.5)
		r.layer["serve.serialize_ms_p50"] = percentile(st.serializeMs, 0.5)
		r.layer["serve.response_bytes_p50"] = percentile(st.responseBytes, 0.5)
		r.layer["serve.queued_share"] = ratio(float64(after.Queued-before.Queued), accepted)
		r.layer["serve.shed_share"] = ratio(float64(after.Shed-before.Shed), accepted+float64(after.Shed-before.Shed))
		r.layer["serve.overhead_over_direct"] = ratio(percentile(r.ops, 0.5), percentile(directMs, 0.5))
		r.layer["exec.cache_hit_rate"] = ratio(float64(cache.Hits-before.Governor.Cache.Hits), lookups)
		r.layer["exec.cache_evictions"] = float64(cache.Evictions - before.Governor.Cache.Evictions)
	}
	return nil
}

func startTestbed(db *tde.Database, sc scale, cacheBytes int64) (*testbed, error) {
	srv := serve.New(db, serve.Config{
		MaxConcurrent: sc.MaxConcurrent,
		Governor:      tde.GovernorConfig{MemoryBytes: governorMemory, CacheBytes: cacheBytes},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tb := &testbed{db: db, srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/query", done: make(chan struct{})}
	go func() {
		defer close(tb.done)
		_ = tb.http.Serve(ln) // returns once Shutdown closes the listener
	}()
	return tb, nil
}

// request is one HTTP query as a session sees it: post, read the whole
// body, decode the JSON, and only then stop the clock; checking the rows
// is the benchmark's work and happens after. A verified request is
// recorded as one of the window's operations unless st is nil (warm-up).
func (r *runner) request(client *http.Client, url string, q *query, op int, tr *tracer, st *serveStats) {
	r.attempt()
	body, _ := json.Marshal(serve.QueryRequest{SQL: q.sql})
	var resp serve.QueryResponse
	var status, size int
	var err error
	took := tr.timed("serve.http_query", 0, op, func() {
		var res *http.Response
		if res, err = client.Post(url, "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer res.Body.Close()
		status = res.StatusCode
		var raw []byte
		if raw, err = io.ReadAll(res.Body); err != nil || status != http.StatusOK {
			return
		}
		size = len(raw)
		err = json.Unmarshal(raw, &resp)
	})
	switch {
	case err != nil:
		r.fail("%s: %v", classNames[q.class], err)
		return
	case status != http.StatusOK:
		r.fail("%s: HTTP %d", classNames[q.class], status)
		return
	}
	if err := q.want.check(resp.Rows, nil); err != nil {
		r.fail("%s: wrong answer: %v", classNames[q.class], err)
		return
	}
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	r.recordOp(took, tr)
	if tr != nil && resp.Stats != nil && len(resp.Stats.Operators) > 0 {
		// Counts come from the server's response; the times they are set
		// against are the benchmark's own span and the server's elapsed_ms.
		root := resp.Stats.Operators[0]
		execMs := float64(root.EndNanos-root.StartNanos) / 1e6
		st.admissionWaitMs = append(st.admissionWaitMs, max(0, resp.ElapsedMillis-execMs))
		st.serializeMs = append(st.serializeMs, max(0, millis(took)-resp.ElapsedMillis))
		st.responseBytes = append(st.responseBytes, float64(size))
	}
}
