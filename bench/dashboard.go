package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tde"
	"tde/internal/delta"
	"tde/internal/sqlparse"
)

// mixStats holds the per-layer samples the traced refreshes collect.
type mixStats struct {
	parseUs, planUs []float64
	execMs          [nClasses][]float64
	memPeakMB       []float64
	queries         int
	rowsScanned     int64
	bytesScanned    int64
	deltaRows       int64
	// plans keeps each distinct query's latest plan counts, so the plan.*
	// shares are counts over the query set, not over however many
	// refreshes the window happened to fit.
	plans map[*query]planCounts
}

type planCounts struct {
	encoded                      bool // an encoded routine somewhere in the plan
	blocksSkipped, blocksScanned int64
}

// encodedRoutine recognises the routines that work on compressed data:
// run-length and dictionary kernels and token-direct grouping.
func encodedRoutine(routine string) bool {
	for _, mark := range []string{"rle-", "(runs)", "dict-filter", "token-direct"} {
		if strings.Contains(routine, mark) {
			return true
		}
	}
	return false
}

func (st *mixStats) observe(q *query, qs tde.QueryStats) {
	st.queries++
	st.memPeakMB = append(st.memPeakMB, float64(qs.MemoryPeak)/1e6)
	var pc planCounts
	for _, op := range qs.Operators {
		pc.encoded = pc.encoded || encodedRoutine(op.Routine)
		st.deltaRows += op.DeltaRows
		if strings.Contains(op.Kind, "Scan") {
			pc.blocksSkipped += op.BlocksSkipped
			pc.blocksScanned += op.BlocksOut
			st.rowsScanned += op.RowsOut
			st.bytesScanned += op.BytesScanned
		}
	}
	st.plans[q] = pc
}

// refresh is one dashboard refresh: the eight classes once each, literals
// rotating every second round (rounds alternate traced and untraced in a
// traced run, and both kinds must see every literal). Its latency is the sum of the calls the
// dashboard waits for; checking the answers happens outside that sum. With
// a tracer the refresh also times sqlparse.Parse and db.Explain on their
// own, which is what lets the traced run split a query into parse, plan
// and execute from outside the engine.
func (r *runner) refresh(db *tde.Database, qs [nClasses][]*query, qopt tde.QueryOptions, round int, tr *tracer, st *mixStats, markers bool) (time.Duration, bool) {
	ctx := context.Background()
	op := round + 1
	root := tr.begin("bench.refresh", 0, op)
	defer tr.end(root)
	var total time.Duration
	ok := true
	for c := range qs {
		q := qs[c][round/2%len(qs[c])]
		var res *tde.Result
		var err error
		if tr == nil {
			start := time.Now()
			res, err = db.QueryContext(ctx, q.sql, qopt)
			total += time.Since(start)
		} else {
			parent := tr.begin("bench.query", root, op)
			parse := tr.timed("sqlparse.parse", parent, op, func() { _, _ = sqlparse.Parse(q.sql) })
			explain := tr.timed("plan.explain", parent, op, func() { _, _ = db.Explain(q.sql) })
			run := tr.timed("exec.query", parent, op, func() { res, err = db.QueryContext(ctx, q.sql, qopt) })
			tr.end(parent)
			total += parse + explain + run
			st.parseUs = append(st.parseUs, micros(parse))
			st.planUs = append(st.planUs, micros(explain-parse))
			st.execMs[c] = append(st.execMs[c], millis(run-explain))
			if err == nil {
				st.observe(q, res.Stats())
			}
		}
		r.attempt()
		ignore := q.ignore
		if !markers {
			ignore = nil
		}
		if err != nil {
			r.fail("%s: %v", classNames[c], err)
			ok = false
		} else if err := q.want.check(res.Rows, ignore); err != nil {
			r.fail("%s: wrong answer: %v", classNames[c], err)
			ok = false
		}
	}
	return total, ok
}

// runRefreshes is the closed-loop reader: refresh after refresh until the
// window ends. In a traced run every other refresh carries spans.
func (r *runner) runRefreshes(db *tde.Database, qs [nClasses][]*query, qopt tde.QueryOptions, st *mixStats, markers bool) {
	start := startWindow()
	for round := 0; time.Since(start).Seconds() < r.cfg.seconds; round++ {
		tr := r.tracerFor(round)
		if took, ok := r.refresh(db, qs, qopt, round, tr, st, markers); ok {
			r.recordOp(took, tr)
		}
	}
	r.window = time.Since(start).Seconds()
}

// mixLayerMetrics turns the traced refreshes' samples into the sqlparse,
// plan and exec metrics.
func (r *runner) mixLayerMetrics(st *mixStats) {
	r.layer["sqlparse.parse_us_p50"] = percentile(st.parseUs, 0.5)
	r.layer["plan.plan_us_p50"] = percentile(st.planUs, 0.5)
	for c, name := range classNames {
		r.layer["exec.exec_ms_p50."+name] = percentile(st.execMs[c], 0.5)
	}
	var encoded, skipped, scanned float64
	for _, pc := range st.plans {
		if pc.encoded {
			encoded++
		}
		skipped += float64(pc.blocksSkipped)
		scanned += float64(pc.blocksScanned)
	}
	r.layer["plan.encoded_routine_share"] = ratio(encoded, float64(len(st.plans)))
	r.layer["plan.blocks_skipped_share"] = ratio(skipped, skipped+scanned)
	tracedSeconds := 0.0
	for _, ms := range r.opsTraced {
		tracedSeconds += ms / 1e3
	}
	r.layer["exec.rows_scanned_per_s"] = ratio(float64(st.rowsScanned), tracedSeconds)
	r.layer["exec.bytes_scanned_per_query"] = ratio(float64(st.bytesScanned), float64(st.queries))
	r.layer["exec.mem_peak_mb_p95"] = percentile(st.memPeakMB, 0.95)
	r.info["traced_queries"] = st.queries
}

// dashboard is the fixed mix of aggregate queries against an extract
// opened from disk, direct calls with default options, one client. Dirty
// adds a seeded write overlay in set-up and a writer committing small
// transactions on an open-loop schedule beside the reader.
func (r *runner) dashboard(dirty bool) error {
	var qs [nClasses][]*query
	var overlay []dml
	var db *tde.Database
	var path string
	var cleanRefreshMs []float64 // traced dirty run: refreshes timed before the overlay
	ctx := context.Background()

	err := r.setUp(func(d *dataset) error {
		o, err := newOracle(d)
		if err != nil {
			return err
		}
		qs = buildQueries(r.cfg.seed, o.origins())
		if dirty {
			overlay = o.buildOverlay(rand.New(rand.NewSource(r.cfg.seed^0x0e71a7)), r.cfg.sc.OverlayShare)
		}
		answer(qs, o)
		return nil
	}, func(d *dataset, last bool) error {
		if db != nil {
			db.Close()
		}
		path = filepath.Join(r.dir, fmt.Sprintf("dash-%d.tde", len(r.setups)))
		if _, err := buildExtract(d, path, nil, 0, 0); err != nil {
			return err
		}
		r.extractBytes = fileSize(path)
		var err error
		if db, err = tde.Open(path); err != nil {
			return fmt.Errorf("open: %w", err)
		}
		if dirty && last && r.tr != nil {
			// The in-run guard: the same mix on the same tables before a
			// single row is dirty. Its expected answers differ from the
			// dirty ones, so these refreshes are timed, not checked.
			for i := 0; i < 3; i++ {
				cleanRefreshMs = append(cleanRefreshMs, millis(timeMix(db, qs, i)))
			}
		}
		for _, st := range overlay {
			r.attempt()
			if n, err := db.ExecContext(ctx, st.sql); err != nil {
				return fmt.Errorf("overlay %q: %w", st.sql, err)
			} else if n != st.rows {
				r.fail("overlay %q affected %d rows, oracle says %d", st.sql, n, st.rows)
			}
		}
		for i := 0; i < r.cfg.sc.WarmupOps; i++ {
			r.refresh(db, qs, tde.QueryOptions{}, i, nil, nil, false)
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer func() { db.Close() }()
	r.info["overlay_statements"] = len(overlay)

	st := &mixStats{plans: map[*query]planCounts{}}
	if !dirty {
		r.runRefreshes(db, qs, tde.QueryOptions{}, st, false)
		if r.tr != nil {
			r.mixLayerMetrics(st)
			return r.replayDecodeLayers(path)
		}
		return nil
	}

	before := db.WriteStats()
	w := newWriter(r, db)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.run(time.Duration(r.cfg.seconds * float64(time.Second)))
	}()
	r.runRefreshes(db, qs, tde.QueryOptions{}, st, true)
	wg.Wait()
	after := db.WriteStats()
	commitP50, commitP95, lateP95 := percentile(w.fromDue, 0.5), percentile(w.fromDue, 0.95), percentile(w.late, 0.95)
	r.info["commits"] = len(w.fromDue)
	r.info["commit_p50_ms"] = commitP50
	r.info["commit_p95_ms"] = commitP95
	r.info["writer_lateness_p95_ms"] = lateP95

	// Durability: close, reopen from the base file and its log, and every
	// acknowledged marker row must be there, beside unchanged answers.
	if err := db.Close(); err != nil {
		return err
	}
	if db, err = tde.Open(path); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.verify(db)
	r.refresh(db, qs, tde.QueryOptions{}, 0, nil, nil, true)

	if r.tr == nil {
		return nil
	}
	r.mixLayerMetrics(st)
	r.layer["delta.dirty_over_clean_p50"] = ratio(percentile(r.ops, 0.5), percentile(cleanRefreshMs, 0.5))
	overlayRows := 0
	for _, t := range before.Tables {
		overlayRows += t.DeletedBase + t.LiveRows + t.DeadRows
	}
	r.layer["delta.overlay_rows"] = float64(overlayRows)
	r.layer["delta.rows_merged_per_query"] = ratio(float64(st.deltaRows), float64(st.queries))
	r.layer["wal.bytes_per_txn"] = ratio(float64(after.WALBytes-before.WALBytes), float64(len(w.fromDue)))
	r.layer["tde.commit_p50_ms"] = commitP50
	r.layer["tde.commit_p95_ms"] = commitP95
	r.layer["bench.writer_lateness_p95_ms"] = lateP95
	if err := r.replayWAL(w.batches, percentile(w.service, 0.5)); err != nil {
		return err
	}
	rows := 0
	for _, t := range db.WriteStats().Tables {
		if t.DeletedBase+t.LiveRows > 0 {
			rows += t.BaseRows - t.DeletedBase + t.LiveRows
		}
	}
	var cerr error
	took := r.tr.timed("delta.compact", 0, 0, func() { cerr = db.Compact() })
	if cerr != nil {
		return fmt.Errorf("compact: %w", cerr)
	}
	r.layer["delta.compact_s"] = took.Seconds()
	r.layer["delta.compact_rows_per_s"] = ratio(float64(rows), took.Seconds())
	return nil
}

// timeMix runs one unchecked refresh and returns its latency.
func timeMix(db *tde.Database, qs [nClasses][]*query, round int) time.Duration {
	var total time.Duration
	for c := range qs {
		start := time.Now()
		_, _ = db.QueryContext(context.Background(), qs[c][round%len(qs[c])].sql, tde.QueryOptions{})
		total += time.Since(start)
	}
	return total
}

// writer is dashboard_dirty's second user: small transactions on an
// open-loop schedule. Every row it writes is a marker row (see
// queries.go), so the reader's expected answers stay valid, and it keeps
// the book of acknowledged markers that must survive a reopen.
type writer struct {
	r   *runner
	db  *tde.Database
	rng *rand.Rand

	next    int         // next marker number
	flights map[int]int // live flights markers → their DepDelay
	oldest  []int       // the live flights markers, oldest first
	lines   map[int]int // live lineitem markers → their row count

	fromDue []float64 // ms from when a commit was due to its acknowledgement
	service []float64 // ms from when it was sent
	late    []float64 // ms the generator sent it after it was due
	batches [][]delta.Op
}

func newWriter(r *runner, db *tde.Database) *writer {
	return &writer{r: r, db: db, rng: rand.New(rand.NewSource(r.cfg.seed ^ 0x3417e4)),
		flights: map[int]int{}, lines: map[int]int{}}
}

var flightsStringCols = []bool{false, true, false, true, true, true, false, false, false, false, false}

func lineitemStringCols() []bool {
	out := make([]bool, len(lineitemKinds))
	for i, k := range lineitemKinds {
		out[i] = k == "str"
	}
	return out
}

func markerOps(table string, mask []bool, rows int) []delta.Op {
	ops := make([]delta.Op, rows)
	for i := range ops {
		row := make([]delta.Value, len(mask))
		for c, str := range mask {
			if str {
				row[c] = delta.String("marker")
			} else {
				row[c] = delta.Scalar(uint64(i))
			}
		}
		ops[i] = delta.Op{Table: table, Kind: delta.OpInsert, Row: row}
	}
	return ops
}

// statement draws the next transaction: 1–4 marker rows inserted into
// flights or lineitem, or an earlier flights marker updated or deleted.
// ack applies it to the book once the engine acknowledged the commit;
// ops is the same batch in the shape the WAL logs, for the isolated replay.
func (w *writer) statement() (sql string, rows int, ack func(), ops []delta.Op) {
	roll := w.rng.Intn(10)
	if roll >= 8 && len(w.oldest) > 0 {
		id := w.oldest[0]
		w.oldest = w.oldest[1:]
		del := delta.Op{Table: "flights", Kind: delta.OpDelete, RowID: uint64(id)}
		if roll == 8 {
			w.oldest = append(w.oldest, id) // an updated marker lives on
			return fmt.Sprintf("UPDATE flights SET DepDelay = DepDelay + 1 WHERE FlightNum = %d", markerFlightNum(id)), 1,
				func() { w.flights[id]++ }, append([]delta.Op{del}, markerOps("flights", flightsStringCols, 1)...)
		}
		return fmt.Sprintf("DELETE FROM flights WHERE FlightNum = %d", markerFlightNum(id)), 1,
			func() { delete(w.flights, id) }, []delta.Op{del}
	}
	n := 1 + w.rng.Intn(4)
	first := w.next
	w.next += n
	var vals []string
	if roll < 2 {
		key := markerOrderKey(first)
		for i := 0; i < n; i++ {
			vals = append(vals, lineValues(key, i+1, 1, "1.00", "0.00", "N", "O", markerDate, "marker"))
		}
		return "INSERT INTO lineitem VALUES " + strings.Join(vals, ", "), n,
			func() { w.lines[key] = n }, markerOps("lineitem", lineitemStringCols(), n)
	}
	for i := 0; i < n; i++ {
		vals = append(vals, flightValues(markerDate, markerCarrier, markerFlightNum(first+i), "ZZZ", "ZZY", 0, 0, 100))
		w.oldest = append(w.oldest, first+i)
	}
	return "INSERT INTO flights VALUES " + strings.Join(vals, ", "), n, func() {
		for i := 0; i < n; i++ {
			w.flights[first+i] = 0
		}
	}, markerOps("flights", flightsStringCols, n)
}

// run commits on the open-loop schedule for the window: commit k is due at
// k ÷ rate whether or not the previous one has returned in time, and its
// latency counts from when it was due.
func (w *writer) run(window time.Duration) {
	interval := time.Duration(float64(time.Second) / w.r.cfg.sc.WriterRate)
	start := time.Now()
	for k := 0; ; k++ {
		due := time.Duration(k) * interval
		if due >= window {
			return
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Since(start)
		sql, rows, ack, ops := w.statement()
		w.r.attempt()
		var n int
		var err error
		w.r.tr.timed("tde.commit", 0, -(k + 1), func() { n, err = w.db.ExecContext(context.Background(), sql) })
		done := time.Since(start)
		if err != nil {
			w.r.fail("commit %q: %v", sql, err)
			continue
		}
		if n != rows {
			w.r.fail("commit %q affected %d rows, want %d", sql, n, rows)
		}
		ack()
		w.fromDue = append(w.fromDue, millis(done-due))
		w.service = append(w.service, millis(done-sent))
		w.late = append(w.late, millis(sent-due))
		if w.r.tr != nil {
			w.batches = append(w.batches, ops)
		}
	}
}

// verify checks the reopened database against the book: a missing or
// stale marker is a lost acknowledged write.
func (w *writer) verify(db *tde.Database) {
	check := func(sql string, want *expected) {
		w.r.attempt()
		res, err := db.QueryContext(context.Background(), sql, tde.QueryOptions{})
		if err != nil {
			w.r.fail("marker check: %v", err)
		} else if err := want.check(res.Rows, nil); err != nil {
			w.r.fail("acknowledged write lost: %v", err)
		}
	}
	fl := newExpected(1)
	for id, dep := range w.flights {
		fl.put([]string{fmt.Sprint(markerFlightNum(id))}, dep)
	}
	check(fmt.Sprintf("SELECT FlightNum, DepDelay FROM flights WHERE Carrier = '%s'", markerCarrier), fl)
	li := newExpected(1)
	for key, n := range w.lines {
		li.put([]string{fmt.Sprint(key)}, n)
	}
	check(fmt.Sprintf("SELECT l_orderkey, COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '%s' GROUP BY l_orderkey", markerDate), li)
}
