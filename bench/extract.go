package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"tde"
)

// extractBuild is the analyst building an extract from flat files, closed
// loop, one client: import the three tables, save, open, check each
// table's row count; repeat for the window.
func (r *runner) extractBuild() error {
	var d *dataset
	want := map[string]int{}
	path := filepath.Join(r.dir, "build.tde")
	var importTime time.Duration
	var importBytes int64
	var openMs []float64

	// cycle is one operation. It returns how long the import and save took.
	cycle := func(tr *tracer, op int) (total, build time.Duration, err error) {
		start := time.Now()
		root := tr.begin("bench.build", 0, op)
		defer tr.end(root)
		if build, err = buildExtract(d, path, tr, root, op); err != nil {
			return 0, 0, err
		}
		var db *tde.Database
		opened := tr.timed("tde.open", root, op, func() { db, err = tde.Open(path) })
		if err != nil {
			return 0, 0, fmt.Errorf("open: %w", err)
		}
		defer db.Close()
		openMs = append(openMs, millis(opened))
		for _, name := range tables {
			res, err := db.QueryContext(context.Background(), "SELECT COUNT(*) FROM "+name, tde.QueryOptions{})
			if err != nil {
				return 0, 0, fmt.Errorf("count %s: %w", name, err)
			}
			if got := res.Rows[0][0]; got != strconv.Itoa(want[name]) {
				return 0, 0, fmt.Errorf("count %s = %s, want %d", name, got, want[name])
			}
		}
		return time.Since(start), build, nil
	}

	err := r.setUp(func(first *dataset) error {
		want["lineitem"] = countLines(first.lineitem)
		want["orders"] = countLines(first.orders)
		want["flights"] = countLines(first.flights) - 1 // header row
		return nil
	}, func(fresh *dataset, last bool) error {
		d = fresh
		_, _, err := cycle(nil, 0) // one warm-up build, whatever WarmupOps says: a build is ~1 s
		openMs = openMs[:0]
		return err
	})
	if err != nil {
		return err
	}

	sizes := map[int64]bool{}
	start := startWindow()
	for op := 1; time.Since(start).Seconds() < r.cfg.seconds; op++ {
		tr := r.tracerFor(op)
		r.attempt()
		total, build, err := cycle(tr, op)
		if err != nil {
			r.fail("build %d: %v", op, err)
			continue
		}
		r.recordOp(total, tr)
		importTime += build
		importBytes += d.bytes()
		sizes[fileSize(path)] = true
		// Every build starts from a collected heap: whether the previous
		// build's tables were still uncollected when the next one peaked
		// moved peak_rss_mb between 255 and 305 MB from run to run.
		runtime.GC()
	}
	r.window = time.Since(start).Seconds()
	r.extractBytes = fileSize(path)
	// The extract's size is a count: it must not vary between builds of
	// the same inputs.
	r.info["extract_sizes_seen"] = len(sizes)
	r.info["import_mb_per_s"] = ratio(float64(importBytes)/1e6, importTime.Seconds())
	r.info["open_ms_p50"] = percentile(openMs, 0.5)

	if r.tr != nil {
		r.layer["tde.import_mb_per_s"] = ratio(float64(importBytes)/1e6, importTime.Seconds())
		r.layer["tde.open_ms_p50"] = percentile(openMs, 0.5)
		return r.replayImportLayers(d, path, importTime.Seconds()/float64(len(r.ops)))
	}
	return nil
}
