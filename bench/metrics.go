package main

// metricDef declares one metric. The two lists below are the benchmark's
// contract with BENCHMARK.json (a test keeps them identical): the untraced
// run prints exactly endToEnd, the traced run exactly perLayer, on every
// workload. A per-layer metric reads 0 on a workload that bypasses its
// layer — that zero is the "no change predicted" side of a claim.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"extract_build", "import of three text tables, save, open: textscan, enc encode, heap and storage do the work; exec, delta, wal, serve none"},
	{"dashboard_clean", "eight query classes on a clean compressed extract: enc decode, plan and exec dominate; textscan, wal and serve are idle"},
	{"dashboard_dirty", "the same reader over a 0.1% write overlay beside a 20 commits/s writer: the only workload where delta and wal work"},
	{"serve_sessions", "two HTTP sessions on one execution slot with a half-sized decode cache: admission, the cache and JSON do work"},
}

// An operation is what the workload's user waits for: one extract build
// (three imports, save, open, three row-count checks), one dashboard
// refresh (the eight query classes, once each), or one HTTP query.
//
// The bounds are the largest the contract allows on everything timed. In
// a quiet stretch ten runs spread (IQR ÷ median) by 2–5 %; but this
// sandbox's host slows everything by 10–50 % for minutes at a time, and
// a ten-run spread taken across such a stretch reached 0.30. The size
// ratio is a count and moves by 0.1 % between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"extract_bytes_per_input_byte", "ratio", "lower", 0.01},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var encKinds = []string{"raw", "for", "delta", "dict", "affine", "rle"}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	perKind := func(prefix, unit, better string) {
		for _, k := range encKinds {
			add(prefix+"."+k, unit, better)
		}
	}
	// extract_build
	add("tde.import_mb_per_s", "MB/s", "higher")
	add("tde.open_ms_p50", "ms", "lower")
	add("textscan.parse_mb_per_s", "MB/s", "higher")
	add("textscan.busy_share", "ratio", "lower")
	perKind("enc.encode_mvals_per_s", "Mval/s", "higher")
	perKind("enc.bytes_per_value", "B/val", "lower")
	add("enc.reencodings", "count", "lower")
	add("heap.intern_mstrings_per_s", "Mstr/s", "higher")
	add("storage.write_mb_per_s", "MB/s", "higher")
	add("storage.read_mb_per_s", "MB/s", "higher")
	for _, t := range tables {
		add("storage.bytes_per_row."+t, "B/row", "lower")
	}
	// dashboard_clean (and, for sqlparse/plan/exec, dashboard_dirty)
	perKind("enc.decode_mvals_per_s", "Mval/s", "higher")
	add("enc.readruns_mvals_per_s", "Mval/s", "higher")
	add("enc.filter_tokens_mvals_per_s", "Mval/s", "higher")
	add("enc.get_ns", "ns", "lower")
	add("sqlparse.parse_us_p50", "us", "lower")
	add("plan.plan_us_p50", "us", "lower")
	add("plan.encoded_routine_share", "ratio", "higher")
	add("plan.blocks_skipped_share", "ratio", "higher")
	for _, c := range classNames {
		add("exec.exec_ms_p50."+c, "ms", "lower")
	}
	add("exec.rows_scanned_per_s", "rows/s", "higher")
	add("exec.bytes_scanned_per_query", "B", "lower")
	add("exec.mem_peak_mb_p95", "MB", "lower")
	// dashboard_dirty
	add("delta.dirty_over_clean_p50", "ratio", "lower")
	add("delta.overlay_rows", "rows", "lower")
	add("delta.rows_merged_per_query", "rows", "lower")
	add("delta.compact_s", "s", "lower")
	add("delta.compact_rows_per_s", "rows/s", "higher")
	add("wal.append_us_p50", "us", "lower")
	add("wal.sync_us_p50", "us", "lower")
	add("wal.bytes_per_txn", "B", "lower")
	add("tde.commit_p50_ms", "ms", "lower")
	add("tde.commit_p95_ms", "ms", "lower")
	add("tde.commit_nonwal_us_p50", "us", "lower")
	add("bench.writer_lateness_p95_ms", "ms", "lower")
	// serve_sessions
	add("serve.admission_wait_ms_p50", "ms", "lower")
	add("serve.serialize_ms_p50", "ms", "lower")
	add("serve.queued_share", "ratio", "lower")
	add("serve.shed_share", "ratio", "lower")
	add("serve.response_bytes_p50", "B", "lower")
	add("serve.overhead_over_direct", "ratio", "lower")
	add("exec.cache_hit_rate", "ratio", "higher")
	add("exec.cache_evictions", "count", "lower")
	// every workload
	add("trace.overhead_share", "ratio", "lower")
	return out
}
