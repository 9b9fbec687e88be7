package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinyConfig runs a workload on tinyScale with a short window; every run
// keeps its files under the test's own temporary directory.
func tinyConfig(t *testing.T, workload string, seed int64, trace bool) config {
	t.Helper()
	return config{workload: workload, seed: seed, seconds: 0.6, trace: trace, sc: tinyScale, outDir: t.TempDir()}
}

func mustRun(t *testing.T, cfg config) *report {
	t.Helper()
	rep, err := runWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", cfg.workload, rep.Failed, rep.Attempted, rep.Info["first_failure"])
	}
	return rep
}

func sqlOf(qs [nClasses][]*query) []string {
	var out []string
	for _, class := range qs {
		for _, q := range class {
			out = append(out, q.sql)
		}
	}
	return out
}

func overlayOf(t *testing.T, seed int64) ([]dml, []string) {
	t.Helper()
	o, err := newOracle(generate(seed, tinyScale))
	if err != nil {
		t.Fatal(err)
	}
	qs := buildQueries(seed, o.origins())
	return o.buildOverlay(rand.New(rand.NewSource(seed)), tinyScale.OverlayShare), sqlOf(qs)
}

func writerStatements(seed int64, n int) []string {
	w := newWriter(&runner{cfg: config{seed: seed, sc: tinyScale}}, nil)
	var out []string
	for i := 0; i < n; i++ {
		sql, _, ack, _ := w.statement()
		ack()
		out = append(out, sql)
	}
	return out
}

// The same seed must give byte-identical inputs, literals, overlay and
// writer statements; another seed must change them.
func TestSeedDeterminism(t *testing.T) {
	a, b, c := generate(7, tinyScale), generate(7, tinyScale), generate(8, tinyScale)
	if a.hash() != b.hash() {
		t.Error("same seed generated different inputs")
	}
	if a.hash() == c.hash() {
		t.Error("different seeds generated the same inputs")
	}
	ovA, sqlA := overlayOf(t, 7)
	ovB, sqlB := overlayOf(t, 7)
	ovC, sqlC := overlayOf(t, 8)
	if !reflect.DeepEqual(sqlA, sqlB) || !reflect.DeepEqual(ovA, ovB) {
		t.Error("same seed drew different literals or overlay statements")
	}
	if reflect.DeepEqual(sqlA, sqlC) || reflect.DeepEqual(ovA, ovC) {
		t.Error("different seeds drew the same literals or overlay statements")
	}
	if len(ovA) == 0 {
		t.Error("empty overlay")
	}
	if !reflect.DeepEqual(writerStatements(7, 200), writerStatements(7, 200)) {
		t.Error("same seed drew different writer statements")
	}
	if reflect.DeepEqual(writerStatements(7, 200), writerStatements(8, 200)) {
		t.Error("different seeds drew the same writer statements")
	}
}

// Every workload runs on tiny data without a failed operation and reports
// every end-to-end metric as a positive number.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		rep := mustRun(t, tinyConfig(t, w.Name, 3, false))
		if len(rep.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(rep.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := rep.Metrics[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, m.Name, v)
			}
		}
	}
}

// wantLayers lists, per workload, the layers whose spans must be in the
// traced run and those that must not: a workload that bypasses a layer
// has to show it.
var wantLayers = map[string]struct{ present, absent []string }{
	"extract_build":   {[]string{"tde", "textscan", "enc", "heap", "storage"}, []string{"sqlparse", "plan", "exec", "delta", "wal", "serve"}},
	"dashboard_clean": {[]string{"sqlparse", "plan", "exec", "enc"}, []string{"tde", "textscan", "heap", "storage", "delta", "wal", "serve"}},
	"dashboard_dirty": {[]string{"sqlparse", "plan", "exec", "delta", "wal", "tde"}, []string{"textscan", "heap", "storage", "enc", "serve"}},
	"serve_sessions":  {[]string{"serve", "exec"}, []string{"tde", "textscan", "heap", "storage", "enc", "sqlparse", "plan", "delta", "wal"}},
}

// countMetrics must repeat exactly for a seed: they are counts, not times.
var countMetrics = map[string][]string{
	"extract_build": {"enc.bytes_per_value.for", "enc.bytes_per_value.delta", "enc.bytes_per_value.dict", "enc.bytes_per_value.rle",
		"enc.reencodings", "storage.bytes_per_row.lineitem", "storage.bytes_per_row.orders", "storage.bytes_per_row.flights"},
	"dashboard_clean": {"plan.encoded_routine_share", "plan.blocks_skipped_share"},
	"dashboard_dirty": {"delta.overlay_rows", "plan.encoded_routine_share"},
}

// checkChromeTrace applies scripts/tracecheck's rules: every span is a
// complete event with non-negative ts and dur on a thread row of its own,
// and every such row has a thread_name record.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	named, spans := map[int]bool{}, map[int]bool{}
	for i, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.TS == nil || ev.PID == nil || ev.TID == nil || *ev.TS < 0 || (ev.Dur != nil && *ev.Dur < 0) {
				t.Fatalf("event %d: malformed complete event", i)
			}
			if spans[*ev.TID] {
				t.Fatalf("event %d: second span on tid %d", i, *ev.TID)
			}
			spans[*ev.TID] = true
		case "M":
			if _, ok := ev.Args["name"].(string); !ok || ev.TID == nil {
				t.Fatalf("event %d: malformed thread_name", i)
			}
			named[*ev.TID] = true
		default:
			t.Fatalf("event %d: phase %q", i, ev.Ph)
		}
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	for tid := range spans {
		if !named[tid] {
			t.Fatalf("span on tid %d has no thread_name", tid)
		}
	}
}

// The traced run prints exactly the declared per-layer metrics, has spans
// for the layers its workload exercises and none for those it bypasses,
// writes a loadable trace, and repeats its count metrics exactly.
func TestTracedRuns(t *testing.T) {
	for _, w := range workloadDefs {
		rep := mustRun(t, tinyConfig(t, w.Name, 5, true))
		if len(rep.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.Name, len(rep.Metrics), len(perLayer))
		}
		self, _ := rep.Info["layer_self_ms"].(map[string]float64)
		for _, layer := range wantLayers[w.Name].present {
			if _, ok := self[layer]; !ok {
				t.Errorf("%s: no %s span", w.Name, layer)
			}
		}
		for _, layer := range wantLayers[w.Name].absent {
			if _, ok := self[layer]; ok {
				t.Errorf("%s: unexpected %s span", w.Name, layer)
			}
		}
		// A metric named after a bypassed layer must read 0.
		for _, m := range perLayer {
			for _, layer := range wantLayers[w.Name].absent {
				if layerOf(m.Name) == layer && rep.Metrics[m.Name] != 0 {
					t.Errorf("%s: %s = %v on a workload that bypasses %s", w.Name, m.Name, rep.Metrics[m.Name], layer)
				}
			}
		}
		checkChromeTrace(t, rep.Info["trace_file"].(string))

		if names := countMetrics[w.Name]; names != nil {
			again := mustRun(t, tinyConfig(t, w.Name, 5, true))
			for _, name := range names {
				if rep.Metrics[name] != again.Metrics[name] {
					t.Errorf("%s: %s = %v then %v, want exactly equal", w.Name, name, rep.Metrics[name], again.Metrics[name])
				}
			}
		}
	}
}

func TestServeCacheHitsAndEvicts(t *testing.T) {
	rep := mustRun(t, tinyConfig(t, "serve_sessions", 5, true))
	if hit := rep.Metrics["exec.cache_hit_rate"]; !(hit > 0 && hit < 1) {
		t.Errorf("exec.cache_hit_rate = %v, want strictly between 0 and 1", hit)
	}
	if rep.Metrics["exec.cache_evictions"] == 0 {
		t.Error("the half-sized cache never evicted")
	}
}

func TestExtractSizeRepeats(t *testing.T) {
	a := mustRun(t, tinyConfig(t, "extract_build", 9, false))
	b := mustRun(t, tinyConfig(t, "dashboard_clean", 9, false))
	if a.Metrics["extract_bytes_per_input_byte"] != b.Metrics["extract_bytes_per_input_byte"] {
		t.Errorf("extract_bytes_per_input_byte = %v and %v for one seed", a.Metrics["extract_bytes_per_input_byte"], b.Metrics["extract_bytes_per_input_byte"])
	}
	if n := a.Info["extract_sizes_seen"]; n != 1 {
		t.Errorf("builds of one input produced %v different extract sizes", n)
	}
}

// BENCHMARK.json and the Go declarations are one contract.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decl.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n json %+v\n   go %+v", decl.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n   go %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n   go %+v", decl.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) || !reflect.DeepEqual(decl.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", decl.Command, decl.Paths)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup || len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("setup_s declared: %v; %d end-to-end and %d per-layer metrics", setup, len(endToEnd), len(perLayer))
	}
}

// The printed output ends with the object the driver parses, holding
// exactly the declared metric set for the mode.
func TestOutputContract(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep := mustRun(t, tinyConfig(t, "dashboard_clean", 4, trace))
		var buf bytes.Buffer
		if err := rep.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var last struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
		if last.Correct == nil || !*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil {
			t.Errorf("last line %s", lines[len(lines)-1])
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		if len(last.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics printed, %d declared", trace, len(last.Metrics), len(defs))
		}
		for i, m := range defs {
			if got, ok := last.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
				t.Errorf("trace=%v: metric %s missing or in the wrong unit", trace, m.Name)
			}
			if f := strings.Fields(lines[i]); len(f) != 3 || f[0] != m.Name || f[1] != m.Unit {
				t.Errorf("trace=%v: line %d is %q, want %s %s <value>", trace, i, lines[i], m.Name, m.Unit)
			}
		}
		if doc := parseReport(buf.Bytes()); doc == nil || doc.Info["input_sha256"] == nil || doc.Info["nproc"] == nil {
			t.Error("the run's document is missing from the output")
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		m            metricDef
		base, change []float64
		want         string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "ok"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "ok"},
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{115, 114, 116, 115, 115}, "ok"},
		{lower, steady, []float64{80, 100, 120, 140, 160}, "unresolved"},
	} {
		if _, got := verdict(tc.m, tc.base, tc.change); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.m.Name, tc.base, tc.change, got, tc.want)
		}
	}
}

func TestOracleCheck(t *testing.T) {
	e := newExpected(1)
	e.put([]string{"a"}, 3, 1.5)
	e.put([]string{"b"}, 4, 2.5)
	good := [][]string{{"b", "4", "2.5000000001"}, {"a", "3", "1.5"}}
	if err := e.check(good, nil); err != nil {
		t.Errorf("matching rows rejected: %v", err)
	}
	for name, rows := range map[string][][]string{
		"missing group": {{"a", "3", "1.5"}},
		"extra group":   {{"a", "3", "1.5"}, {"b", "4", "2.5"}, {"c", "1", "1"}},
		"wrong count":   {{"a", "2", "1.5"}, {"b", "4", "2.5"}},
		"wrong real":    {{"a", "3", "1.6"}, {"b", "4", "2.5"}},
	} {
		if e.check(rows, nil) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	marker := func(row []string) bool { return row[0] == "c" }
	if err := e.check([][]string{{"a", "3", "1.5"}, {"b", "4", "2.5"}, {"c", "1", "1"}}, marker); err != nil {
		t.Errorf("marker group not ignored: %v", err)
	}
}
