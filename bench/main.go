// Command bench is the repository's benchmark: four workloads that each
// make different layers of the engine do the work, six end-to-end
// metrics measured with tracing off, and a traced run that attributes the
// time to layers. See README.md for the glossary and BENCHMARK.json (at
// the repository root) for the contract the driver checks.
//
//	bash bench/run.sh -workload dashboard_clean -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -all -seed 1
//	bash bench/run.sh -workload extract_build -repeat 5
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	outDir   string
}

// runner carries one run of one workload: its inputs, the samples the
// end-to-end metrics are computed from, and the per-layer values.
type runner struct {
	cfg config
	dir string  // scratch directory for extracts and logs, removed at exit
	tr  *tracer // nil unless the run is traced

	setups       []float64 // seconds per set-up repetition
	ops          []float64 // ms per completed, verified operation in the window
	opsUntraced  []float64 // traced run only: the operations that ran without spans ...
	opsTraced    []float64 // ... and those that ran with them
	window       float64   // seconds from the first operation's start to the last one's end
	inputBytes   int64
	extractBytes int64

	mu           sync.Mutex // guards the fields below: sessions and the writer run beside the reader
	attempted    int
	failed       int
	firstFailure string

	layer map[string]float64
	info  map[string]any
}

// attempt counts one operation whose outcome the run will check.
func (r *runner) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail counts an error, a shed request, a wrong answer or a lost write.
func (r *runner) fail(format string, args ...any) {
	r.mu.Lock()
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
	r.mu.Unlock()
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tracerFor alternates the window's operations between traced and
// untraced in a traced run (nil means untraced), so one window yields both
// the spans and the tracing overhead.
func (r *runner) tracerFor(n int) *tracer {
	if n%2 == 0 {
		return r.tr
	}
	return nil
}

// recordOp adds one verified operation's latency to the window's samples;
// tr is the tracer the operation ran with.
func (r *runner) recordOp(d time.Duration, tr *tracer) {
	r.ops = append(r.ops, millis(d))
	switch {
	case tr != nil:
		r.opsTraced = append(r.opsTraced, millis(d))
	case r.tr != nil:
		r.opsUntraced = append(r.opsUntraced, millis(d))
	}
}

// setUp repeats the workload's set-up SetupReps times, timing every
// repetition, and leaves the last one's products in place. once runs a
// single time on the first inputs, outside the timing: it is where the
// oracle — benchmark work, not engine work — computes expected answers.
func (r *runner) setUp(once func(d *dataset) error, rep func(d *dataset, last bool) error) error {
	reps := r.cfg.sc.SetupReps
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory() // every repetition starts from the heap a fresh process has
		start := time.Now()
		d := generate(r.cfg.seed, r.cfg.sc)
		took := time.Since(start)
		if i == 0 {
			r.inputBytes = d.bytes()
			r.info["input_bytes"] = r.inputBytes
			r.info["input_sha256"] = d.hash()
			if err := once(d); err != nil {
				return err
			}
		}
		start = time.Now()
		if err := rep(d, i == reps-1); err != nil {
			return err
		}
		r.setups = append(r.setups, (took + time.Since(start)).Seconds())
	}
	return nil
}

// startWindow collects the set-up's garbage, so that every window starts
// from the same heap state, and returns the window's start time.
func startWindow() time.Time {
	runtime.GC()
	return time.Now()
}

// overheadShare is the traced run's cost: 1 − untraced ÷ traced mean
// operation time, the two kinds of operation alternating inside one window.
func (r *runner) overheadShare() float64 {
	if len(r.opsTraced) == 0 || len(r.opsUntraced) == 0 {
		return 0
	}
	return 1 - mean(r.opsUntraced)/mean(r.opsTraced)
}

var workloadFuncs = map[string]func(*runner) error{
	"extract_build":   (*runner).extractBuild,
	"dashboard_clean": func(r *runner) error { return r.dashboard(false) },
	"dashboard_dirty": func(r *runner) error { return r.dashboard(true) },
	"serve_sessions":  (*runner).serveSessions,
}

// report is one run's result: the document the output contract asks for.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Info      map[string]any     `json:"info"`
}

func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runWorkload runs one workload once and returns its report.
func runWorkload(cfg config) (*report, error) {
	fn, ok := workloadFuncs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "tmp-"+cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, dir: dir, layer: map[string]float64{}, info: map[string]any{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if len(r.ops) == 0 || r.window <= 0 {
		return nil, fmt.Errorf("%s: no operation completed in the window (first failure: %s)", cfg.workload, r.firstFailure)
	}

	rep := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]float64{}, Info: r.info}
	r.info["window_s"] = r.window
	r.info["op_samples"] = len(r.ops)
	r.info["setup_samples"] = len(r.setups)
	r.info["failed_ops_share"] = ratio(float64(r.failed), float64(r.attempted))
	r.info["first_failure"] = r.firstFailure
	r.info["nproc"] = runtime.NumCPU()
	r.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.info["go_version"] = runtime.Version()
	r.info["commit"] = commitID()
	r.info["extract_bytes"] = r.extractBytes
	r.info["scale"] = cfg.sc
	if cfg.trace {
		r.layer["trace.overhead_share"] = r.overheadShare()
		path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		r.info["trace_file"] = path
		r.info["layer_self_ms"] = r.tr.layerSelfMillis()
		for _, m := range perLayer {
			rep.Metrics[m.Name] = r.layer[m.Name]
		}
		for name := range r.layer {
			if _, ok := rep.Metrics[name]; !ok {
				return nil, fmt.Errorf("per-layer metric %q is not declared", name)
			}
		}
		return rep, nil
	}
	rep.Metrics = map[string]float64{
		"setup_s":                      median(r.setups),
		"ops_per_s":                    float64(len(r.ops)) / r.window,
		"op_p50_ms":                    percentile(r.ops, 0.50),
		"op_p95_ms":                    percentile(r.ops, 0.95),
		"extract_bytes_per_input_byte": ratio(float64(r.extractBytes), float64(r.inputBytes)),
		"peak_rss_mb":                  peakRSSMB(),
	}
	return rep, nil
}

// print writes the report the way the output contract asks: every metric
// as a "name unit value" line, the run's document, and as the last line
// the object the driver parses.
func (rep *report) print(w io.Writer) error {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range defs {
		v := rep.Metrics[m.Name]
		fmt.Fprintf(w, "%s %s %s\n", m.Name, m.Unit, strconv.FormatFloat(v, 'g', -1, 64))
		last.Metrics[m.Name] = value{v, m.Unit}
	}
	fmt.Fprintf(w, "failed_ops_share ratio %v\n", rep.Info["failed_ops_share"])
	doc, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report %s\n", doc)
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	var cfg config
	var traceFlag, repeat int
	var all, compare bool
	var results string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: extract_build, dashboard_clean, dashboard_dirty or serve_sessions")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for traces, result sets and scratch files")
	flag.BoolVar(&all, "all", false, "run every workload once, each in a process of its own")
	flag.IntVar(&repeat, "repeat", 0, "run the workload N times (seed, seed+1, ...) and print each metric's spread")
	flag.StringVar(&results, "results", "", "with -all or -repeat: also write the result set to this file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two result sets: -compare base.json change.json")
	flag.Parse()
	cfg.trace = traceFlag != 0
	cfg.sc = fullScale

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result-set files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case all || repeat > 0:
		names := []string{cfg.workload}
		if all {
			names = names[:0]
			for _, w := range workloadDefs {
				names = append(names, w.Name)
			}
		}
		err = runChildren(cfg, names, max(repeat, 1), results)
	default:
		var rep *report
		if rep, err = runWorkload(cfg); err == nil {
			if err = rep.print(os.Stdout); err == nil && rep.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed; first: %s\n", rep.Failed, rep.Attempted, rep.Info["first_failure"])
				os.Exit(1)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
