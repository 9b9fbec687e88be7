package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// resultSet is what -all and -repeat write and -compare reads.
type resultSet struct {
	Runs []*report `json:"runs"`
}

// runChildren runs each workload repeat times, every run in a process of
// its own so peak_rss_mb and the collector's state start fresh, with
// seeds seed, seed+1, ... It prints every run's metrics, and for repeated
// runs each metric's median, quartiles and spread (IQR ÷ median) — the
// table the bounds in BENCHMARK.json are set from.
func runChildren(cfg config, names []string, repeat int, resultsPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	defs := endToEnd
	if cfg.trace {
		trace, defs = "1", perLayer
	}
	var set resultSet
	failed := 0
	for _, name := range names {
		var runs []*report
		for i := 0; i < repeat; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace, "-out", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to exit
			rep := parseReport(out)
			if rep == nil {
				return fmt.Errorf("%s seed %d: no report (%v)", name, seed, err)
			}
			fmt.Printf("== %s seed %d: %d operations, %d failed\n", name, seed, rep.Attempted, rep.Failed)
			for _, m := range defs {
				fmt.Printf("%s %s %s\n", m.Name, m.Unit, strconv.FormatFloat(rep.Metrics[m.Name], 'g', -1, 64))
			}
			failed += rep.Failed
			runs = append(runs, rep)
		}
		set.Runs = append(set.Runs, runs...)
		if repeat > 1 {
			printSpread(os.Stdout, name, defs, runs)
		}
	}
	if resultsPath != "" {
		raw, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultsPath, raw, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

// parseReport finds the "report {...}" line in a run's output.
func parseReport(out []byte) *report {
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		if doc, ok := strings.CutPrefix(sc.Text(), "report "); ok {
			var rep report
			if json.Unmarshal([]byte(doc), &rep) == nil {
				return &rep
			}
		}
	}
	return nil
}

func values(runs []*report, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

func printSpread(w io.Writer, workload string, defs []metricDef, runs []*report) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "-- %s, %d runs\tunit\tmedian\tq1\tq3\tiqr/median\tbound\n", workload, len(runs))
	for _, m := range defs {
		v := values(runs, m.Name)
		q1, _, q3 := quartiles(v)
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.4f\t%.2f\n", m.Name, m.Unit, median(v), q1, q3, spread(v), m.Bound)
	}
	tw.Flush()
}

func loadResults(path string) (map[string][]*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]*report{}
	for _, r := range set.Runs {
		if !r.Trace { // the end-to-end metrics are the untraced runs'
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// verdict judges one (metric, workload) pair: a change is a regression
// when its median is worse than the base's by more than the bound, and
// unresolved — neither regressed nor unchanged — when either side's own
// run-to-run spread is wider than the bound.
func verdict(m metricDef, base, change []float64) (worse float64, status string) {
	mb, mc := median(base), median(change)
	worse = ratio(mc-mb, mb)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(base) > m.Bound || spread(change) > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, their ratio beside its base, both spreads, the bound and the
// verdict.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tchange\tchange/base\tworse by\tspread base\tspread change\tbound\tverdict")
	for _, wl := range workloadDefs {
		b, c := base[wl.Name], change[wl.Name]
		if len(b) == 0 || len(c) == 0 {
			continue
		}
		for _, m := range endToEnd {
			vb, vc := values(b, m.Name), values(c, m.Name)
			worse, status := verdict(m, vb, vc)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%+.4f\t%.4f\t%.4f\t%.2f\t%s\n", wl.Name, m.Name, m.Unit,
				median(vb), median(vc), ratio(median(vc), median(vb)), worse, spread(vb), spread(vc), m.Bound, status)
		}
	}
	return tw.Flush()
}
