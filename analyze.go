package tde

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tde/internal/exec"
	"tde/internal/plan"
)

// ExplainAnalyze runs sql and returns the plan tree annotated with the
// measured per-operator actuals: rows and blocks produced, wall time
// (inclusive of children), bytes decoded from storage, the tactical
// routine each operator chose at run time, and spill activity.
func (db *Database) ExplainAnalyze(sql string) (string, error) {
	res, err := db.ExplainAnalyzeContext(context.Background(), sql, QueryOptions{})
	if err != nil {
		return "", err
	}
	return res.ExplainAnalyze(), nil
}

// ExplainAnalyzeContext runs sql under the given context and options and
// returns the full Result; render the annotated tree with
// Result.ExplainAnalyze, or consume Result.Stats() directly.
func (db *Database) ExplainAnalyzeContext(ctx context.Context, sql string, opt QueryOptions) (*Result, error) {
	return db.QueryContext(ctx, sql, opt)
}

// ExplainAnalyze renders the executed plan tree with per-operator
// actuals, one operator per line in plan order:
//
//	#1 Limit(10)  rows=10 blocks=1 time=2.1ms
//	└─ #2 HashJoin [hash]  rows=812 blocks=1 time=2.0ms
//	   ├─ #3 Scan(lineitem) [for+dict]  rows=60175 blocks=59 time=1.1ms bytes=481KB
//	   └─ #4 Scan(nation) [in-place(dict+raw)]  rows=25 blocks=0 time=4µs bytes=200B
//
// IDs are the stable plan-assigned operator IDs; [brackets] show the
// tactical routine or encoding path chosen at run time; spilling
// operators append their spill counters.
func (r *Result) ExplainAnalyze() string {
	if r.tree == nil {
		return r.Plan
	}
	byID := make(map[int]OperatorStats, len(r.stats.Operators))
	for _, s := range r.stats.Operators {
		byID[s.ID] = s
	}
	var b strings.Builder
	var walk func(n *exec.PlanNode, prefix string, childPrefix string)
	walk = func(n *exec.PlanNode, prefix, childPrefix string) {
		b.WriteString(prefix)
		b.WriteString(renderOpLine(n, byID[n.ID]))
		b.WriteByte('\n')
		for i, c := range n.Children {
			if i == len(n.Children)-1 {
				walk(c, childPrefix+"└─ ", childPrefix+"   ")
			} else {
				walk(c, childPrefix+"├─ ", childPrefix+"│  ")
			}
		}
	}
	walk(r.tree, "", "")
	fmt.Fprintf(&b, "memory_peak=%s spill_peak=%s\n",
		fmtTraceBytes(r.stats.MemoryPeak), fmtTraceBytes(r.stats.SpillPeak))
	return b.String()
}

// renderOpLine formats one operator's annotation line.
func renderOpLine(n *exec.PlanNode, s OperatorStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s", n.ID, n.Kind)
	if n.Label != "" {
		fmt.Fprintf(&b, "(%s)", n.Label)
	}
	if s.Routine != "" {
		fmt.Fprintf(&b, " [%s]", s.Routine)
	}
	fmt.Fprintf(&b, "  rows=%d blocks=%d time=%s",
		s.RowsOut, s.BlocksOut, fmtOpTime(s.OpenNanos+s.NextNanos))
	if s.BytesScanned > 0 {
		fmt.Fprintf(&b, " bytes=%s", fmtTraceBytes(s.BytesScanned))
	}
	if s.CacheHits > 0 || s.CacheMisses > 0 {
		fmt.Fprintf(&b, " cache=%d/%d", s.CacheHits, s.CacheHits+s.CacheMisses)
	}
	if s.BlocksSkipped > 0 {
		fmt.Fprintf(&b, " skipped=%d", s.BlocksSkipped)
	}
	if s.StringsTranslated > 0 {
		fmt.Fprintf(&b, " interned=%d/%d", s.StringsInterned, s.StringsTranslated)
	}
	if sp := s.Spill; sp != nil {
		fmt.Fprintf(&b, " spill(spills=%d parts=%d depth=%d wrote=%s read=%s)",
			sp.Spills, sp.Partitions, sp.MaxDepth,
			fmtTraceBytes(sp.BytesWritten), fmtTraceBytes(sp.BytesRead))
	}
	return b.String()
}

// fmtOpTime renders a nanosecond wall time compactly (µs under 1ms).
func fmtOpTime(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d/time.Microsecond)
	}
}

func fmtTraceBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// ExplainAnalyzeWithOptions is ExplainAnalyze under explicit strategic
// optimizer options (worker counts, routing, plan shape).
func (db *Database) ExplainAnalyzeWithOptions(sql string, opt plan.Options) (string, error) {
	res, err := db.ExplainAnalyzeContext(context.Background(), sql, QueryOptions{Plan: opt})
	if err != nil {
		return "", err
	}
	return res.ExplainAnalyze(), nil
}
