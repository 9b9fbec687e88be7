package harness

import (
	"fmt"
	"io"

	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/plan"
	"tde/internal/rlegen"
	"tde/internal/storage"
	"tde/internal/types"
)

// Fig10Point is one measurement of Figure 10: one plan at one selectivity
// on one table/index combination.
type Fig10Point struct {
	Table       string // "1M" | "large"
	Index       string // "primary" | "secondary"
	Plan        int    // 1 = scan, 2 = index ranges, 3 = index ranges sorted
	Selectivity int    // 0..100
	Seconds     float64
	Groups      int
}

// Fig10Config sizes the experiment. The paper uses 1 M and 1 B rows; the
// default large table is scaled to fit the host (the crossover depends on
// run length vs block size, not absolute row count — see DESIGN.md).
type Fig10Config struct {
	SmallRows     int
	LargeRows     int
	Selectivities []int
	Repeats       int
	Seed          int64
}

// DefaultFig10Config returns the configuration used by the bench targets.
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		SmallRows:     1_000_000,
		LargeRows:     16_000_000,
		Selectivities: []int{10, 30, 50, 70, 90, 100},
		Repeats:       3,
		Seed:          42,
	}
}

// Fig10Query builds the evaluation query of Sect. 6.6:
//
//	SELECT Index, MAX(Other) FROM table
//	WHERE Index > (100 - selectivity) GROUP BY Index
func Fig10Query(tab *storage.Table, index string, selectivity int) plan.Query {
	other := "secondary"
	if index == "secondary" {
		other = "primary"
	}
	return plan.Query{
		Table: tab,
		Where: expr.NewCmp(expr.GT,
			expr.NewColRef(0, index, types.Integer),
			expr.NewIntConst(int64(100-selectivity))),
		GroupBy: []string{index},
		Aggs:    []plan.AggItem{{Func: exec.Max, Col: other}},
	}
}

// Fig10PlanOptions returns the planner options that force each of the
// three measured plans. ParallelWorkers is pinned to serial: the figure
// compares plan shapes, and auto-parallelism would fold a machine-dependent
// worker count into the measurement.
func Fig10PlanOptions(planNo int) plan.Options {
	switch planNo {
	case 1:
		return plan.Options{NoIndexPlan: true, ParallelWorkers: -1}
	case 2:
		return plan.Options{OrderedIndex: 0, ParallelWorkers: -1}
	default:
		return plan.Options{OrderedIndex: 1, ParallelWorkers: -1}
	}
}

// RunFig10Point executes one plan/selectivity once and returns the group
// count (the timing wrapper lives in the caller so benches can use
// testing.B directly).
func RunFig10Point(tab *storage.Table, index string, planNo, selectivity int) (int, error) {
	q := Fig10Query(tab, index, selectivity)
	op, _, err := plan.Build(q, Fig10PlanOptions(planNo))
	if err != nil {
		return 0, err
	}
	return exec.Run(op)
}

// Fig10 runs the full sweep: both tables, both index columns, all three
// plans, each selectivity, best-of-Repeats timing.
func Fig10(cfg Fig10Config) ([]Fig10Point, error) {
	tables := []struct {
		name string
		tab  *storage.Table
	}{
		{"1M", rlegen.Build(cfg.SmallRows, cfg.Seed)},
		{"large", rlegen.Build(cfg.LargeRows, cfg.Seed+1)},
	}
	var out []Fig10Point
	for _, t := range tables {
		for _, index := range []string{"primary", "secondary"} {
			for planNo := 1; planNo <= 3; planNo++ {
				for _, sel := range cfg.Selectivities {
					best := -1.0
					groups := 0
					for r := 0; r < cfg.Repeats; r++ {
						var g int
						sec, err := timeIt(func() error {
							var err error
							g, err = RunFig10Point(t.tab, index, planNo, sel)
							return err
						})
						if err != nil {
							return nil, err
						}
						groups = g
						if best < 0 || sec < best {
							best = sec
						}
					}
					out = append(out, Fig10Point{Table: t.name, Index: index,
						Plan: planNo, Selectivity: sel, Seconds: best, Groups: groups})
				}
			}
		}
	}
	return out, nil
}

// RenderFig10 prints the four panels of the figure as series.
func RenderFig10(w io.Writer, points []Fig10Point) {
	fmt.Fprintln(w, "Figure 10: Filter/aggregate plans over run-length data")
	fmt.Fprintln(w, "  plan 1 = Scan=>Filter=>Aggregate (control)")
	fmt.Fprintln(w, "  plan 2 = Index=>Filter=>Scan(ranges)=>Aggregate")
	fmt.Fprintln(w, "  plan 3 = Index=>Filter=>Sort=>Scan(ranges)=>OrdAggr")
	panels := map[string][]Fig10Point{}
	var order []string
	for _, p := range points {
		key := p.Table + "/" + p.Index
		if _, ok := panels[key]; !ok {
			order = append(order, key)
		}
		panels[key] = append(panels[key], p)
	}
	for _, key := range order {
		fmt.Fprintf(w, "\n  panel %s (seconds by selectivity)\n", key)
		fmt.Fprintf(w, "  %-6s", "sel")
		sels := selList(panels[key])
		for _, s := range sels {
			fmt.Fprintf(w, "%10d", s)
		}
		fmt.Fprintln(w)
		for planNo := 1; planNo <= 3; planNo++ {
			fmt.Fprintf(w, "  plan%d ", planNo)
			for _, s := range sels {
				for _, p := range panels[key] {
					if p.Plan == planNo && p.Selectivity == s {
						fmt.Fprintf(w, "%10.4f", p.Seconds)
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}

func selList(points []Fig10Point) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range points {
		if !seen[p.Selectivity] {
			seen[p.Selectivity] = true
			out = append(out, p.Selectivity)
		}
	}
	return out
}
