package harness

import (
	"fmt"
	"io"

	"tde/internal/enc"
	"tde/internal/exec"
	"tde/internal/expr"
	"tde/internal/storage"
	"tde/internal/types"
)

// ExchangeResult measures the Sect. 4.3 trade-off: order-preserving
// exchange routing costs ~10-15% but keeps downstream encodings good;
// free routing is faster but disturbs value order and bloats the encoded
// result.
type ExchangeResult struct {
	PreserveOrder bool
	Seconds       float64
	PhysicalBytes int
	Kind          string // final encoding of the date column
}

// ExchangeOrdering runs Scan => [parallel filter via Exchange] =>
// FlowTable over a sorted date column and reports time and encoded size
// for both routing modes.
func ExchangeOrdering(rows, workers int) ([]ExchangeResult, error) {
	// A sorted date column (delta-encodes beautifully in order).
	w := enc.NewWriter(enc.WriterConfig{Signed: true, ConvertOptimal: true})
	base := types.DaysFromCivil(2004, 1, 1)
	for i := 0; i < rows; i++ {
		w.AppendOne(uint64(base + int64(i/1000)))
	}
	col := &storage.Column{Name: "d", Type: types.Date, Data: w.Finish()}
	tab := &storage.Table{Name: "t", Columns: []*storage.Column{col}}

	pred := expr.NewCmp(expr.GE, expr.NewColRef(0, "d", types.Date),
		expr.NewDateConst(base+30))
	var out []ExchangeResult
	for _, preserve := range []bool{true, false} {
		scan, err := exec.NewScan(tab)
		if err != nil {
			return nil, err
		}
		ex := exec.NewExchange(exec.NewSelect(scan, pred), workers, preserve)
		ft := exec.NewFlowTable(ex, exec.DefaultFlowTableConfig())
		var bt *exec.Built
		sec, err := timeIt(func() error {
			b, err := ft.BuildTable(nil)
			bt = b
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, ExchangeResult{
			PreserveOrder: preserve,
			Seconds:       sec,
			PhysicalBytes: bt.Cols[0].Data.PhysicalSize(),
			Kind:          bt.Cols[0].Data.Kind().String(),
		})
	}
	return out, nil
}

// RenderExchange prints the comparison.
func RenderExchange(w io.Writer, rows []ExchangeResult) {
	fmt.Fprintln(w, "Sect. 4.3: Exchange routing vs downstream encoding quality")
	for _, r := range rows {
		mode := "free-routing"
		if r.PreserveOrder {
			mode = "order-preserving"
		}
		fmt.Fprintf(w, "  %-17s %8.3fs  encoded=%s  %d bytes\n", mode, r.Seconds, r.Kind, r.PhysicalBytes)
	}
}

// LocaleLockResult measures the Sect. 5.1.2 ablation.
type LocaleLockResult struct {
	Locked   bool
	Parallel bool
	Seconds  float64
}

// LocaleLock parses the lineitem text with and without the simulated
// locale-singleton lock, serial and parallel. The paper found parallel
// parsing *degraded* by an order of magnitude under the lock.
func LocaleLock(data []byte) ([]LocaleLockResult, error) {
	var out []LocaleLockResult
	for _, locked := range []bool{false, true} {
		for _, parallel := range []bool{false, true} {
			cfg := ImportConfig{Encode: true, Accelerate: true,
				Parallel: parallel, LocaleLocked: locked}
			sec, err := timeIt(func() error {
				_, err := Import(data, cfg)
				return err
			})
			if err != nil {
				return nil, err
			}
			out = append(out, LocaleLockResult{Locked: locked, Parallel: parallel, Seconds: sec})
		}
	}
	return out, nil
}

// RenderLocaleLock prints the ablation.
func RenderLocaleLock(w io.Writer, rows []LocaleLockResult) {
	fmt.Fprintln(w, "Sect. 5.1.2: locale-locked vs buffer-oriented parsers")
	for _, r := range rows {
		kind := "buffer-oriented"
		if r.Locked {
			kind = "locale-locked"
		}
		mode := "serial"
		if r.Parallel {
			mode = "parallel"
		}
		fmt.Fprintf(w, "  %-16s %-9s %8.3fs\n", kind, mode, r.Seconds)
	}
}

// DynamicStability reports the dynamic encoder's re-encoding counts while
// loading lineitem (Sect. 3.2: two changes at SF-1).
type DynamicStability struct {
	Column      string
	Kind        string
	Reencodings int
}

// DynamicEncoding loads lineitem and reports per-column re-encodings.
func DynamicEncoding(data []byte) ([]DynamicStability, int, error) {
	bt, err := Import(data, ImportConfig{Encode: true, Accelerate: true})
	if err != nil {
		return nil, 0, err
	}
	var out []DynamicStability
	total := 0
	for i := range bt.Cols {
		c := &bt.Cols[i]
		out = append(out, DynamicStability{Column: c.Info.Name,
			Kind: c.Data.Kind().String(), Reencodings: c.Reencodings})
		total += c.Reencodings
	}
	return out, total, nil
}

// RenderDynamic prints the stability report.
func RenderDynamic(w io.Writer, rows []DynamicStability, total int) {
	fmt.Fprintf(w, "Sect. 3.2: dynamic encoding stability (total re-encodings: %d)\n", total)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %-7s %d\n", r.Column, r.Kind, r.Reencodings)
	}
}
