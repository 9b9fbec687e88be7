package tde

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tde/internal/exec"
	"tde/internal/flights"
	"tde/internal/textscan"
	"tde/internal/tpch"
	"tde/internal/types"
)

// pinnedExtractSHA256 is the SHA-256 of the extract pinnedExtract saves.
// Any change to an encoding choice, a packed stream, a zone map, a heap
// or the file layout changes it.
const pinnedExtractSHA256 = "a221922ae79e8e536c19e2fe527cfed1ed59a585194dc994fb0f4372b7718683"

var ordersImportSchema = []string{"o_orderkey:int", "o_custkey:int", "o_orderstatus:str",
	"o_totalprice:real", "o_orderdate:date", "o_orderpriority:str",
	"o_clerk:str", "o_shippriority:int", "o_comment:str"}

// pinnedInputs generates the pinned extract's text: TPC-H lineitem and
// orders at SF 0.01 and 4 000 flights rows, from fixed seeds.
func pinnedInputs(t *testing.T) (lineitem, orders, fl []byte) {
	t.Helper()
	var li, ord, f bytes.Buffer
	if err := tpch.New(0.01, 1).WriteLineitem(&li); err != nil {
		t.Fatal(err)
	}
	if err := tpch.New(0.01, 100).WriteOrders(&ord); err != nil {
		t.Fatal(err)
	}
	if err := flights.New(4000, 2).Write(&f); err != nil {
		t.Fatal(err)
	}
	return li.Bytes(), ord.Bytes(), f.Bytes()
}

// pinnedExtract imports the pinned inputs with the given parallelism and
// returns the bytes of the saved extract.
func pinnedExtract(t *testing.T, parallel bool) []byte {
	t.Helper()
	lineitem, orders, fl := pinnedInputs(t)
	ordOpt := DefaultImportOptions()
	ordOpt.Schema = ordersImportSchema
	ordOpt.HeaderSet, ordOpt.HasHeader = true, false
	imports := []struct {
		name string
		data []byte
		opt  ImportOptions
	}{
		{"lineitem", lineitem, lineitemImportOptions()},
		{"orders", orders, ordOpt},
		{"flights", fl, DefaultImportOptions()},
	}
	db := New()
	for _, im := range imports {
		im.opt.Parallel = parallel
		if err := db.ImportCSV(im.name, im.data, im.opt); err != nil {
			t.Fatalf("import %s: %v", im.name, err)
		}
	}
	path := filepath.Join(t.TempDir(), "pinned.tde")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExtractBytesPinned: a fixed-seed extract saves to the same bytes,
// whether its columns were built serially or by the pipelined builders.
// The import's speed may change; what it writes may not.
func TestExtractBytesPinned(t *testing.T) {
	serial := pinnedExtract(t, false)
	sum := sha256.Sum256(serial)
	got := hex.EncodeToString(sum[:])
	if got != pinnedExtractSHA256 {
		t.Fatalf("extract SHA-256 %s, pinned %s: the encoder's output drifted. "+
			"If the change is intended, re-pin the hash and state the re-pinning "+
			"and its cause in CHANGES.md.", got, pinnedExtractSHA256)
	}
	if parallel := pinnedExtract(t, true); !bytes.Equal(serial, parallel) {
		t.Fatal("the pipelined import saves different bytes than the serial one")
	}
}

// cancelAtCall is a context whose Err reports Canceled from its at-th
// call on (never, with at == 0), counting every call. The import checks
// it once per block, so a count taken from a full import places the
// cancellation mid-stream.
type cancelAtCall struct {
	context.Context
	at    int64
	calls atomic.Int64
	once  sync.Once
	done  chan struct{}
}

func newCancelAtCall(at int64) *cancelAtCall {
	return &cancelAtCall{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *cancelAtCall) Err() error {
	if n := c.calls.Add(1); c.at > 0 && n >= c.at {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

func (c *cancelAtCall) Done() <-chan struct{} { return c.done }

// countGoroutinesDown waits briefly for the goroutine count to fall to
// want and returns the last count seen.
func countGoroutinesDown(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(2 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestImportFailsMidStreamCleanly: an import cancelled halfway through
// its blocks returns context.Canceled, and one whose memory budget is
// denied partway returns ErrBudgetExceeded; the budget sits between the
// import's rows and its rows plus string heaps, so the denial shows that
// heap growth is charged. Neither leaves a table or a goroutine behind.
func TestImportFailsMidStreamCleanly(t *testing.T) {
	lineitem, _, _ := pinnedInputs(t)
	opt := lineitemImportOptions()
	before := runtime.NumGoroutine()

	full := newCancelAtCall(0)
	if err := New().ImportCSVContext(full, "lineitem", lineitem, opt, QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	db := New()
	err := db.ImportCSVContext(newCancelAtCall(full.calls.Load()/2), "lineitem", lineitem, opt, QueryOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled import: err = %v, want context.Canceled", err)
	}
	if db.lookup("lineitem") != nil {
		t.Fatal("cancelled import left a partial table behind")
	}

	// The import's full charge, and the part of it that is string heap.
	specs, err := parseSchema(opt.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := textscan.New(lineitem, textscan.Options{Parallel: true, Schema: specs, HeaderSet: true})
	if err != nil {
		t.Fatal(err)
	}
	ft := exec.NewFlowTable(ts, exec.FlowTableConfig{Encode: true, Accelerate: true,
		Parallel: true, SortHeaps: true, Narrow: true})
	qc := exec.NewQueryCtx(context.Background(), 0)
	bt, err := ft.BuildTable(qc)
	if err != nil {
		t.Fatal(err)
	}
	// Every block is charged 8 bytes a value plus its heaps' growth.
	used, rowBytes, heapBytes := qc.Used(), int64(bt.Rows*len(bt.Cols)*8), int64(0)
	for _, c := range bt.Cols {
		if c.Info.Type == types.String {
			heapBytes += int64(c.Info.Heap.Size())
		}
	}
	ft.Close()
	if heapBytes == 0 || used < rowBytes+heapBytes {
		t.Fatalf("import charged %d bytes for %d bytes of rows and %d of heaps", used, rowBytes, heapBytes)
	}
	budget := rowBytes + heapBytes/2
	err = db.ImportCSVContext(context.Background(), "lineitem", lineitem, opt, QueryOptions{MemoryBudget: budget})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("import under a %d-byte budget (%d of rows, %d of heaps): err = %v, want ErrBudgetExceeded",
			budget, rowBytes, heapBytes, err)
	}
	if db.lookup("lineitem") != nil {
		t.Fatal("import denied its budget left a partial table behind")
	}
	if err := db.ImportCSVContext(context.Background(), "lineitem", lineitem, opt,
		QueryOptions{MemoryBudget: used + used/4}); err != nil {
		t.Fatalf("import with room to spare: %v", err)
	}
	if after := countGoroutinesDown(before); after > before {
		t.Fatalf("goroutine leak: %d before, %d after the failed imports", before, after)
	}
}
