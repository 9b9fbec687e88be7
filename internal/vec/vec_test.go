package vec

import (
	"testing"

	"tde/internal/heap"
	"tde/internal/types"
)

func TestBlockSizeInvariants(t *testing.T) {
	if BlockSize%32 != 0 {
		t.Fatal("block size must be a multiple of 32 for byte-aligned bit packing")
	}
}

func TestNewBlockShape(t *testing.T) {
	b := NewBlock(3)
	if len(b.Vecs) != 3 {
		t.Fatalf("%d vectors", len(b.Vecs))
	}
	for i := range b.Vecs {
		if len(b.Vecs[i].Data) != BlockSize {
			t.Fatalf("vector %d has %d slots", i, len(b.Vecs[i].Data))
		}
	}
	b.N = 5
	b.Reset()
	if b.N != 0 {
		t.Fatal("Reset did not clear N")
	}
}

func TestVectorNullDetection(t *testing.T) {
	v := Vector{Type: types.Integer, Data: []uint64{types.NullBits(types.Integer), 5}}
	if !v.IsNull(0) || v.IsNull(1) {
		t.Error("scalar null detection wrong")
	}
	h := heap.New(types.CollateBinary)
	tok := h.Append("x")
	sv := Vector{Type: types.String, Heap: h, Data: []uint64{tok, types.NullToken}}
	if sv.IsNull(0) || !sv.IsNull(1) {
		t.Error("token null detection wrong")
	}
	dv := Vector{Type: types.Date, Dict: []uint64{100}, Data: []uint64{0, types.NullToken}}
	if dv.IsNull(0) || !dv.IsNull(1) {
		t.Error("dict null detection wrong")
	}
	// A converted dictionary keeps the type sentinel as an entry.
	cv := Vector{Type: types.Integer, Dict: []uint64{7, types.NullBits(types.Integer)}, Data: []uint64{0, 1}}
	if cv.IsNull(0) || !cv.IsNull(1) {
		t.Error("dictionary NULL entry not detected")
	}
}

func TestVectorValueResolution(t *testing.T) {
	dv := Vector{Type: types.Date, Dict: []uint64{100, 200}, Data: []uint64{1, types.NullToken}}
	if dv.Value(0) != 200 {
		t.Errorf("dict value %d", dv.Value(0))
	}
	if !types.IsNull(types.Date, dv.Value(1)) {
		t.Error("null token must resolve to the type sentinel")
	}
	pv := Vector{Type: types.Integer, Data: []uint64{42}}
	if pv.Value(0) != 42 {
		t.Error("plain value resolution wrong")
	}
}

func TestVectorString(t *testing.T) {
	h := heap.New(types.CollateBinary)
	tok := h.Append("hello")
	v := Vector{Type: types.String, Heap: h, Data: []uint64{tok}}
	if v.String(0) != "hello" {
		t.Errorf("String = %q", v.String(0))
	}
}
