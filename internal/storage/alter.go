package storage

import (
	"fmt"
	"sort"

	"tde/internal/enc"
	"tde/internal/types"
)

// ConvertToDictCompression is the AlterColumn-style conversion of
// Sect. 3.4.3: it turns an encoded scalar column into a dictionary-
// compressed one (column-level sorted scalar dictionary + token data) so
// a filter evaluates expensive per-value calculations (like date part
// extraction) once per entry of the small domain, into a token truth
// table, instead of once per row.
//
// The cheap paths avoid touching the row data entirely:
//
//   - dictionary-encoded columns swap their entries for sorted ranks
//     (O(2^bits));
//   - frame-of-reference columns take the envelope dictionary and a
//     zeroed frame (O(2^bits); the dictionary may contain values absent
//     from the column);
//   - run-length columns go through decomposition: the value stream is
//     dictionary-compressed and the run stream rebuilt over tokens
//     (O(runs)).
//
// Raw, delta and affine columns would require a full rewrite and are
// rejected; callers can re-encode first if the conversion is worth it.
func ConvertToDictCompression(col *Column) error {
	if col.Dict != nil {
		return nil // already compressed
	}
	if col.Type == types.String {
		return fmt.Errorf("storage: string columns use heap compression, not scalar dictionaries")
	}
	signed := col.Signed()
	switch col.Data.Kind() {
	case enc.Dictionary:
		dict, err := enc.DictEncodingToCompression(col.Data, signed)
		if err != nil {
			return err
		}
		widenDict(dict, col.Data.Width(), signed)
		col.Dict = dict
		// Tokens are ranks now; narrow them if the encoding permits.
		if w := enc.MinWidth(col.Data, false); w < col.Data.Width() {
			_ = enc.Narrow(col.Data, w, false)
		}
	case enc.FrameOfReference:
		dict, err := enc.FORToScalarDictionary(col.Data)
		if err != nil {
			return err
		}
		widenDict(dict, col.Data.Width(), signed)
		col.Dict = dict
	case enc.RunLength:
		values, counts, err := enc.DecomposeRLE(col.Data)
		if err != nil {
			return err
		}
		dict, tokens := dictCompressValues(values, signed)
		rebuilt, err := enc.RebuildRLE(tokens, counts, col.Data.Len())
		if err != nil {
			return err
		}
		col.Dict = dict
		col.Data = rebuilt
	default:
		return fmt.Errorf("storage: cannot cheaply dictionary-compress a %v column", col.Data.Kind())
	}
	// The column's values are now tokens: refresh metadata accordingly.
	// Zone maps describe the old value domain, so they are rebuilt in the
	// token domain (or dropped when the rewritten stream supports none) —
	// stale zones on a rewritten stream would prune wrongly.
	col.Meta = enc.MetadataFromStream(col.Data, false, types.NullToken, true)
	col.Meta.RowCount = col.Data.Len()
	col.Zones = enc.DeriveZoneMap(col.Data, false, types.NullToken, true)
	return nil
}

// widenDict sign-extends narrow dictionary values to full-width bits so
// Value() resolution needs no width bookkeeping.
func widenDict(dict []uint64, width int, signed bool) {
	if width == 8 {
		return
	}
	for i, v := range dict {
		if signed {
			dict[i] = uint64(enc.SignExtend(v, width))
		} else {
			dict[i] = v & enc.WidthMask(width)
		}
	}
}

// dictCompressValues builds a sorted dictionary over the value stream and
// returns the token stream (Sect. 3.4.3: "a scalar dictionary compressed
// column with a run-length encoded token stream").
func dictCompressValues(values *enc.Stream, signed bool) ([]uint64, *enc.Stream) {
	vals := values.DecodeAll()
	w := values.Width()
	resolve := func(v uint64) uint64 {
		if signed {
			return uint64(enc.SignExtend(v, w))
		}
		return v
	}
	distinct := map[uint64]struct{}{}
	for _, v := range vals {
		distinct[resolve(v)] = struct{}{}
	}
	dict := make([]uint64, 0, len(distinct))
	for v := range distinct {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(a, b int) bool {
		if signed {
			return int64(dict[a]) < int64(dict[b])
		}
		return dict[a] < dict[b]
	})
	rank := make(map[uint64]uint64, len(dict))
	for i, v := range dict {
		rank[v] = uint64(i)
	}
	tw := enc.NewWriter(enc.WriterConfig{Width: enc.TokenWidth(len(dict)), BlockSize: values.BlockSize()})
	for _, v := range vals {
		tw.AppendOne(rank[resolve(v)])
	}
	return dict, tw.Finish()
}
