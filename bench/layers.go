package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"tde/internal/delta"
	"tde/internal/enc"
	"tde/internal/heap"
	"tde/internal/iofault"
	"tde/internal/storage"
	"tde/internal/textscan"
	"tde/internal/types"
	"tde/internal/vec"
	"tde/internal/wal"
)

// The layer-isolation replays of the traced run. Each drives one layer
// package through its exported entry points on the workload's own data,
// outside the measured window, and times it with the benchmark's spans.

// kindRates accumulates values processed and time spent per encoding.
type kindRates struct {
	values [6]float64
	spent  [6]time.Duration
}

func (k *kindRates) add(kind enc.Kind, values int, d time.Duration) {
	k.values[kind] += float64(values)
	k.spent[kind] += d
}

// publish writes one "<prefix>.<kind>" metric per encoding, in millions
// of values per second; an encoding the data never chose reads 0.
func (k *kindRates) publish(r *runner, prefix string) {
	for kind, name := range encKinds {
		r.layer[prefix+"."+name] = ratio(k.values[kind]/1e6, k.spent[kind].Seconds())
	}
}

func columnSpecs(schema []string) ([]textscan.ColumnSpec, error) {
	var specs []textscan.ColumnSpec
	for _, entry := range schema {
		i := strings.LastIndexByte(entry, ':')
		t, err := types.ParseType(entry[i+1:])
		if err != nil {
			return nil, err
		}
		specs = append(specs, textscan.ColumnSpec{Name: entry[:i], Type: t})
	}
	return specs, nil
}

// drainTextScan parses one table's text to blocks and throws them away:
// TextScan's cost with no encoder behind it.
func drainTextScan(table string, text []byte) error {
	opt := importOptions(table)
	tsOpt := textscan.Options{Parallel: opt.Parallel, HasHeader: opt.HasHeader, HeaderSet: opt.HeaderSet}
	if opt.Schema != nil {
		specs, err := columnSpecs(opt.Schema)
		if err != nil {
			return err
		}
		tsOpt.Schema = specs
	}
	ts, err := textscan.New(text, tsOpt)
	if err != nil {
		return err
	}
	if err := ts.Open(nil); err != nil {
		return err
	}
	defer ts.Close()
	b := vec.NewBlock(len(ts.Schema()))
	for {
		ok, err := ts.Next(b)
		if err != nil || !ok {
			return err
		}
	}
}

// replayImportLayers isolates what an import is made of: text parsing,
// encoding, string interning and the file format. importSeconds is the
// wall time one build spent importing and saving, the base of
// textscan.busy_share.
func (r *runner) replayImportLayers(d *dataset, path string, importSeconds float64) error {
	tr := r.tr

	var parse time.Duration
	for _, name := range tables {
		var err error
		parse += tr.timed("textscan.drain", 0, 0, func() { err = drainTextScan(name, d.text(name)) })
		if err != nil {
			return fmt.Errorf("textscan %s: %w", name, err)
		}
	}
	r.layer["textscan.parse_mb_per_s"] = ratio(float64(d.bytes())/1e6, parse.Seconds())
	r.layer["textscan.busy_share"] = ratio(parse.Seconds(), importSeconds)

	var built []*storage.Table
	var err error
	read := tr.timed("storage.read", 0, 0, func() { built, err = storage.ReadFile(path) })
	if err != nil {
		return fmt.Errorf("storage read: %w", err)
	}
	r.layer["storage.read_mb_per_s"] = ratio(float64(r.extractBytes)/1e6, read.Seconds())
	var image bytes.Buffer
	write := tr.timed("storage.write", 0, 0, func() { err = storage.Write(&image, built) })
	if err != nil {
		return fmt.Errorf("storage write: %w", err)
	}
	r.layer["storage.write_mb_per_s"] = ratio(float64(image.Len())/1e6, write.Seconds())
	for _, t := range built {
		r.layer["storage.bytes_per_row."+t.Name] = ratio(float64(t.PhysicalSize()), float64(t.Rows()))
	}

	// Encode: every imported column's values back through the dynamic
	// encoder, grouped by the encoding it settles on. Sizes are read off
	// the columns the import itself built.
	var encode kindRates
	var size, count [6]float64
	reencodings := 0
	for _, t := range built {
		for _, c := range t.Columns {
			kind := c.Data.Kind()
			size[kind] += float64(c.Data.PhysicalSize())
			count[kind] += float64(c.Data.Len())
			vals := c.Data.DecodeAll()
			cfg := enc.WriterConfig{Width: c.Data.Width(), Signed: c.Signed(), ConvertOptimal: true}
			if c.Type == types.String {
				cfg.PreferDict, cfg.DisallowRLE = true, true
			}
			for pass := 0; pass < r.cfg.sc.KernelPasses; pass++ {
				var s *enc.Stream
				var w *enc.Writer
				took := tr.timed("enc.encode", 0, 0, func() {
					w = enc.NewWriter(cfg)
					w.Append(vals)
					s = w.Finish()
				})
				encode.add(s.Kind(), len(vals), took)
				if pass == 0 {
					reencodings += w.Reencodings()
				}
			}
		}
	}
	encode.publish(r, "enc.encode_mvals_per_s")
	for kind, name := range encKinds {
		r.layer["enc.bytes_per_value."+name] = ratio(size[kind], count[kind])
	}
	r.layer["enc.reencodings"] = float64(reencodings)

	// Intern: the flights string columns through the heap accelerator.
	var interned int
	var intern time.Duration
	for _, t := range built {
		if t.Name != "flights" {
			continue
		}
		for _, c := range t.Columns {
			if c.Type != types.String {
				continue
			}
			strs := make([]string, c.Rows())
			for i := range strs {
				strs[i] = c.StringAt(i)
			}
			intern += tr.timed("heap.intern", 0, 0, func() {
				acc := heap.NewAccelerator(heap.New(c.Collation), 0)
				for _, s := range strs {
					acc.Intern(s)
				}
			})
			interned += len(strs)
		}
	}
	r.layer["heap.intern_mstrings_per_s"] = ratio(float64(interned)/1e6, intern.Seconds())
	return nil
}

// replayDecodeLayers isolates what a scan is made of, on the columns of
// the extract the dashboard queried: block decode per encoding, run
// reads, the dictionary filter kernel and random access.
func (r *runner) replayDecodeLayers(path string) error {
	tr := r.tr
	opened, err := storage.ReadFile(path)
	if err != nil {
		return fmt.Errorf("storage read: %w", err)
	}
	var decode kindRates
	var runValues, tokenValues float64
	var runTime, tokenTime, getTime time.Duration
	gets := 0
	rng := rand.New(rand.NewSource(r.cfg.seed))
	out := make([]uint64, enc.DefaultBlockSize)
	var runs []enc.Run
	var sel []int32
	var tokens []uint64
	for pass := 0; pass < r.cfg.sc.KernelPasses; pass++ {
		for _, t := range opened {
			for _, c := range t.Columns {
				s := c.Data
				if len(out) < s.BlockSize() {
					out = make([]uint64, s.BlockSize())
				}
				bs, n := s.BlockSize(), s.Len()
				blocks := (n + bs - 1) / bs
				switch s.Kind() {
				case enc.RunLength:
					// Run-length streams have no block structure: decode
					// through a Reader, then read the same rows as runs.
					decode.add(s.Kind(), n, tr.timed("enc.decode", 0, 0, func() {
						rd := enc.NewReader(s)
						for b := 0; b < blocks; b++ {
							rd.Read(b*bs, bs, out)
						}
					}))
					runTime += tr.timed("enc.readruns", 0, 0, func() {
						rd := enc.NewReader(s)
						for b := 0; b < blocks; b++ {
							runs, _ = rd.ReadRuns(b*bs, bs, runs[:0])
						}
					})
					runValues += float64(n)
				default:
					decode.add(s.Kind(), n, tr.timed("enc.decode", 0, 0, func() {
						for b := 0; b < blocks; b++ {
							s.DecodeBlock(b, out)
						}
					}))
				}
				if s.Kind() == enc.Dictionary {
					// The filter kernel alone: unpack the column's tokens
					// first, then time only the table lookups.
					table := make([]bool, s.DictLen())
					for i := range table {
						table[i] = i%2 == 0
					}
					tokens = append(tokens[:0], make([]uint64, blocks*bs)...)
					for b := 0; b < blocks; b++ {
						s.DecodeTokenBlock(b, tokens[b*bs:])
					}
					tokenTime += tr.timed("enc.filter_tokens", 0, 0, func() {
						for b := 0; b < blocks; b++ {
							sel = enc.FilterTokens(tokens[b*bs:], min(bs, n-b*bs), table, types.NullToken, false, sel[:0])
						}
					})
					tokenValues += float64(n)
				}
				if pass == 0 && n > 0 {
					const perColumn = 2000
					offsets := make([]int, perColumn)
					for i := range offsets {
						offsets[i] = rng.Intn(n)
					}
					getTime += tr.timed("enc.get", 0, 0, func() {
						for _, i := range offsets {
							s.Get(i)
						}
					})
					gets += perColumn
				}
			}
		}
	}
	decode.publish(r, "enc.decode_mvals_per_s")
	r.layer["enc.readruns_mvals_per_s"] = ratio(runValues/1e6, runTime.Seconds())
	r.layer["enc.filter_tokens_mvals_per_s"] = ratio(tokenValues/1e6, tokenTime.Seconds())
	r.layer["enc.get_ns"] = ratio(float64(getTime.Nanoseconds()), float64(gets))
	return nil
}

// replayWAL puts the writer's transactions through the log alone —
// append, then sync — on a scratch file. commitMs is the median commit
// as the writer saw it; what the log does not explain of it is the
// engine's validate, stage and publish.
func (r *runner) replayWAL(batches [][]delta.Op, commitMs float64) error {
	path := filepath.Join(r.dir, "replay.wal")
	if err := wal.Create(iofault.OS, path, wal.Binding{}); err != nil {
		return err
	}
	log, err := wal.OpenWriter(iofault.OS, path)
	if err != nil {
		return err
	}
	defer log.Close()
	lineMask := lineitemStringCols()
	mask := func(table string) []bool {
		if table == "lineitem" {
			return lineMask
		}
		return flightsStringCols
	}
	var appendUs, syncUs []float64
	for i, ops := range batches {
		var off int64
		took := r.tr.timed("wal.append", 0, 0, func() { off, err = log.AppendTxn(uint64(i+1), ops, mask) })
		if err != nil {
			return err
		}
		appendUs = append(appendUs, micros(took))
		took = r.tr.timed("wal.sync", 0, 0, func() { err = log.SyncTo(off) })
		if err != nil {
			return err
		}
		syncUs = append(syncUs, micros(took))
	}
	r.layer["wal.append_us_p50"] = percentile(appendUs, 0.5)
	r.layer["wal.sync_us_p50"] = percentile(syncUs, 0.5)
	r.layer["tde.commit_nonwal_us_p50"] = max(0, commitMs*1e3-percentile(appendUs, 0.5)-percentile(syncUs, 0.5))
	return nil
}
