package enc

import "fmt"

// WriterConfig configures a dynamic encoder.
type WriterConfig struct {
	// Width is the element width in bytes (1, 2, 4 or 8). Columns are
	// parsed at width 8 and narrowed afterwards (Sect. 3.4.1).
	Width int
	// BlockSize is the decompression block size; it should equal the
	// execution engine's block iteration size (Sect. 3.1). It must be a
	// multiple of 32 so bit packing ends on a byte boundary.
	BlockSize int
	// Signed selects the signed interpretation for range statistics
	// (integers, dates, timestamps); tokens and booleans are unsigned.
	Signed bool
	// Sentinel, when HasSentinel, is the NULL sentinel to count.
	Sentinel    uint64
	HasSentinel bool
	// DisableEncoding forces raw streams: statistics are still gathered
	// (cheaply) but no compression is applied. This is the "encodings off"
	// arm of the paper's Figures 4-9.
	DisableEncoding bool
	// PreferDict biases the choice toward dictionary encoding whenever it
	// is admissible and compresses at all (affine, being free, still
	// wins). String token columns set this: heap tokens "typically end up
	// being dictionary encoded if the domain is small" (Sect. 6.3), which
	// is what makes heap sorting and token comparability reachable.
	PreferDict bool
	// KindMask, when nonzero, restricts the encodings the dynamic encoder
	// may choose to those whose bit (1 << Kind) is set; None is always
	// allowed. The harness uses it to emulate the first TDE release,
	// which only implemented run-length encoding (Sect. 2.3.2 / 6.2).
	KindMask uint16
	// DisallowRLE excludes run-length encoding from the choices. A
	// FlowTable sets it for string token columns, which it dictionary-
	// encodes instead (Sect. 6.3).
	DisallowRLE bool
	// MaxReencodings bounds format rewrites before falling back to raw
	// until the end (the safeguard sketched in Sect. 3.2). Zero means the
	// default of 8.
	MaxReencodings int
	// ConvertOptimal rewrites the stream into the optimal format at Finish
	// when the running format differs ("we can also compare the current
	// encoding with the optimal one and convert").
	ConvertOptimal bool
}

func (cfg *WriterConfig) normalize() {
	if cfg.Width == 0 {
		cfg.Width = 8
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = DefaultBlockSize
	}
	if cfg.BlockSize%32 != 0 {
		panic(fmt.Sprintf("enc: block size %d is not a multiple of 32", cfg.BlockSize))
	}
	if cfg.MaxReencodings == 0 {
		cfg.MaxReencodings = 8
	}
}

// Writer is the dynamic encoder of Sect. 3.2. Values are appended in
// arbitrary-sized slices; the writer gathers them into decompression
// blocks, updates the column statistics before each block insert, and
// re-encodes the column when an insert fails. After too many rewrites it
// falls back to raw and leaves the final decision to Finish.
type Writer struct {
	cfg         WriterConfig
	stats       *Stats
	zones       zoneTracker
	app         appender
	appended    int // values committed to app
	pending     []uint64
	reencodings int
	gaveUp      bool
	finalExact  bool // build appenders without headroom (ConvertOptimal finish)
}

// NewWriter returns a dynamic encoder with the given configuration.
func NewWriter(cfg WriterConfig) *Writer {
	cfg.normalize()
	return &Writer{
		cfg:   cfg,
		stats: NewStats(cfg.Signed, cfg.Sentinel, cfg.HasSentinel),
		zones: zoneTracker{width: cfg.Width, signed: cfg.Signed,
			sentinel: cfg.Sentinel, hasSentinel: cfg.HasSentinel},
		pending: make([]uint64, 0, cfg.BlockSize),
	}
}

// Stats exposes the running column statistics (used by FlowTable for the
// metadata extraction of Sect. 3.4.2).
func (w *Writer) Stats() *Stats { return w.stats }

// Reencodings returns how many times the column has been re-encoded; the
// paper reports two changes for TPC-H lineitem at SF-1 (Sect. 3.2).
func (w *Writer) Reencodings() int { return w.reencodings }

// Zones returns the per-block zone map accumulated while flushing blocks
// (DESIGN.md §15), or nil for an empty column. Entries track logical
// values, so they survive re-encodings and later width narrowing; call
// after Finish so the final partial block is included.
func (w *Writer) Zones() *ZoneMap { return w.zones.zones(w.cfg.BlockSize) }

// Kind returns the current encoding choice.
func (w *Writer) Kind() Kind {
	if w.app == nil {
		return None
	}
	return w.app.kind()
}

// Len returns the number of values appended so far.
func (w *Writer) Len() int { return w.appended + len(w.pending) }

// Append adds values to the column. Values must fit the configured width.
func (w *Writer) Append(vals []uint64) {
	bs := w.cfg.BlockSize
	for len(vals) > 0 {
		n := bs - len(w.pending)
		if n > len(vals) {
			n = len(vals)
		}
		w.pending = append(w.pending, vals[:n]...)
		vals = vals[n:]
		if len(w.pending) == bs {
			w.flushBlock(w.pending)
			w.pending = w.pending[:0]
		}
	}
}

// AppendOne adds a single value.
func (w *Writer) AppendOne(v uint64) {
	w.pending = append(w.pending, v)
	if len(w.pending) == w.cfg.BlockSize {
		w.flushBlock(w.pending)
		w.pending = w.pending[:0]
	}
}

func (w *Writer) flushBlock(vals []uint64) {
	// "...using the block values for a column to update the column's
	// statistics before inserting the data block into the column's
	// encoding stream."
	w.zones.add(w.stats.fold(vals), vals)
	if w.app == nil {
		w.app = w.newAppender(w.chooseKind())
	}
	if err := w.app.appendBlock(vals); err == nil {
		w.appended += len(vals)
		return
	}
	// Representation failure: consult the statistics and re-encode.
	w.reencodings++
	kind := w.chooseKind()
	if w.reencodings > w.cfg.MaxReencodings {
		// Excessive reformatting: fall back to unencoded data until the
		// end; Finish will decide from the final statistics.
		kind = None
		w.gaveUp = true
	}
	w.reencode(kind, vals)
}

// reencode moves the column to a fresh appender for kind, sized from the
// statistics, which cover the committed values and tail (the block that
// failed to insert, or nothing at Finish), so the move should not fail;
// raw is the backstop if the choice logic and an appender ever disagree.
func (w *Writer) reencode(kind Kind, tail []uint64) {
	if w.moveTo(kind, tail) {
		return
	}
	w.gaveUp = true
	if !w.moveTo(None, tail) {
		panic("enc: raw re-encode failed")
	}
}

// moveTo builds the appender for kind, carries the committed values over
// and appends tail, installing the new appender only if everything was
// representable. Within one kind the stored codes are repacked block by
// block; a change of kind decodes the committed values and appends them
// again.
func (w *Writer) moveTo(kind Kind, tail []uint64) bool {
	next := w.newAppender(kind)
	if w.appended > 0 {
		if r, ok := w.app.(repacker); ok && kind == w.app.kind() {
			if !r.repackInto(next, w.appended) {
				return false
			}
		} else if !replay(next, w.decodeCommitted(), w.cfg.BlockSize) {
			return false
		}
	}
	if len(tail) > 0 && next.appendBlock(tail) != nil {
		return false
	}
	w.app, w.appended = next, w.appended+len(tail)
	return true
}

// replay appends vals to a one block at a time, reporting whether every
// block was representable.
func replay(a appender, vals []uint64, bs int) bool {
	for start := 0; start < len(vals); start += bs {
		if a.appendBlock(vals[start:min(start+bs, len(vals))]) != nil {
			return false
		}
	}
	return true
}

// decodeCommitted decodes the values committed to the current appender.
func (w *Writer) decodeCommitted() []uint64 {
	s, err := FromBytes(w.app.finish(w.appended))
	if err != nil {
		panic("enc: re-encode: " + err.Error())
	}
	return s.DecodeAll()
}

// Finish flushes the final partial block and serializes the stream,
// optionally converting to the optimal format chosen from the complete
// statistics.
func (w *Writer) Finish() *Stream {
	if len(w.pending) > 0 {
		w.flushBlock(w.pending)
		w.pending = w.pending[:0]
	}
	if w.app == nil {
		w.app = w.newAppender(w.chooseKind())
	}
	if w.cfg.ConvertOptimal || w.gaveUp {
		if optimal := w.chooseKind(); optimal != w.app.kind() || w.hasHeadroom() {
			// Rebuild with exact (headroom-free) parameters from the
			// final statistics.
			w.finalExact = true
			w.reencode(optimal, nil)
		}
	}
	s, err := FromBytes(w.app.finish(w.appended))
	if err != nil {
		panic("enc: finish: " + err.Error())
	}
	return s
}

// hasHeadroom reports whether the running appender carries more packing
// bits than the final statistics require, in which case a ConvertOptimal
// finish should tighten the format even within the same kind.
func (w *Writer) hasHeadroom() bool {
	st := w.stats
	switch a := w.app.(type) {
	case *forAppender:
		return a.bits > st.rangeBits() || a.frame != uint64(st.frame())
	case *deltaAppender:
		return a.bits > st.deltaBits() || a.minDelta != st.MinDelta
	case *dictAppender:
		d, _ := st.Distinct()
		exact := bitsFor(uint64(d - 1))
		if exact < 1 {
			exact = 1
		}
		return a.bits > exact
	default:
		return false
	}
}

// newAppender builds an appender for kind sized from the current
// statistics, with one extra packing bit of headroom: the observed range
// rarely covers the eventual range, and an exact fit would trigger a
// re-encoding on every small extension. Finish with ConvertOptimal
// tightens the format to the exact final statistics.
func (w *Writer) newAppender(kind Kind) appender {
	st, cfg := w.stats, w.cfg
	maxBits := cfg.Width * 8
	headroom := 1
	if w.finalExact {
		headroom = 0
	}
	switch kind {
	case FrameOfReference:
		bits := st.rangeBits() + headroom
		if bits > maxBits {
			bits = maxBits
		}
		// Center the headroom: extend the frame downward by a quarter of
		// the doubled range so both ends can grow.
		frame := st.frame()
		if headroom > 0 {
			slack := int64(0)
			if bits < 63 {
				slack = int64(1) << uint(bits-1) >> 1
			}
			if frame-slack <= frame {
				frame -= slack
			}
		}
		return newFORAppender(cfg.Width, cfg.BlockSize, bits, frame)
	case Delta:
		bits := st.deltaBits() + headroom
		if bits > maxBits {
			bits = maxBits
		}
		minDelta := st.MinDelta
		if headroom > 0 {
			slack := int64(0)
			if bits < 63 {
				slack = int64(1) << uint(bits-1) >> 1
			}
			if minDelta-slack <= minDelta {
				minDelta -= slack
			}
		}
		return newDeltaAppender(cfg.Width, cfg.BlockSize, bits, minDelta)
	case Dictionary:
		d, _ := st.Distinct()
		bits := bitsFor(uint64(d-1)) + headroom
		if bits < 1 {
			bits = 1
		}
		if bits > DictMaxBits {
			bits = DictMaxBits
		}
		return newDictAppender(cfg.Width, cfg.BlockSize, bits)
	case Affine:
		delta, _ := st.ConstantDelta()
		return newAffineAppender(cfg.Width, cfg.BlockSize, st.frame(), delta)
	case RunLength:
		cw := widthFor(bitsFor(uint64(st.MaxRun)) + 1) // headroom: runs keep growing
		vw := valueWidthFor(st, cfg)
		return newRLEAppender(cfg.Width, cfg.BlockSize, cw, vw)
	default:
		return newRawAppender(cfg.Width, cfg.BlockSize)
	}
}

// valueWidthFor returns the narrowest field width that holds every value
// observed so far, in the raw (unsigned, width-masked) representation.
func valueWidthFor(st *Stats, cfg WriterConfig) int {
	vw := widthFor(bitsFor(st.MaxU))
	if vw > cfg.Width {
		vw = cfg.Width
	}
	return vw
}

// chooseKind picks the cheapest encoding admitted by the statistics, the
// core decision of Sect. 3.2's dynamic encoding.
func (w *Writer) chooseKind() Kind {
	if w.cfg.DisableEncoding {
		return None
	}
	sizes := w.EstimateSizes()
	allowed := func(k Kind) bool {
		return w.cfg.KindMask == 0 || w.cfg.KindMask&(1<<k) != 0
	}
	if w.cfg.PreferDict {
		if _, ok := sizes[Affine]; ok && allowed(Affine) {
			return Affine
		}
		if sz, ok := sizes[Dictionary]; ok && allowed(Dictionary) && sz < sizes[None] {
			return Dictionary
		}
	}
	best, bestSize := None, sizes[None]
	order := []Kind{Affine, FrameOfReference, Delta, Dictionary, RunLength}
	for _, k := range order {
		if !allowed(k) {
			continue
		}
		if sz, ok := sizes[k]; ok && sz < bestSize {
			best, bestSize = k, sz
		}
	}
	return best
}

// EstimateSizes returns the estimated physical size in bytes of each
// applicable encoding for the values seen so far.
func (w *Writer) EstimateSizes() map[Kind]int {
	st, cfg := w.stats, w.cfg
	bs := cfg.BlockSize
	blocks := (st.N + bs - 1) / bs
	sizes := map[Kind]int{
		None: headerFixed + 8 + blocks*packedBytes(bs, cfg.Width*8),
	}
	if st.N == 0 {
		return sizes
	}
	if _, ok := st.ConstantDelta(); ok {
		sizes[Affine] = headerFixed + 16
	}
	if rb := st.rangeBits(); rb < cfg.Width*8 {
		sizes[FrameOfReference] = headerFixed + 8 + blocks*packedBytes(bs, rb)
	}
	if st.N >= 2 {
		if db := st.deltaBits(); db < cfg.Width*8 {
			sizes[Delta] = headerFixed + 8 + blocks*(8+packedBytes(bs, db))
		}
	}
	if d, exact := st.Distinct(); exact && d > 0 {
		bits := bitsFor(uint64(d - 1))
		if bits < 1 {
			bits = 1
		}
		if bits <= DictMaxBits {
			sizes[Dictionary] = headerFixed + 8 + (1<<bits)*cfg.Width +
				blocks*packedBytes(bs, bits)
		}
	}
	if !cfg.DisallowRLE {
		cw := widthFor(bitsFor(uint64(st.MaxRun)) + 1)
		vw := valueWidthFor(st, cfg)
		sizes[RunLength] = headerFixed + 8 + st.Runs*(cw+vw)
	}
	return sizes
}
