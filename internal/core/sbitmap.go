package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/uhash"
)

// Sketch is an S-bitmap: a bitmap of m bits filled by the adaptive sampling
// process of Algorithm 2. One 128-bit hash is computed per item; the high
// word selects the bucket (the paper's first c bits) and the low word is the
// sampling fraction u (the paper's last d bits). An item that maps to an
// occupied bucket is skipped outright, so processing duplicates costs one
// hash and one bit probe.
//
// A Sketch is a Shape (configuration, hasher, resolution — shareable by
// many sketches) plus one flat state slice laid out as the Shape
// describes; a keyed store keeps many sketches' state in one slab and
// hands out Sketch views over it (see Shape.View).
//
// Sketch is not safe for concurrent use; wrap it in a mutex or shard by
// stream if needed (the experiments shard).
type Sketch struct {
	sh  *Shape
	st  []uint64       // [threshold, L, bitmap words…]; see Shape
	scr *uhash.Scratch // lazily allocated batch hash buffers (not serialized)
}

// Option configures optional Sketch behavior.
type Option func(*sketchOptions)

type sketchOptions struct {
	hasher uhash.Hasher
	dBits  uint
}

// WithHasher selects the hash family (default: uhash.NewMixer(seed) chosen
// by the constructor's seed argument).
func WithHasher(h uhash.Hasher) Option {
	return func(o *sketchOptions) { o.hasher = h }
}

// WithResolution limits the sampling fraction to d bits, 1 ≤ d ≤ 64,
// matching the paper's Algorithm 2 where u is a d-bit integer. The default
// (64) is effectively continuous; d = 30 reproduces the paper's suggested
// implementation. Used by the ablation_d experiment.
func WithResolution(d uint) Option {
	return func(o *sketchOptions) { o.dBits = d }
}

// NewSketch returns an empty S-bitmap under cfg. The seed determines the
// hash function; replicated experiments use distinct seeds.
func NewSketch(cfg *Config, seed uint64, opts ...Option) *Sketch {
	sh := NewShape(cfg, seed, opts...)
	st := make([]uint64, sh.StateWords())
	sh.Init(st)
	return &Sketch{sh: sh, st: st}
}

// Shape is everything sketches built from one (Config, hasher,
// resolution) triple share. A sketch's mutable state is a single flat
// word slice of StateWords() words:
//
//	[0]  the acceptance threshold at the current fill level (see thresholdAt)
//	[1]  L, the number of set buckets
//	[2:] the bitmap, 64 buckets per word
//
// so a keyed store can keep millions of tiny sketches in slot-ordered
// slabs — one cache line holds a sketch's threshold, fill level and first
// bitmap words — run Algorithm 2 on a slot through the Shape's methods
// with no per-sketch objects, and hand out Sketch views (View) over the
// same words. Hashers are read-only after construction (asserted by the
// uhash tests), so one Shape may serve any number of sketches.
type Shape struct {
	cfg   *Config
	h     uhash.Hasher
	dBits uint
	thr   []uint64 // threshold by fill level, once tabulated (Tabulate)
}

// State word layout.
const (
	stateThreshold = 0
	stateL         = 1
	stateHeader    = 2
)

// sketchHeader is the serialized sketch's fixed header: magic, m, N, C,
// L, d and the bitmap blob length.
const sketchHeader = 45

// ErrShapeMismatch reports serialized sketch state whose dimensions
// (m, N, C) or sampling resolution d differ from the decoding Shape's.
var ErrShapeMismatch = errors.New("core: sketch dimensions differ from the shape")

// NewShape returns the shape NewSketch(cfg, seed, opts...) builds its
// sketch on.
func NewShape(cfg *Config, seed uint64, opts ...Option) *Shape {
	o := sketchOptions{dBits: 64}
	for _, opt := range opts {
		opt(&o)
	}
	if o.hasher == nil {
		o.hasher = uhash.NewMixer(seed)
	}
	if o.dBits < 1 || o.dBits > 64 {
		panic(fmt.Sprintf("core: sampling resolution d = %d outside [1, 64]", o.dBits))
	}
	return &Shape{cfg: cfg, h: o.hasher, dBits: o.dBits}
}

// Config returns the shape's configuration.
func (sh *Shape) Config() *Config { return sh.cfg }

// Tabulate precomputes the acceptance threshold of every fill level
// (m+1 words), so an insertion that sets a bucket loads the next
// threshold instead of evaluating the schedule's exp. Worth it only for a
// Shape many sketches share — a keyed store's; a standalone sketch keeps
// its O(1) auxiliary state.
func (sh *Shape) Tabulate() {
	thr := make([]uint64, sh.cfg.m+1)
	for l := range thr {
		thr[l] = sh.thresholdAt(l)
	}
	sh.thr = thr
}

// Footprint returns the shape's resident bytes: the struct, its Config
// and any threshold table.
func (sh *Shape) Footprint() int {
	return int(unsafe.Sizeof(*sh)) + sh.cfg.AuxBytes() + 8*cap(sh.thr)
}

// StateWords returns the length of one sketch's state slice.
func (sh *Shape) StateWords() int { return stateHeader + (sh.cfg.m+63)/64 }

// Init clears st to the empty sketch's state.
func (sh *Shape) Init(st []uint64) {
	clear(st)
	st[stateThreshold] = sh.thresholdAt(0)
}

// View returns a sketch over st, which must hold StateWords() words of
// this shape's state; the view and the caller share the words.
func (sh *Shape) View(st []uint64) Sketch { return Sketch{sh: sh, st: st[:len(st):len(st)]} }

// Clone returns a standalone sketch holding a copy of st.
func (sh *Shape) Clone(st []uint64) *Sketch {
	return &Sketch{sh: sh, st: append([]uint64(nil), st...)}
}

// Add offers an item to the sketch whose state is st.
func (sh *Shape) Add(st []uint64, item []byte) bool {
	hi, lo := sh.h.Sum128(item)
	return sh.insert(st, hi, lo)
}

// AddUint64 offers a 64-bit item to the sketch whose state is st.
func (sh *Shape) AddUint64(st []uint64, item uint64) bool {
	hi, lo := sh.h.Sum128Uint64(item)
	return sh.insert(st, hi, lo)
}

// AddString offers a string item to the sketch whose state is st.
func (sh *Shape) AddString(st []uint64, item string) bool {
	hi, lo := sh.h.Sum128String(item)
	return sh.insert(st, hi, lo)
}

// AddBatch64 is Sketch.AddBatch64Scratch on the sketch whose state is st.
func (sh *Shape) AddBatch64(scr *uhash.Scratch, st []uint64, items []uint64) int {
	return uhash.Batch64(sh.h, scr, items, func(hi, lo []uint64) int { return sh.insertBatch(st, hi, lo) })
}

// AddBatchString is Sketch.AddBatchStringScratch on the sketch whose state
// is st.
func (sh *Shape) AddBatchString(scr *uhash.Scratch, st []uint64, items []string) int {
	return uhash.BatchString(sh.h, scr, items, func(hi, lo []uint64) int { return sh.insertBatch(st, hi, lo) })
}

// Hasher returns the shape's hash function; Insert takes its output.
func (sh *Shape) Hasher() uhash.Hasher { return sh.h }

// Insert offers an item hashed by Hasher to (hi, lo) to the sketch whose
// state is st; AddUint64(st, x) is Insert(st, Hasher().Sum128Uint64(x)).
func (sh *Shape) Insert(st []uint64, hi, lo uint64) bool { return sh.insert(st, hi, lo) }

// ProbeWord returns the index, within a sketch's state, of the bitmap
// word Insert probes for an item whose high hash word is hi.
func (sh *Shape) ProbeWord(hi uint64) int {
	j, _ := bits.Mul64(hi, uint64(sh.cfg.m))
	return stateHeader + int(j>>6)
}

// insert implements lines 3–9 of Algorithm 2 given the two hash words.
func (sh *Shape) insert(st []uint64, bucketWord, sampleWord uint64) bool {
	// Multiply-shift bucket selection: j = ⌊bucketWord · m / 2^64⌋ is
	// uniform on [0, m) and works for any m, not only powers of two.
	j, _ := bits.Mul64(bucketWord, uint64(sh.cfg.m))
	w := &st[stateHeader+j>>6]
	mask := uint64(1) << (j & 63)
	if *w&mask != 0 {
		return false // case 1 of Figure 1: occupied bucket, skip
	}
	if sampleWord >= st[stateThreshold] {
		// Not sampled at rate p_{L+1}. A full bitmap (L = m, which cannot
		// happen before kMax in practice) parks the threshold at 0, so this
		// branch also rejects everything once no bucket is left.
		return false
	}
	*w |= mask
	st[stateL]++
	st[stateThreshold] = sh.thresholdAt(int(st[stateL]))
	return true
}

// insertBatch replays insert over a chunk of hashed items, with the fill
// level and threshold in locals for the whole chunk (the threshold is
// recomputed only on 0→1 transitions: at most m recomputations ever).
func (sh *Shape) insertBatch(st []uint64, hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	mm := uint64(sh.cfg.m)
	words := st[stateHeader:]
	cur := st[stateThreshold]
	l := int(st[stateL])
	changed := 0
	for i, h := range hi {
		j, _ := bits.Mul64(h, mm)
		w := &words[j>>6]
		mask := uint64(1) << (j & 63)
		if *w&mask != 0 || lo[i] >= cur {
			continue
		}
		*w |= mask
		l++
		changed++
		cur = sh.thresholdAt(l)
	}
	st[stateL] = uint64(l)
	st[stateThreshold] = cur
	return changed
}

// b returns the truncated output B = min(L, k*) of Equation (8).
func (sh *Shape) b(st []uint64) int { return min(int(st[stateL]), sh.cfg.kMax) }

// Estimate returns the estimate t_B of the sketch whose state is st.
func (sh *Shape) Estimate(st []uint64) float64 { return sh.cfg.sched.estimate(sh.b(st)) }

// BinarySize returns the length of a serialized sketch of this shape.
func (sh *Shape) BinarySize() int { return sketchHeader + bitvec.BinarySize(sh.cfg.m) }

// AppendBinary appends the serialization of the sketch whose state is st
// (the format of Sketch.MarshalBinary) to buf.
func (sh *Shape) AppendBinary(buf []byte, st []uint64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(sh.cfg.m))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sh.cfg.n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(sh.cfg.c))
	buf = binary.LittleEndian.AppendUint64(buf, st[stateL])
	buf = append(buf, byte(sh.dBits))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bitvec.BinarySize(sh.cfg.m)))
	return bitvec.AppendBinary(buf, st[stateHeader:], sh.cfg.m)
}

// Decode restores a serialized sketch (Sketch.MarshalBinary's format)
// into st, which must hold StateWords() words. The serialized (m, N, C, d)
// must equal the shape's (ErrShapeMismatch otherwise) and the bitmap must
// agree with the recorded fill level. st is left unspecified on error.
func (sh *Shape) Decode(st []uint64, data []byte) error {
	if len(data) < sketchHeader {
		return errors.New("core: truncated sketch header")
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return errors.New("core: bad sketch magic")
	}
	m := binary.LittleEndian.Uint64(data[4:])
	n := binary.LittleEndian.Uint64(data[12:])
	c := binary.LittleEndian.Uint64(data[20:])
	if m != uint64(sh.cfg.m) || n != math.Float64bits(sh.cfg.n) || c != math.Float64bits(sh.cfg.c) || uint(data[36]) != sh.dBits {
		return fmt.Errorf("%w: serialized m=%d N=%g C=%g d=%d, shape m=%d N=%g C=%g d=%d", ErrShapeMismatch,
			m, math.Float64frombits(n), math.Float64frombits(c), data[36], sh.cfg.m, sh.cfg.n, sh.cfg.c, sh.dBits)
	}
	l := binary.LittleEndian.Uint64(data[28:])
	if vlen := binary.LittleEndian.Uint64(data[37:]); vlen != uint64(len(data)-sketchHeader) {
		return fmt.Errorf("core: sketch body length %d, want %d", len(data)-sketchHeader, vlen)
	}
	ones, err := bitvec.DecodeWords(st[stateHeader:], data[sketchHeader:], sh.cfg.m)
	if err != nil {
		return err
	}
	if uint64(ones) != l {
		return fmt.Errorf("core: bitmap popcount %d does not match recorded L = %d", ones, l)
	}
	st[stateL] = l
	st[stateThreshold] = sh.thresholdAt(int(l))
	return nil
}

// thresholdAt returns the acceptance threshold in force at fill level l
// (i.e. for rate p_{l+1}), evaluating the schedule on demand. A full
// bitmap accepts nothing.
//
// The threshold is the 64-bit scaled acceptance bound for the fill level:
// an item is sampled at level L iff u < threshold, where u is the 64-bit
// sampling word. With dBits < 64 it is quantized to the top dBits bits,
// reproducing the paper's finite-resolution "u·2^−d < p" test (d = 30 in
// the paper's implementation sketch). Because L only ever moves forward
// one step at a time, a single state word replaces the per-level
// threshold table: it is advanced via the closed-form schedule on each
// 0→1 transition — at most m recomputations (one exp each) over the
// sketch's whole lifetime.
func (sh *Shape) thresholdAt(l int) uint64 {
	if l < len(sh.thr) {
		return sh.thr[l]
	}
	if l >= sh.cfg.m {
		return 0
	}
	return rateThreshold(sh.cfg.sched.rate(l+1), sh.dBits)
}

// rateThreshold converts a sampling rate p ∈ (0, 1] to the 64-bit threshold
// implementing "u·2^−d < p" on the top d bits of the sampling word: the
// number of accepted d-bit values is ⌈p·2^d⌉ (strict inequality), shifted
// back to the 64-bit domain. The scaling uses Ldexp — a pure exponent
// shift, exact for every d ∈ [1, 64] — rather than a float power-of-two
// multiply, so the d-bit truncation never inherits rounding from the
// scaling step itself.
func rateThreshold(p float64, d uint) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	if p <= 0 {
		return 0
	}
	scaled := math.Ceil(math.Ldexp(p, int(d)))
	if scaled >= math.Ldexp(1, int(d)) {
		return math.MaxUint64
	}
	t := uint64(scaled)
	if d < 64 {
		return t << (64 - d)
	}
	return t
}

// Config returns the sketch's immutable configuration.
func (s *Sketch) Config() *Config { return s.sh.cfg }

// Shape returns the sketch's shape.
func (s *Sketch) Shape() *Shape { return s.sh }

// SameShape reports whether the sketch has o's dimensions (m, N, C) and
// sampling resolution d; o may be nil.
func (s *Sketch) SameShape(o *Shape) bool {
	return o != nil && s.sh.cfg.m == o.cfg.m && s.sh.cfg.n == o.cfg.n && s.sh.cfg.c == o.cfg.c && s.sh.dBits == o.dBits
}

// Add offers an item to the sketch and reports whether the sketch state
// changed (a bucket transitioned 0→1).
func (s *Sketch) Add(item []byte) bool { return s.sh.Add(s.st, item) }

// AddUint64 offers a 64-bit item; it is equivalent to Add of the item's
// 8-byte little-endian encoding but allocation-free.
func (s *Sketch) AddUint64(item uint64) bool { return s.sh.AddUint64(s.st, item) }

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sketch) AddString(item string) bool { return s.sh.AddString(s.st, item) }

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// the sketch state. It is state-equivalent to calling AddUint64 on each
// item in order, but hashes in chunks (one dispatch per uhash.BatchSize
// items instead of one per item) and runs the insert loop with the fill
// level and threshold in locals.
func (s *Sketch) AddBatch64(items []uint64) int { return s.AddBatch64Scratch(s.scratch(), items) }

// AddBatchString is AddBatch64 for string items; each hashes identically
// to AddString of the same item.
func (s *Sketch) AddBatchString(items []string) int {
	return s.AddBatchStringScratch(s.scratch(), items)
}

// AddBatch64Scratch is AddBatch64 hashing through caller-owned scratch
// instead of the sketch's own lazily allocated buffers. A keyed store
// holding millions of tiny sketches shares one scratch per lock stripe,
// so the ~4 KiB of batch buffers are paid per stripe, not per key. The
// sketch state after the call is bit-identical to AddBatch64's.
func (s *Sketch) AddBatch64Scratch(scr *uhash.Scratch, items []uint64) int {
	return s.sh.AddBatch64(scr, s.st, items)
}

// AddBatchStringScratch is AddBatch64Scratch for string items.
func (s *Sketch) AddBatchStringScratch(scr *uhash.Scratch, items []string) int {
	return s.sh.AddBatchString(scr, s.st, items)
}

func (s *Sketch) scratch() *uhash.Scratch {
	if s.scr == nil {
		s.scr = new(uhash.Scratch)
	}
	return s.scr
}

// L returns the current number of 1-bits (the paper's L).
func (s *Sketch) L() int { return int(s.st[stateL]) }

// B returns the truncated output B = min(L, k*) of Equation (8).
func (s *Sketch) B() int { return s.sh.b(s.st) }

// Estimate returns the cardinality estimate n̂ = t_B (Equation 2),
// evaluated in closed form: t_B = C/2·(r^{−B} − 1).
func (s *Sketch) Estimate() float64 { return s.sh.Estimate(s.st) }

// Saturated reports whether the sketch has reached its truncation point;
// estimates at or beyond N are pinned to t_{k*} ≈ N.
func (s *Sketch) Saturated() bool { return s.L() >= s.sh.cfg.kMax }

// FillRatio returns L/m, the fraction of buckets set.
func (s *Sketch) FillRatio() float64 { return float64(s.L()) / float64(s.sh.cfg.m) }

// SizeBits returns the summary-statistic memory footprint in bits, the
// quantity compared across algorithms in Section 6.2 (hash seeds excluded,
// as in the paper).
func (s *Sketch) SizeBits() int { return s.sh.cfg.m }

// Footprint returns the sketch's resident process memory in bytes: the
// struct itself, its Shape and share of the Config (including any
// schedule tables), the state words, and the lazily allocated batch-hash
// scratch. For Theorem-2 configs this is m/8 plus a small constant — the
// paper's Table 2 accounting finally holds of the process, not just the
// bitmap. (A Shape may be shared across sketches, in which case its bytes
// are over-counted; they are a small constant on the closed-form path.)
func (s *Sketch) Footprint() int {
	n := int(unsafe.Sizeof(*s)) + s.sh.Footprint() + 8*cap(s.st)
	if s.scr != nil {
		n += int(unsafe.Sizeof(*s.scr)) + s.scr.Footprint()
	}
	return n
}

// Reset clears the sketch for reuse under the same configuration and hash.
func (s *Sketch) Reset() { s.sh.Init(s.st) }

// sketchMagic guards serialized sketches against format drift.
const sketchMagic = uint32(0x5b17ab01)

// LegacySketchMagic is the magic word of the original bare serialization
// format, exported so the root package's universal Unmarshal can keep
// accepting pre-envelope S-bitmap snapshots.
const LegacySketchMagic = sketchMagic

// MarshalBinary serializes the sketch state together with the (m, N, C)
// triple so a receiver can rebuild the estimator tables. The hash seed is
// NOT serialized; the caller must construct the receiving sketch with the
// same hasher to continue updating (estimation alone needs no hasher).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	return s.sh.AppendBinary(make([]byte, 0, s.sh.BinarySize()), s.st), nil
}

// UnmarshalSketch reconstructs a sketch from MarshalBinary output. The
// returned sketch can Estimate immediately; to continue adding items, pass
// the same hasher used by the original via opts.
func UnmarshalSketch(data []byte, opts ...Option) (*Sketch, error) {
	if len(data) < sketchHeader {
		return nil, errors.New("core: truncated sketch header")
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return nil, errors.New("core: bad sketch magic")
	}
	m := binary.LittleEndian.Uint64(data[4:])
	n := math.Float64frombits(binary.LittleEndian.Uint64(data[12:]))
	c := math.Float64frombits(binary.LittleEndian.Uint64(data[20:]))
	d := uint(data[36])
	if vlen := binary.LittleEndian.Uint64(data[37:]); vlen != uint64(len(data)-sketchHeader) {
		return nil, fmt.Errorf("core: sketch body length %d, want %d", len(data)-sketchHeader, vlen)
	}
	// The bitmap must be as long as m says before m sizes an allocation.
	if m > 1<<40 || bitvec.BinarySize(int(m)) != len(data)-sketchHeader {
		return nil, fmt.Errorf("core: %d-byte bitmap does not hold m = %d bits", len(data)-sketchHeader, m)
	}
	cfg, err := newConfig(int(m), n, c)
	if err != nil {
		return nil, fmt.Errorf("core: rejected serialized parameters: %w", err)
	}
	if d < 1 || d > 64 {
		return nil, fmt.Errorf("core: serialized sampling resolution d = %d outside [1, 64]", d)
	}
	allOpts := append([]Option{WithResolution(d)}, opts...)
	sh := NewShape(cfg, 0, allOpts...)
	st := make([]uint64, sh.StateWords())
	if err := sh.Decode(st, data); err != nil {
		return nil, err
	}
	return &Sketch{sh: sh, st: st}, nil
}
