package sbitmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/uhash"
)

// Store is the keyed face of the module: a concurrent collection of
// per-key counters — the paper's headline deployment ("estimating flows
// for each of the links", Section 7) and the spread-estimation workload of
// Estan et al. (2006), where a monitor keeps one tiny sketch per flow,
// host, or link, for millions of keys at once.
//
// Every counter is lazily materialized from a single Spec the first time
// its key is seen, so all keys share one dimensioning, one hash seed, and
// one hash family: estimates are comparable across keys, identically
// specced Stores on different machines can Merge key-wise (for Mergeable
// kinds), and a whole Store snapshots into one framed container
// (MarshalBinary / UnmarshalStore).
//
// Keys are strings or 64-bit integers (any type whose underlying type is
// one of the two). Access is lock-striped: keys hash onto independently
// locked stripes, each a flat slot table (see storeStripe), so ingestion
// scales across goroutines, and the keyed batch methods route a whole
// batch with one hash pass and take each touched stripe's lock once per
// batch. For the S-bitmap kind a key costs its slot record (its key
// words, 16 bytes of threshold and fill level, and m/8 bytes of bitmap,
// padded to a 32- or 64-byte stride), a 40-byte Counter view, a string
// key's bytes, an 8-byte table cell (the table runs 3/8 to 3/4 full) and
// a flag byte: no heap object of its own.
//
// A Store is safe for concurrent use. Memory is bounded by WithMaxKeys
// plus the OnEvict hook; unbounded otherwise (one counter per distinct
// key ever seen).
type Store[K StoreKey] struct {
	spec    Spec
	stripes []storeStripe[K]
	router  *uhash.Mixer
	limit   int  // max keys (0 = unbounded)
	isStr   bool // K's underlying type is string (cached keyIsString)
	keys    atomic.Int64
	onEvict func(K, Counter)

	// gen is the dirty-tracking generation: every mutation stamps its
	// stripe with the current value, and MarshalStripes advances it to cut
	// a new checkpoint epoch. See MarshalStripes for the protocol.
	gen atomic.Uint64

	// kw and stride size a slot record: kw key words, then (stride-kw
	// words, nState of them used) an S-bitmap key's sketch state.
	kw, stride int

	// sh is the shared Shape of an unwindowed S-bitmap spec: every key's
	// sketch state then lives in its slot record, and ingest runs
	// Algorithm 2 on it directly. nil for the other kinds, whose slots
	// hold counters from newCounter.
	sh     *core.Shape
	nState int

	// newCounter is the per-key factory of the other kinds (Spec.New, or a
	// sub-window ring of it), validated once in NewStore so
	// materialization cannot fail later. mergeable reports whether the
	// base kind implements Mergeable.
	newCounter func() Counter
	mergeable  bool

	// specOpts carry the spec's seed and hash family into restored
	// counters; emptyBlob is a fresh base counter's snapshot, the shape a
	// restored counter must have (see decodeBase).
	specOpts  []Option
	emptyBlob []byte
	baseShape *core.Shape // an S-bitmap base spec's dimensions, else nil

	// win is the sliding-window configuration of a windowed(...) spec; nil
	// otherwise. When set, per-key counters are windowRings, wm is the
	// watermark sub-window index (the highest any record has reached;
	// wmNone before the first), and late counts records that arrived more
	// than ring sub-windows behind the watermark and were folded into the
	// watermark window.
	win  *windowShared
	wm   atomic.Int64
	late atomic.Int64

	// scratch pools the routing/grouping buffers of in-flight batches.
	scratch sync.Pool
}

// StoreKey constrains Store keys to the two wire-representable key shapes:
// strings (flow tuples, user ids, URLs) and 64-bit words (packed 5-tuples
// like netflow.FlowKey, link or tenant ids).
type StoreKey interface {
	~string | ~uint64
}

// storeStripe is one lock-striped segment of the key space: a flat slot
// table. Each live key owns a slot, an index into the stripe's
// slot-ordered records, and an open-addressed table (linear probing, at
// most 3/4 full) of 8-byte cells maps the key's router hash — the tag,
// already computed to pick the stripe — to that slot, comparing the key
// only on a tag match. A slot's record holds the key (a uint64 key
// itself; a string key's arena reference and first inlineKey bytes)
// followed, for the S-bitmap kind, by the sketch state, so a probe's key
// check reads the very cache line the sketch update needs next. Records
// and the S-bitmap Counter views over them live in chunks that never
// move (see slotChunk), so views handed out stay valid; other kinds and
// windowed rings keep one Counter per slot. Released slots (Remove,
// eviction) are reused. Everything is guarded by mu, including the hash
// scratch lent to every long run's batch path.
type storeStripe[K StoreKey] struct {
	mu     sync.Mutex
	tab    []storeEntry // power-of-two length; nil while empty
	recs   [][]uint64   // slot record chunks, Store.stride words per slot
	views  [][]SBitmap  // S-bitmap Counter views, chunk-parallel to recs
	ctrs   []Counter    // other kinds: each slot's counter
	flags  []uint8      // per slot: slotLive, slotRef
	free   []uint32     // released slots, reused first
	hand   int          // CLOCK hand: the next eviction candidate
	arena  []byte       // string key bytes, never rewritten in place
	dead   int          // arena bytes of released keys
	scr    uhash.Scratch
	touch  uint64   // sink of ingestSlotsLocked's prefetching loads
	modGen uint64   // generation of the last mutation
	_      [48]byte // keep adjacent stripes' locks off shared cache lines
}

// storeEntry is one table cell.
type storeEntry struct {
	tag  uint32 // the router hash's low word, which also picks the home cell
	slot uint32 // slot+1; 0 marks an empty cell
}

// A record's key words: a uint64 key is one word; a string key is its
// arena reference (offset<<32 | length) and its first inlineKey bytes,
// zero-padded, so only longer keys are compared against the arena.
const (
	inlineKey   = 16
	keyWords64  = 1
	keyWordsStr = 3
)

// keyInline returns a string key's first inlineKey bytes as two words.
func keyInline(ks string) (w0, w1 uint64) {
	if len(ks) >= inlineKey {
		b := unsafe.Slice(unsafe.StringData(ks), inlineKey)
		return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:])
	}
	var b [inlineKey]byte
	copy(b[:], ks)
	return binary.LittleEndian.Uint64(b[:]), binary.LittleEndian.Uint64(b[8:])
}

// Slot flags.
const (
	slotLive = 1 << iota // the slot holds a key
	slotRef              // counted since the CLOCK hand last passed (WithMaxKeys only)
)

// StoreOption configures a Store at construction.
type StoreOption func(*storeConfig)

type storeConfig struct {
	stripes int
	maxKeys int
}

// WithStripes sets the lock-stripe count (default 64). More stripes admit
// more concurrent writers at a few hundred bytes each; the count does not
// affect estimates or snapshots.
func WithStripes(n int) StoreOption { return func(c *storeConfig) { c.stripes = n } }

// WithMaxKeys bounds the number of live keys: materializing a key beyond
// the limit first evicts one — from the new key's own stripe when it
// holds one, otherwise from another uncontended stripe. Within a stripe
// the victim is picked by CLOCK: a key counted since the hand last passed
// gets a second chance (sketch eviction is otherwise estimator-agnostic —
// any victim loses exactly its own per-key count). Pair with OnEvict to
// spill evicted counters. Under concurrent ingest the bound can
// transiently overshoot by at most the stripe count. 0 (the default)
// means unbounded.
func WithMaxKeys(n int) StoreOption { return func(c *storeConfig) { c.maxKeys = n } }

// storeDefaultStripes is the default lock-stripe count.
const storeDefaultStripes = 64

// storeRouterSalt decouples the stripe router's seed from the counters'
// hash seed (their hash functions must be independent).
const storeRouterSalt = 0x5b0a5ed5707e15

// NewStore returns an empty keyed store whose per-key counters are built
// from spec. The spec is validated by constructing (and discarding) one
// counter, so any dimensioning error surfaces here, not mid-ingest.
//
// A spec carrying the windowed(width=…,ring=…) modifier builds a
// sliding-window store: each key holds a ring of Ring sub-window
// sketches of the base spec, rotated by record timestamps (the At
// ingest variants), and EstimateWindow answers queries over a trailing
// span. See the windowRing documentation for the time model.
func NewStore[K StoreKey](spec Spec, opts ...StoreOption) (*Store[K], error) {
	cfg := storeConfig{stripes: storeDefaultStripes}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.stripes < 1 {
		return nil, fmt.Errorf("sbitmap: store stripe count %d < 1", cfg.stripes)
	}
	if cfg.maxKeys < 0 {
		return nil, fmt.Errorf("sbitmap: store key limit %d < 0", cfg.maxKeys)
	}
	if spec.Window == 0 && spec.Ring != 0 {
		return nil, fmt.Errorf("sbitmap: store spec ring=%d without a window width", spec.Ring)
	}
	if spec.Window != 0 {
		if spec.Window < 0 {
			return nil, fmt.Errorf("sbitmap: store spec window %s < 0", spec.Window)
		}
		if spec.Ring == 0 {
			spec.Ring = DefaultWindowRing
		}
		if spec.Ring < 0 || spec.Ring > maxWindowRing {
			return nil, fmt.Errorf("sbitmap: store spec ring %d outside [1, %d]", spec.Ring, maxWindowRing)
		}
		if spec.Window > math.MaxInt64/time.Duration(spec.Ring) {
			return nil, fmt.Errorf("sbitmap: store spec retention %s×%d overflows a duration", spec.Window, spec.Ring)
		}
	}
	// The per-sub-window sketch is dimensioned by the spec minus the
	// window modifier; for unwindowed specs base == spec.
	base := spec.base()
	probe, err := base.New()
	if err != nil {
		return nil, fmt.Errorf("sbitmap: store spec: %w", err)
	}
	specOpts, err := spec.options()
	if err != nil {
		return nil, err
	}
	emptyBlob, err := Marshal(probe)
	if err != nil {
		return nil, fmt.Errorf("sbitmap: store spec: %w", err)
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	_, mergeable := probe.(Mergeable)
	var baseShape *core.Shape
	if sb, ok := probe.(*SBitmap); ok {
		baseShape = sb.sk.Shape()
	}
	newBase := func() Counter {
		c, err := base.New()
		if err != nil {
			// The spec built a counter above; a deterministic
			// constructor cannot fail on the same input later.
			panic(fmt.Sprintf("sbitmap: store spec stopped constructing: %v", err))
		}
		return c
	}
	s := &Store[K]{
		spec:       spec,
		stripes:    make([]storeStripe[K], cfg.stripes),
		router:     uhash.NewMixer(seed ^ storeRouterSalt),
		limit:      cfg.maxKeys,
		isStr:      keyIsString[K](),
		newCounter: newBase,
		mergeable:  mergeable,
		specOpts:   specOpts,
		emptyBlob:  emptyBlob,
		baseShape:  baseShape,
	}
	s.kw = keyWords64
	if s.isStr {
		s.kw = keyWordsStr
	}
	s.stride = s.kw
	s.wm.Store(wmNone)
	switch {
	case spec.Window != 0:
		win := &windowShared{
			width:      int64(spec.Window),
			ring:       spec.Ring,
			mergeable:  mergeable,
			newCounter: newBase,
			wm:         &s.wm,
		}
		s.win = win
		s.newCounter = func() Counter { return newWindowRing(win) }
	case spec.Kind == KindSBitmap:
		cfg, err := spec.sbitmapConfig()
		if err != nil {
			return nil, err
		}
		o := buildOptions(specOpts)
		s.sh = core.NewShape(cfg, o.seed, core.WithResolution(o.dBits), core.WithHasher(o.newHasher()))
		s.sh.Tabulate()
		s.nState = s.sh.StateWords()
		// Align records so a record's key words and sketch header never
		// straddle a cache line: chunks start line-aligned.
		align := 4
		if s.kw+2 > align {
			align = 8
		}
		s.stride = (s.kw + s.nState + align - 1) / align * align
	}
	return s, nil
}

// OnEvict installs the eviction hook: fn runs whenever WithMaxKeys (or a
// future bounded-memory policy) removes a key, receiving the key and its
// final counter — a copy detached from the store, so the hook may keep
// it: snapshot it, sum it into a coarser aggregate, or drop it. The hook
// runs with the key's stripe locked: keep it cheap and do not call back
// into the Store. Install before concurrent use.
func (s *Store[K]) OnEvict(fn func(key K, c Counter)) { s.onEvict = fn }

// Spec returns the Spec every per-key counter is built from.
func (s *Store[K]) Spec() Spec { return s.spec }

// keyIsString reports whether K's underlying type is string (the
// constraint admits only string- and uint64-kinded keys). The hot paths
// read the Store's cached isStr instead of re-deriving this per record.
func keyIsString[K StoreKey]() bool {
	var zero K
	return reflect.TypeOf(zero).Kind() == reflect.String
}

// keyString and keyWord reinterpret a key as its underlying
// representation (valid because K's underlying type is exactly string or
// uint64); keyFromString / keyFromWord invert them.
func keyString[K StoreKey](k K) string     { return *(*string)(unsafe.Pointer(&k)) }
func keyWord[K StoreKey](k K) uint64       { return *(*uint64)(unsafe.Pointer(&k)) }
func keyFromString[K StoreKey](v string) K { return *(*K)(unsafe.Pointer(&v)) }
func keyFromWord[K StoreKey](v uint64) K   { return *(*K)(unsafe.Pointer(&v)) }

// hashKey routes a key: the high word of its 128-bit router hash. It
// picks the stripe (stripeIndex, high bits) and is the key's table tag
// within it (home cell from the low bits).
func (s *Store[K]) hashKey(key K) uint64 {
	if s.isStr {
		hi, _ := s.router.Sum128String(keyString(key))
		return hi
	}
	hi, _ := s.router.Sum128Uint64(keyWord(key))
	return hi
}

// stripeIndex maps a router hash word onto [0, stripes) by multiply-shift
// (unbiased for any stripe count).
func (s *Store[K]) stripeIndex(word uint64) uint64 {
	return ((word >> 32) * uint64(len(s.stripes))) >> 32
}

// touchLocked stamps a stripe dirty at the current generation. Every
// path that mutates stripe state — adds, batch ingest, merge, remove,
// reset, and eviction (which may victimize a stripe other than the one
// being inserted into) — calls it with the stripe's lock held, so
// MarshalStripes can encode exactly the stripes touched since a cut.
func (s *Store[K]) touchLocked(st *storeStripe[K]) { st.modGen = s.gen.Load() }

// lookup returns key's slot in st, if present.
func (s *Store[K]) lookup(st *storeStripe[K], tag uint64, key K) (slot uint32, ok bool) {
	if st.tab == nil {
		return 0, false
	}
	mask := uint32(len(st.tab) - 1)
	for pos := uint32(tag) & mask; ; pos = (pos + 1) & mask {
		e := st.tab[pos]
		if e.slot == 0 {
			return 0, false
		}
		if e.tag == uint32(tag) && s.keyIs(st, e.slot-1, key) {
			return e.slot - 1, true
		}
	}
}

// candidate returns the slot of the first cell in the probe sequence of
// a key with this tag whose tag matches — almost always the key's own
// slot, which keyIs confirms (lookup probes on past a collision).
func (st *storeStripe[K]) candidate(tag uint64) (slot uint32, ok bool) {
	if st.tab == nil {
		return 0, false
	}
	mask := uint32(len(st.tab) - 1)
	for pos := uint32(tag) & mask; ; pos = (pos + 1) & mask {
		if e := st.tab[pos]; e.slot == 0 || e.tag == uint32(tag) {
			return e.slot - 1, e.slot != 0
		}
	}
}

// keyIs reports whether a live slot holds key.
func (s *Store[K]) keyIs(st *storeStripe[K], slot uint32, key K) bool {
	rec := s.rec(st, slot)
	if !s.isStr {
		return rec[0] == keyWord(key)
	}
	ks := keyString(key)
	if uint32(rec[0]) != uint32(len(ks)) {
		return false
	}
	w0, w1 := keyInline(ks)
	return rec[1] == w0 && rec[2] == w1 &&
		(len(ks) <= inlineKey || string(st.arena[rec[0]>>32:rec[0]>>32+uint64(len(ks))]) == ks)
}

// cellOf returns the table position of slot's cell.
func (st *storeStripe[K]) cellOf(tag uint64, slot uint32) int {
	mask := len(st.tab) - 1
	pos := int(uint32(tag)) & mask
	for st.tab[pos].slot != slot+1 {
		pos = (pos + 1) & mask
	}
	return pos
}

// insert files a materialized slot's key: its record's key words (a
// string key is copied into the arena, since zero-copy ingest paths —
// the wire listener — pass keys aliasing reusable frame buffers) and its
// table cell, doubling the table past 3/4 load.
func (s *Store[K]) insert(st *storeStripe[K], tag uint64, key K, slot uint32) {
	rec := s.rec(st, slot)
	if s.isStr {
		ks := keyString(key)
		rec[0] = uint64(len(st.arena))<<32 | uint64(len(ks))
		rec[1], rec[2] = keyInline(ks)
		st.arena = append(st.arena, ks...)
	} else {
		rec[0] = keyWord(key)
	}
	if 4*(len(st.flags)-len(st.free)) > 3*len(st.tab) {
		old := st.tab
		st.tab = make([]storeEntry, max(16, 2*len(old)))
		for _, e := range old {
			if e.slot != 0 {
				st.place(e)
			}
		}
	}
	st.place(storeEntry{tag: uint32(tag), slot: slot + 1})
}

// place puts e in the first empty cell of its probe sequence.
func (st *storeStripe[K]) place(e storeEntry) {
	mask := len(st.tab) - 1
	pos := int(e.tag) & mask
	for st.tab[pos].slot != 0 {
		pos = (pos + 1) & mask
	}
	st.tab[pos] = e
}

// deleteAt empties the cell at pos by backward-shift deletion: later
// cells of the probe run move up into the hole whenever the hole lies on
// their own probe path, so lookups never need tombstones.
func (st *storeStripe[K]) deleteAt(pos int) {
	mask := len(st.tab) - 1
	for next := (pos + 1) & mask; st.tab[next].slot != 0; next = (next + 1) & mask {
		if home := int(st.tab[next].tag) & mask; (next-home)&mask >= (next-pos)&mask {
			st.tab[pos] = st.tab[next]
			pos = next
		}
	}
	st.tab[pos] = storeEntry{}
}

// slotChunk locates a slot in the chunked slabs. Chunks hold 8, 16, 32,
// 64 and 128 slots, then 256 each, so a small stripe does not pay for a
// big slab up front, and a chunk never moves once allocated.
func slotChunk(slot uint32) (chunk, i int) {
	if slot < 248 {
		chunk = bits.Len32(slot+8) - 4
		return chunk, int(slot+8) - 8<<chunk
	}
	return 5 + int(slot-248)/256, int(slot-248) % 256
}

// rec returns a slot's record: its key words, then any sketch state.
func (s *Store[K]) rec(st *storeStripe[K], slot uint32) []uint64 {
	c, i := slotChunk(slot)
	return st.recs[c][i*s.stride : (i+1)*s.stride]
}

// stateOf returns an S-bitmap slot's sketch state.
func (s *Store[K]) stateOf(st *storeStripe[K], slot uint32) []uint64 {
	return s.rec(st, slot)[s.kw : s.kw+s.nState]
}

// counterAt returns a live slot's counter: the S-bitmap view over its
// state, or the counter it holds.
func (s *Store[K]) counterAt(st *storeStripe[K], slot uint32) Counter {
	if s.sh == nil {
		return st.ctrs[slot]
	}
	c, i := slotChunk(slot)
	return &st.views[c][i]
}

// keyOf returns a live slot's key. A string key aliases the arena, whose
// bytes are never overwritten (compaction copies to a new array).
func (s *Store[K]) keyOf(st *storeStripe[K], slot uint32) K {
	ref := s.rec(st, slot)[0]
	if !s.isStr {
		return keyFromWord[K](ref)
	}
	if uint32(ref) == 0 {
		return keyFromString[K]("")
	}
	return keyFromString[K](unsafe.String(&st.arena[ref>>32], int(uint32(ref))))
}

// newSlot takes a slot for a new key: a released one when there is one,
// else the next, growing the slabs by a chunk when it starts one. The
// slot holds c, or a fresh counter when c is nil (S-bitmap slots: an
// empty sketch).
func (s *Store[K]) newSlot(st *storeStripe[K], c Counter) uint32 {
	var slot uint32
	if n := len(st.free); n > 0 {
		slot, st.free = st.free[n-1], st.free[:n-1]
	} else {
		slot = uint32(len(st.flags))
		st.flags = append(st.flags, 0)
		if s.sh == nil {
			st.ctrs = append(st.ctrs, nil)
		}
		if chunk, i := slotChunk(slot); i == 0 {
			n := 256
			if chunk < 5 {
				n = 8 << chunk
			}
			// slices.Grow rounds capacity up to the allocation's size
			// class, so Footprint's capacity sums are exact.
			recs := slices.Grow([]uint64(nil), n*s.stride)[:n*s.stride]
			st.recs = append(st.recs, recs)
			if s.sh != nil {
				views := slices.Grow([]SBitmap(nil), n)[:n]
				for j := range views {
					views[j].sk = s.sh.View(recs[j*s.stride+s.kw : j*s.stride+s.kw+s.nState])
				}
				st.views = append(st.views, views)
			}
		}
	}
	st.flags[slot] = slotLive
	s.rec(st, slot)[0] = 0 // no key bytes yet
	switch {
	case s.sh != nil:
		s.sh.Init(s.stateOf(st, slot))
	case c == nil:
		st.ctrs[slot] = s.newCounter()
	default:
		st.ctrs[slot] = c
	}
	return slot
}

// release returns a slot to the free list, and its key bytes to the
// arena's dead count; the arena is compacted once dead bytes dominate.
func (s *Store[K]) release(st *storeStripe[K], slot uint32) {
	st.flags[slot] = 0
	if st.ctrs != nil {
		st.ctrs[slot] = nil
	}
	st.free = append(st.free, slot)
	if !s.isStr {
		return
	}
	if st.dead += int(uint32(s.rec(st, slot)[0])); st.dead > 1024 && 2*st.dead > len(st.arena) {
		arena := make([]byte, 0, len(st.arena)-st.dead)
		for slot, f := range st.flags {
			if f&slotLive != 0 {
				rec := s.rec(st, uint32(slot))
				off, n := rec[0]>>32, rec[0]&math.MaxUint32
				rec[0] = uint64(len(arena))<<32 | n
				arena = append(arena, st.arena[off:off+n]...)
			}
		}
		st.arena, st.dead = arena, 0
	}
}

// drop removes the key in table cell pos and releases its slot.
func (s *Store[K]) drop(st *storeStripe[K], pos int) {
	slot := st.tab[pos].slot - 1
	st.deleteAt(pos)
	s.release(st, slot)
	s.keys.Add(-1)
	s.touchLocked(st)
}

// slotOf returns key's slot, materializing it on first sight — after
// evicting a key when the store is at its limit. Stripe lock held.
func (s *Store[K]) slotOf(st *storeStripe[K], tag uint64, key K) uint32 {
	slot, ok := s.lookup(st, tag, key)
	if !ok {
		if s.limit > 0 && int(s.keys.Load()) >= s.limit {
			s.evictOneLocked(st)
		}
		slot = s.newSlot(st, nil)
		s.insert(st, tag, key, slot)
		s.keys.Add(1)
	}
	if s.limit > 0 {
		st.flags[slot] |= slotRef
	}
	return slot
}

// evictOneLocked removes one key and fires the eviction hook: first from
// the locked stripe, else from another stripe taken with TryLock (never a
// blocking second lock, so eviction cannot deadlock against batch ingest
// or a concurrent evictor).
func (s *Store[K]) evictOneLocked(st *storeStripe[K]) {
	if s.evictFrom(st) {
		return
	}
	for i := range s.stripes {
		cand := &s.stripes[i]
		if cand == st || !cand.mu.TryLock() {
			continue
		}
		ok := s.evictFrom(cand)
		cand.mu.Unlock()
		if ok {
			return
		}
	}
	// Every other stripe was empty or busy; the insert proceeds and the
	// store transiently overshoots (bounded by the stripe count).
}

// evictFrom evicts st's CLOCK victim: the hand sweeps the slots, sparing
// — and clearing the reference bit of — any key counted since it last
// passed, so a burst of one-off keys cycles through itself instead of
// flushing the keys being counted. One bit per slot; two sweeps at most.
func (s *Store[K]) evictFrom(st *storeStripe[K]) bool {
	n := len(st.flags)
	for range 2 * n {
		slot := uint32(st.hand)
		st.hand = (st.hand + 1) % n
		if f := st.flags[slot]; f&slotRef != 0 {
			st.flags[slot] = f &^ slotRef
			continue
		} else if f&slotLive == 0 {
			continue
		}
		key := s.keyOf(st, slot)
		var c Counter
		if s.onEvict != nil {
			c = s.counterAt(st, slot) // dropped from the store below: detached
			if s.sh != nil {
				c = &SBitmap{sk: *s.sh.Clone(s.stateOf(st, slot))}
			}
		}
		s.drop(st, st.cellOf(s.hashKey(key), slot))
		if s.onEvict != nil {
			s.onEvict(key, c)
		}
		return true
	}
	return false
}

// advanceWatermark raises the watermark sub-window index to at least
// widx and returns the post-advance watermark. Lock-free (CAS max): the
// watermark is read on estimate paths that do not hold stripe locks.
func (s *Store[K]) advanceWatermark(widx int64) int64 {
	for {
		cur := s.wm.Load()
		if cur >= widx && cur != wmNone {
			return cur
		}
		if s.wm.CompareAndSwap(cur, widx) {
			return widx
		}
	}
}

// currentWidx returns the watermark sub-window, or sub-window 0 for a
// windowed store that has never seen a record — untimestamped ingest is
// deterministic (never wall-clock), so replaying the same records always
// rebuilds the same state.
func (s *Store[K]) currentWidx() int64 {
	if wm := s.wm.Load(); wm != wmNone {
		return wm
	}
	return 0
}

// resolveWidx resolves the sub-window an n-record ingest lands in, given
// the timestamp's own sub-window: normally widx itself (advancing the
// watermark when the batch moves time forward), but a record more than
// ring sub-windows behind the watermark has lost its slot — it folds
// into the watermark window and is counted in LateRecords. Returns 0 for
// unwindowed stores, whose ingest ignores time entirely.
func (s *Store[K]) resolveWidx(widx int64, n int) int64 {
	if s.win == nil {
		return 0
	}
	wm := s.advanceWatermark(widx)
	if widx <= wm-int64(s.win.ring) {
		s.late.Add(int64(n))
		return wm
	}
	return widx
}

// slotCounter resolves the counter that receives sub-window widx's
// records in a counter-holding slot: the slot's counter itself, or a
// windowed store's ring rotated to widx.
func (s *Store[K]) slotCounter(st *storeStripe[K], slot uint32, widx int64) Counter {
	c := st.ctrs[slot]
	if s.win != nil {
		c = c.(*windowRing).slot(widx)
	}
	return c
}

// itemOps adapts the ingest paths to one item type.
type itemOps[T any] struct {
	method string                                      // the batch method, for panics
	slot   func(*core.Shape, []uint64, T) bool         // one item into S-bitmap slot state
	ctr    func(Counter, T) bool                       // one item into a counter
	hash   func(uhash.Hasher, []T, []uint64, []uint64) // a batch of items' hashes
	sketch func(*core.Sketch, *uhash.Scratch, []T) int // a long run into a ring's S-bitmap
	ctrs   func(Counter, []T) int                      // a long run into another counter
}

var (
	ops64 = &itemOps[uint64]{"AddBatch64", (*core.Shape).AddUint64, Counter.AddUint64,
		uhash.Sum128Uint64Batch, (*core.Sketch).AddBatch64Scratch, AddBatch64}
	opsString = &itemOps[string]{"AddBatchString", (*core.Shape).AddString, Counter.AddString,
		uhash.Sum128StringBatch, (*core.Sketch).AddBatchStringScratch, AddBatchString}
	opsBytes = &itemOps[[]byte]{slot: (*core.Shape).Add, ctr: Counter.Add}
)

// addOne offers one item to key's counter in sub-window widx.
func addOne[K StoreKey, T any](s *Store[K], ops *itemOps[T], widx int64, key K, item T) bool {
	widx = s.resolveWidx(widx, 1)
	tag := s.hashKey(key)
	st := &s.stripes[s.stripeIndex(tag)]
	st.mu.Lock()
	s.touchLocked(st)
	slot := s.slotOf(st, tag, key)
	var changed bool
	if s.sh != nil {
		changed = ops.slot(s.sh, s.stateOf(st, slot), item)
	} else {
		changed = ops.ctr(s.slotCounter(st, slot, widx), item)
	}
	st.mu.Unlock()
	return changed
}

// Add offers item to key's counter, materializing it on first sight; it
// reports whether the counter's state changed. On a windowed store the
// item lands in the watermark sub-window (use AddAt to place it in
// time). Safe for concurrent use.
func (s *Store[K]) Add(key K, item []byte) bool {
	return addOne(s, opsBytes, s.currentWidx(), key, item)
}

// AddAt is Add with an explicit record timestamp: on a windowed store
// the item lands in ts's sub-window (floor(ts/width)); an unwindowed
// store ignores ts. Timestamps are caller-supplied — replayed traces
// carry their own clock — and a record more than ring sub-windows behind
// the watermark folds into the watermark window (see LateRecords).
func (s *Store[K]) AddAt(ts time.Time, key K, item []byte) bool {
	return addOne(s, opsBytes, s.tsWidx(ts), key, item)
}

// AddUint64 offers a 64-bit item to key's counter; safe for concurrent
// use. On a windowed store the item lands in the watermark sub-window.
func (s *Store[K]) AddUint64(key K, item uint64) bool {
	return addOne(s, ops64, s.currentWidx(), key, item)
}

// AddUint64At is AddUint64 with an explicit record timestamp; see AddAt.
func (s *Store[K]) AddUint64At(ts time.Time, key K, item uint64) bool {
	return addOne(s, ops64, s.tsWidx(ts), key, item)
}

// AddString offers a string item to key's counter; safe for concurrent
// use. On a windowed store the item lands in the watermark sub-window.
func (s *Store[K]) AddString(key K, item string) bool {
	return addOne(s, opsString, s.currentWidx(), key, item)
}

// AddStringAt is AddString with an explicit record timestamp; see AddAt.
func (s *Store[K]) AddStringAt(ts time.Time, key K, item string) bool {
	return addOne(s, opsString, s.tsWidx(ts), key, item)
}

// tsWidx discretizes a record timestamp into its sub-window index; 0 for
// unwindowed stores (where it is never used).
func (s *Store[K]) tsWidx(ts time.Time) int64 {
	if s.win == nil {
		return 0
	}
	return widxOf(ts.UnixNano(), s.win.width)
}

// storeScratch holds one in-flight batch's routing state: each record's
// (key, tag, original position) grouped stripe-contiguously by counting
// sort, plus the per-stripe layout and item-gather buffers.
type storeScratch[K StoreKey] struct {
	hi, lo []uint64 // router high words, one per record; then item hashes
	recs   []storeRec[K]
	counts []int
	offs   []int
	buf64  []uint64
	bufS   []string
}

// storeRec carries a record's key and router hash (its table tag)
// through stripe grouping; pos (the record's index in the caller's
// slices) fetches the item when the run is ingested. The counting sort
// preserves original record order within each stripe, which keeps the
// batch path bit-identical to per-item ingestion.
type storeRec[K StoreKey] struct {
	key  K
	tag  uint64
	pos  int
	slot uint32 // the key's slot, once resolved; noSlot before
}

// noSlot marks a storeRec whose slot is not resolved yet.
const noSlot = math.MaxUint32

func (s *Store[K]) getScratch(n int) *storeScratch[K] {
	sc, _ := s.scratch.Get().(*storeScratch[K])
	if sc == nil {
		sc = &storeScratch[K]{}
	}
	if cap(sc.hi) < n {
		sc.hi, sc.lo = make([]uint64, n), make([]uint64, n)
		sc.recs = make([]storeRec[K], n)
	}
	if cap(sc.counts) < len(s.stripes) {
		sc.counts = make([]int, len(s.stripes))
		sc.offs = make([]int, len(s.stripes))
	}
	return sc
}

// putScratch returns leased buffers, dropping string references (keys and
// gathered items) so the pool cannot pin a caller's batch in memory.
func (s *Store[K]) putScratch(sc *storeScratch[K]) {
	if s.isStr {
		clear(sc.recs)
	}
	clear(sc.bufS)
	s.scratch.Put(sc)
}

// runBuf returns the scratch's n-item gather buffer for item type T.
func runBuf[K StoreKey, T any](sc *storeScratch[K], n int) []T {
	p, ok := any(&sc.buf64).(*[]T)
	if !ok {
		p = any(&sc.bufS).(*[]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	return (*p)[:n]
}

// group routes every key with one batched hash pass and counting-sorts
// the records stripe-contiguously: on return
// sc.recs[offs[i]-counts[i]:offs[i]] are stripe i's records in original
// batch order, each carrying its router hash as the table tag.
func (s *Store[K]) group(sc *storeScratch[K], keys []K) (counts, offs []int) {
	n := len(keys)
	hi := sc.hi[:n]
	if s.isStr {
		strs := unsafe.Slice((*string)(unsafe.Pointer(&keys[0])), n)
		s.router.Sum128StringBatch(strs, hi, nil)
	} else {
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&keys[0])), n)
		s.router.Sum128Uint64Batch(words, hi, nil)
	}
	counts = sc.counts[:len(s.stripes)]
	clear(counts)
	for _, w := range hi {
		counts[s.stripeIndex(w)]++
	}
	offs = sc.offs[:len(s.stripes)]
	sum := 0
	for i, c := range counts {
		offs[i] = sum
		sum += c
	}
	recs := sc.recs[:n]
	for i, key := range keys {
		idx := s.stripeIndex(hi[i])
		recs[offs[idx]] = storeRec[K]{key: key, tag: hi[i], pos: i, slot: noSlot}
		offs[idx]++
	}
	return counts, offs
}

// storeRunBatchMin is the run length at which a key's run switches from
// per-item adds (the table probe already amortized per run) to the batch
// path: fused hashing through the stripe's shared scratch, which only
// pays off over a long run.
const storeRunBatchMin = 64

// AddBatch64 offers record i's item items[i] to key keys[i]'s counter,
// for the whole batch, and returns how many offers changed counter state.
// One batched hash pass routes every key, a counting sort groups records
// stripe-contiguously (original order preserved within each stripe), and
// each touched stripe's lock is taken once per batch. Within a stripe,
// maximal runs of adjacent same-key records share one table probe; an
// S-bitmap store hashes each stripe's items in one batch, and other kinds'
// long runs (≥64 records — exporter flushes, hot keys) take their
// BulkAdder path. Stripes
// are drained opportunistically (TryLock sweeps, like Sharded's batch
// path) so concurrent batches fan out across stripes instead of
// convoying; a sweep finding every pending stripe busy blocks on the
// first.
//
// State-equivalent to calling AddUint64(keys[i], items[i]) in slice
// order: records are never reordered within a key (or at all within a
// stripe), so the resulting counters are bit-identical. The store copies
// any string key it materializes, so callers may reuse the keys' backing
// memory (a decoded frame buffer) across calls. Steady-state batches
// allocate nothing. Safe for concurrent use. Panics if the slices'
// lengths differ.
func (s *Store[K]) AddBatch64(keys []K, items []uint64) int {
	return addBatch(s, ops64, s.resolveWidx(s.currentWidx(), len(keys)), keys, items)
}

// AddBatch64At is AddBatch64 with an explicit record timestamp shared by
// the whole batch (one frame = one capture instant): on a windowed store
// every record lands in ts's sub-window; an unwindowed store ignores ts.
// See AddAt for the timestamp contract.
func (s *Store[K]) AddBatch64At(ts time.Time, keys []K, items []uint64) int {
	return addBatch(s, ops64, s.resolveWidx(s.tsWidx(ts), len(keys)), keys, items)
}

// AddBatchString is AddBatch64 for string items; see AddBatch64 for the
// routing, equivalence, and concurrency contract.
func (s *Store[K]) AddBatchString(keys []K, items []string) int {
	return addBatch(s, opsString, s.resolveWidx(s.currentWidx(), len(keys)), keys, items)
}

// AddBatchStringAt is AddBatchString with an explicit record timestamp
// shared by the whole batch; see AddBatch64At.
func (s *Store[K]) AddBatchStringAt(ts time.Time, keys []K, items []string) int {
	return addBatch(s, opsString, s.resolveWidx(s.tsWidx(ts), len(keys)), keys, items)
}

func addBatch[K StoreKey, T any](s *Store[K], ops *itemOps[T], widx int64, keys []K, items []T) int {
	if len(keys) != len(items) {
		panic(fmt.Sprintf("sbitmap: Store.%s with %d keys and %d items", ops.method, len(keys), len(items)))
	}
	if len(keys) == 0 {
		return 0
	}
	sc := s.getScratch(len(keys))
	defer s.putScratch(sc)
	counts, offs := s.group(sc, keys)
	changed, pending := 0, 0
	for _, c := range counts {
		if c > 0 {
			pending++
		}
	}
	drain := func(i int) { // stripe i locked
		st := &s.stripes[i]
		changed += ingestLocked(s, ops, st, sc, offs[i]-counts[i], offs[i], items, widx)
		st.mu.Unlock()
		counts[i] = 0
		pending--
	}
	for pending > 0 {
		busy, progressed := -1, false
		for i, c := range counts {
			if c == 0 {
				continue
			}
			if s.stripes[i].mu.TryLock() {
				drain(i)
				progressed = true
			} else if busy < 0 {
				busy = i
			}
		}
		if !progressed {
			s.stripes[busy].mu.Lock()
			drain(busy)
		}
	}
	return changed
}

// ingestLocked feeds one stripe's grouped records to their counters,
// stripe locked: each maximal run of adjacent same-key records costs one
// table probe, then per-item adds below storeRunBatchMin or the batch
// path at or above it. S-bitmap slots take ingestSlotsLocked instead.
func ingestLocked[K StoreKey, T any](s *Store[K], ops *itemOps[T], st *storeStripe[K], sc *storeScratch[K], start, end int, items []T, widx int64) int {
	s.touchLocked(st)
	if s.sh != nil {
		return ingestSlotsLocked(s, ops, st, sc, start, end, items)
	}
	seg := sc.recs[start:end]
	changed := 0
	for j := 0; j < len(seg); {
		run := seg[j:runEnd(seg, j)]
		j += len(run)
		c := s.slotCounter(st, s.slotOf(st, run[0].tag, run[0].key), widx)
		if len(run) >= storeRunBatchMin {
			buf := runBuf[K, T](sc, len(run))
			for i, q := range run {
				buf[i] = items[q.pos]
			}
			if sb, ok := c.(*SBitmap); ok {
				changed += ops.sketch(&sb.sk, &st.scr, buf) // a ring's sub-window
			} else {
				changed += ops.ctrs(c, buf)
			}
			continue
		}
		for _, q := range run {
			if ops.ctr(c, items[q.pos]) {
				changed++
			}
		}
	}
	return changed
}

// ingestSlotsLocked is ingestLocked for S-bitmap slots, in four passes
// over the stripe's records: hash every item in one batch; find each
// run's candidate slot by tag alone; touch each candidate's record line
// (key words and sketch header) and every record's bitmap word
// (Go has no prefetch instruction: a load whose value is discarded stands
// in for one); then run Algorithm 2 on the slot states — one hash and one
// bit probe per record, with no interface dispatch, once the key is
// confirmed in the cached record. Each pass issues independent loads, so
// one record's cache misses overlap with the next records' instead of
// queueing behind them: at a working set past the caches a miss costs
// more than all of Algorithm 2's arithmetic. Keys materialize in the last
// pass, which also resolves every run itself when eviction could free a
// slot found earlier.
func ingestSlotsLocked[K StoreKey, T any](s *Store[K], ops *itemOps[T], st *storeStripe[K], sc *storeScratch[K], start, end int, items []T) int {
	seg := sc.recs[start:end]
	buf := runBuf[K, T](sc, len(seg))
	for i, r := range seg {
		buf[i] = items[r.pos]
	}
	hi, lo := sc.hi[start:end], sc.lo[start:end] // the router hashes are spent
	ops.hash(s.sh.Hasher(), buf, hi, lo)
	if s.limit == 0 {
		for j := 0; j < len(seg); j = runEnd(seg, j) {
			if slot, ok := st.candidate(seg[j].tag); ok {
				seg[j].slot = slot
			}
		}
		var touch uint64
		for j := 0; j < len(seg); {
			k := runEnd(seg, j)
			if seg[j].slot != noSlot {
				rec := s.rec(st, seg[j].slot)
				touch ^= rec[0] // the key words and the sketch header
				for _, h := range hi[j:k] {
					touch ^= rec[s.kw+s.sh.ProbeWord(h)]
				}
			}
			j = k
		}
		st.touch = touch
	}
	changed := 0
	for j := 0; j < len(seg); {
		k := runEnd(seg, j)
		slot := seg[j].slot
		if slot == noSlot || !s.keyIs(st, slot, seg[j].key) {
			slot = s.slotOf(st, seg[j].tag, seg[j].key)
		}
		state := s.stateOf(st, slot)
		for i := j; i < k; i++ {
			if s.sh.Insert(state, hi[i], lo[i]) {
				changed++
			}
		}
		j = k
	}
	return changed
}

// runEnd returns the end of the run of same-key records starting at j.
func runEnd[K StoreKey](seg []storeRec[K], j int) int {
	k := j + 1
	for k < len(seg) && seg[k].tag == seg[j].tag && seg[k].key == seg[j].key {
		k++
	}
	return k
}

// estimateAt returns a live slot's estimate.
func (s *Store[K]) estimateAt(st *storeStripe[K], slot uint32) float64 {
	if s.sh != nil {
		return s.sh.Estimate(s.stateOf(st, slot))
	}
	return st.ctrs[slot].Estimate()
}

// Estimate returns key's distinct-count estimate; ok is false if the key
// has never been seen (or was evicted). Safe for concurrent use.
func (s *Store[K]) Estimate(key K) (estimate float64, ok bool) {
	tag := s.hashKey(key)
	st := &s.stripes[s.stripeIndex(tag)]
	st.mu.Lock()
	slot, ok := s.lookup(st, tag, key)
	if ok {
		estimate = s.estimateAt(st, slot)
	}
	st.mu.Unlock()
	return estimate, ok
}

// EstimateBatch answers Estimate for a whole batch of keys in one routed
// pass: out[i], ok[i] = Estimate(keys[i]). Keys are routed with one
// batched hash pass and grouped stripe-contiguously (the ingest path's
// counting sort), so each touched stripe's lock is taken once per batch
// instead of once per key. Duplicate keys are answered independently.
// The point reads are per-stripe consistent, not globally atomic — the
// multi-key read of a dashboard or rules evaluator, not a snapshot. Safe
// for concurrent use. Panics if the slices' lengths differ.
func (s *Store[K]) EstimateBatch(keys []K, out []float64, ok []bool) {
	if len(keys) != len(out) || len(keys) != len(ok) {
		panic(fmt.Sprintf("sbitmap: Store.EstimateBatch with %d keys, %d out, %d ok",
			len(keys), len(out), len(ok)))
	}
	if len(keys) == 0 {
		return
	}
	sc := s.getScratch(len(keys))
	defer s.putScratch(sc)
	counts, offs := s.group(sc, keys)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		st := &s.stripes[i]
		st.mu.Lock()
		for _, rec := range sc.recs[offs[i]-n : offs[i]] {
			slot, hit := s.lookup(st, rec.tag, rec.key)
			ok[rec.pos], out[rec.pos] = hit, 0
			if hit {
				out[rec.pos] = s.estimateAt(st, slot)
			}
		}
		st.mu.Unlock()
	}
}

// WindowEstimate is EstimateWindow's answer: the distinct-count estimate
// over the covered interval [Start, End), plus how it was produced.
type WindowEstimate struct {
	// Estimate is the distinct-count estimate over the covered interval.
	Estimate float64
	// Windows is how many live sub-window sketches contributed (at most
	// ceil(span/width); fewer when some covered sub-windows saw no
	// records for the key).
	Windows int
	// Start and End bound the covered interval, derived from the
	// watermark: [Start, End) spans the covering sub-windows, the newest
	// of which (the watermark window) may still be filling.
	Start, End time.Time
	// Tumbling marks the non-mergeable fallback: the base kind (the
	// paper's S-bitmap) cannot union sub-windows, so the estimate is the
	// last complete sub-window's — the paper's own "every minute
	// interval" reporting — regardless of the requested span.
	Tumbling bool
}

// EstimateWindow answers "how many distinct items did key see over the
// trailing span?" on a windowed store. The span is covered by
// n = ceil(span/width) sub-windows ending at the watermark (the newest,
// possibly still-filling sub-window any record has reached — queries
// never consult the wall clock); for Mergeable base kinds the covering
// sketches are unioned at query time, while the S-bitmap falls back to
// tumbling semantics (see WindowEstimate.Tumbling). ok is false if the
// key has never been seen (or was evicted). Errors: ErrNotWindowed when
// the store's spec has no windowed(...) modifier, ErrWindowSpan when
// span is non-positive or exceeds Spec.Retention. Safe for concurrent
// use.
func (s *Store[K]) EstimateWindow(key K, span time.Duration) (WindowEstimate, bool, error) {
	if s.win == nil {
		return WindowEstimate{}, false, ErrNotWindowed
	}
	n, err := s.win.coveringWindows(span)
	if err != nil {
		return WindowEstimate{}, false, err
	}
	wm := s.wm.Load()
	if wm == wmNone {
		wm = 0
	}
	var we WindowEstimate
	tag := s.hashKey(key)
	st := &s.stripes[s.stripeIndex(tag)]
	st.mu.Lock()
	slot, ok := s.lookup(st, tag, key)
	if ok {
		we, err = st.ctrs[slot].(*windowRing).estimateWindow(wm, n)
	}
	st.mu.Unlock()
	if err != nil {
		return WindowEstimate{}, false, err
	}
	we.Tumbling = !s.win.mergeable
	lo := wm - int64(n) + 1
	if we.Tumbling {
		we.Windows = 1
		lo, wm = wm-1, wm-1
	}
	we.Start = time.Unix(0, lo*s.win.width)
	we.End = time.Unix(0, (wm+1)*s.win.width)
	return we, ok, nil
}

// WindowState reports a windowed store's time position: the watermark
// sub-window index (the highest any ingested record has reached; the
// watermark window starts at watermark × Spec.Window on the unix epoch
// timeline) and the late-record count (records that arrived more than
// ring sub-windows behind the watermark and were folded into the
// watermark window). ok is false — and both values meaningless — for
// unwindowed stores, and watermark is wmNone's exported guise (a large
// negative number) before any record. A checkpointing server persists
// the watermark and restores it with SetWindowState; snapshot decode
// also re-derives it from ring contents, so the explicit hand-off only
// matters when the watermark window's keys were all removed. Late counts
// are process-lifetime, not persisted.
func (s *Store[K]) WindowState() (watermark, late int64, ok bool) {
	if s.win == nil {
		return 0, 0, false
	}
	return s.wm.Load(), s.late.Load(), true
}

// SetWindowState fast-forwards the watermark (it never moves backwards)
// and, when late is non-negative, seeds the late-record counter. Call
// before concurrent use; no-op on unwindowed stores.
func (s *Store[K]) SetWindowState(watermark, late int64) {
	if s.win == nil {
		return
	}
	if watermark != wmNone {
		s.advanceWatermark(watermark)
	}
	if late >= 0 {
		s.late.Store(late)
	}
}

// LateRecords returns how many records arrived more than ring
// sub-windows behind the watermark and were folded into the watermark
// window (0 for unwindowed stores). Process-lifetime, monotone.
func (s *Store[K]) LateRecords() int64 { return s.late.Load() }

// Len returns the number of live keys. Safe for concurrent use.
func (s *Store[K]) Len() int { return int(s.keys.Load()) }

// Remove deletes key and reports whether it was present; its slot is
// reused by a later key. The eviction hook does not fire — Remove is the
// caller's own policy, not the store's. Safe for concurrent use.
func (s *Store[K]) Remove(key K) bool {
	tag := s.hashKey(key)
	st := &s.stripes[s.stripeIndex(tag)]
	st.mu.Lock()
	slot, ok := s.lookup(st, tag, key)
	if ok {
		s.drop(st, st.cellOf(tag, slot))
	}
	st.mu.Unlock()
	return ok
}

// ForEach calls fn for every live key until fn returns false. Stripes are
// visited in order, keys within a stripe in slot order (unspecified). fn
// runs with the key's stripe locked: read the counter, do not mutate it,
// and do not call Store methods (self-deadlock). The counter is a live
// view of the key's state, valid until the key is removed or evicted.
// Keys materialized or evicted concurrently in not-yet-visited stripes
// may or may not be seen.
func (s *Store[K]) ForEach(fn func(key K, c Counter) bool) { s.scan(0, fn) }

// ForEachDirty calls fn for every live key in every stripe mutated at or
// after generation since, and returns the cut: the new generation that
// supersedes the scan. since = 0 visits every stripe; since = a previous
// cut visits only the stripes written in between, so a periodic scanner
// (the standing-query evaluator) pays in proportion to write activity,
// not total key count. The generation protocol is MarshalStripes':
// the generation advances before the scan, so a mutation racing the scan
// stamps >= cut and is seen by the next pass even if this one missed it.
// fn runs under the stripe lock with ForEach's contract: read the
// counter, do not mutate it, do not call Store methods (self-deadlock).
// fn returning false stops the scan early; the returned cut is still
// valid (skipped stripes keep their stamps and stay dirty). Multiple
// scanners with independent since values coexist with each other and
// with checkpointing — each consumer only ever compares stamps against
// its own cuts.
func (s *Store[K]) ForEachDirty(since uint64, fn func(key K, c Counter) bool) (cut uint64) {
	cut = s.gen.Add(1)
	s.scan(since, fn)
	return cut
}

// scan calls fn, in stripe and then slot order, for every live key of the
// stripes stamped at or after since, until fn returns false.
func (s *Store[K]) scan(since uint64, fn func(key K, c Counter) bool) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		more := true
		for slot, f := range st.flags {
			if st.modGen < since || !more {
				break
			}
			more = f&slotLive == 0 || fn(s.keyOf(st, uint32(slot)), s.counterAt(st, uint32(slot)))
		}
		st.mu.Unlock()
		if !more {
			return
		}
	}
}

// KeyEstimate is one TopK entry.
type KeyEstimate[K StoreKey] struct {
	Key      K
	Estimate float64
}

// TopK returns the k keys with the largest estimates, in descending
// order (ties broken by ascending key) — the heavy-hitter query of
// per-flow monitoring. It holds one stripe lock at a time and maintains a
// k-sized heap, so cost is O(keys·log k) with O(k) extra memory. The
// result is a consistent ranking only at a quiescent point.
func (s *Store[K]) TopK(k int) []KeyEstimate[K] {
	if k <= 0 {
		return nil
	}
	// Min-heap of the best k seen so far; heap[0] is the current cutoff.
	heap := make([]KeyEstimate[K], 0, k)
	worse := func(a, b KeyEstimate[K]) bool {
		return a.Estimate < b.Estimate || (a.Estimate == b.Estimate && a.Key > b.Key)
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < len(heap) && worse(heap[l], heap[min]) {
				min = l
			}
			if r < len(heap) && worse(heap[r], heap[min]) {
				min = r
			}
			if min == i {
				return
			}
			heap[i], heap[min] = heap[min], heap[i]
			i = min
		}
	}
	s.ForEach(func(key K, c Counter) bool {
		e := KeyEstimate[K]{Key: key, Estimate: c.Estimate()}
		if len(heap) < k {
			heap = append(heap, e)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
		} else if worse(heap[0], e) {
			heap[0] = e
			siftDown(0)
		}
		return true
	})
	sort.Slice(heap, func(i, j int) bool { return worse(heap[j], heap[i]) })
	return heap
}

// SizeBits returns the summed summary memory of every live counter (the
// paper's accounting). Safe for concurrent use; a consistent total only
// at a quiescent point.
func (s *Store[K]) SizeBits() int {
	total := 0
	s.ForEach(func(_ K, c Counter) bool {
		total += c.SizeBits()
		return true
	})
	return total
}

// Footprint returns the store's resident process memory in bytes, by
// capacity: the Store and its stripes, each stripe's key table, slot
// metadata, key arena and hash scratch, the S-bitmap state and view slabs
// with their shared Shape (or, for other kinds, every counter's own
// footprint). Safe for concurrent use; one stripe is locked at a time.
func (s *Store[K]) Footprint() int {
	total := int(unsafe.Sizeof(*s)+unsafe.Sizeof(*s.router)) + int(unsafe.Sizeof(storeStripe[K]{}))*cap(s.stripes)
	if s.sh != nil {
		total += s.sh.Footprint()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		total += st.scr.Footprint() + int(unsafe.Sizeof(storeEntry{}))*cap(st.tab) +
			cap(st.flags) + 4*cap(st.free) + cap(st.arena) + int(unsafe.Sizeof(Counter(nil)))*cap(st.ctrs) +
			int(unsafe.Sizeof([]byte(nil)))*(cap(st.recs)+cap(st.views))
		for _, c := range st.recs {
			total += 8 * cap(c)
		}
		for _, v := range st.views {
			total += int(unsafe.Sizeof(SBitmap{})) * cap(v)
		}
		for _, c := range st.ctrs {
			if c != nil {
				total += c.Footprint()
			}
		}
		st.mu.Unlock()
	}
	return total
}

// Reset drops every key and its counter; the eviction hook does not
// fire. Not atomic with respect to concurrent Adds.
func (s *Store[K]) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		s.keys.Add(-int64(len(st.flags) - len(st.free)))
		st.tab, st.recs, st.views, st.ctrs = nil, nil, nil, nil
		st.flags, st.free, st.hand, st.arena, st.dead = nil, nil, 0, nil, 0
		s.touchLocked(st)
		st.mu.Unlock()
	}
}

// Merge folds other's per-key counters into s by union merge: for every
// key in other, s's counter (materialized if absent, under the usual
// eviction policy) absorbs other's. Both stores must be built from the
// same Spec, and the Spec's kind must implement Mergeable — see
// ErrNotMergeable for which kinds do. other must be quiescent for the
// duration; s may be ingesting concurrently.
func (s *Store[K]) Merge(other *Store[K]) error {
	if other == nil || s == other {
		return nil
	}
	if s.spec != other.spec {
		return fmt.Errorf("sbitmap: merge of stores with different specs (%s vs %s)", s.spec, other.spec)
	}
	// Mergeability is a property of the shared spec; refuse up front so a
	// non-mergeable kind cannot leave s half-mutated (or littered with
	// empty adopted counters). For windowed stores the question is about
	// the base kind — every ring merges structurally, but only by merging
	// same-sub-window sketches.
	if !s.mergeable {
		if s.win != nil {
			return fmt.Errorf("sbitmap: windowed store of kind %s: %w", s.spec.Kind, ErrNotMergeable)
		}
		return fmt.Errorf("sbitmap: store of kind %s: %w", s.spec.Kind, ErrNotMergeable)
	}
	if other.win != nil {
		// Adopt the source's time position first so merged-in sub-windows
		// are never beyond s's watermark.
		if owm := other.wm.Load(); owm != wmNone {
			s.advanceWatermark(owm)
		}
	}
	// Collected first, so the two stores' locks are never held pairwise.
	var keys []K
	var srcs []Counter
	other.ForEach(func(k K, c Counter) bool {
		keys, srcs = append(keys, k), append(srcs, c)
		return true
	})
	for j, key := range keys {
		tag := s.hashKey(key)
		st := &s.stripes[s.stripeIndex(tag)]
		st.mu.Lock()
		s.touchLocked(st)
		err := Merge(s.counterAt(st, s.slotOf(st, tag, key)), srcs[j])
		st.mu.Unlock()
		if err != nil {
			return fmt.Errorf("sbitmap: store key %v: %w", key, err)
		}
	}
	return nil
}

// Store snapshot container: the envelope (kindStore) frames a key-typed
// sequence of per-key counter envelopes —
//
//	[0]    key type (1 = uint64, 2 = string)
//	[1:3]  spec length   (little-endian uint16)
//	       spec string   (canonical Spec.String form)
//	[..]   watermark sub-window index (int64 LE) — present only when the
//	       spec is windowed, so pre-window snapshots decode unchanged
//	[..]   key count     (little-endian uint64)
//	per key:
//	       uint64 key    (8 bytes LE)            — key type 1
//	       length-prefixed key bytes (uint32 LE) — key type 2
//	       counter blob length (uint32 LE), counter envelope
//	       (a kindWindowRing envelope when the spec is windowed)
//
// The spec string carries the seed and hash family, so a restored store
// keeps counting without extra options — unlike bare counter snapshots,
// whose hash configuration is supplied out of band. It also carries the
// windowed(...) modifier, which is what gates the watermark field and
// the per-key blob shape: old snapshots never have windowed specs, so
// the extension is backward compatible in both directions.
const (
	storeKeyUint64 = 1
	storeKeyString = 2
)

func storeKeyCode[K StoreKey]() byte {
	if keyIsString[K]() {
		return storeKeyString
	}
	return storeKeyUint64
}

// MarshalBinary implements encoding.BinaryMarshaler: the whole store —
// spec and every (key, counter) pair — in one framed container.
//
// Safe under concurrent writers: each stripe is encoded while holding its
// lock, so every per-key counter blob is internally consistent (never a
// torn read of sketch state) and the snapshot always decodes. Stripes are
// locked one at a time, so the snapshot as a whole is a per-stripe
// point-in-time view: a key ingested concurrently in a not-yet-visited
// stripe may be included, one in an already-visited stripe will not.
// Marshal at a quiescent point for a globally consistent cut (the
// checkpointing server does exactly this per stripe, live).
func (s *Store[K]) MarshalBinary() ([]byte, error) {
	spec := s.spec.String()
	if len(spec) > 0xffff {
		return nil, fmt.Errorf("sbitmap: store spec string %d bytes long", len(spec))
	}
	payload := make([]byte, 0, 16+len(spec)+32*s.Len())
	payload = append(payload, storeKeyCode[K]())
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(spec)))
	payload = append(payload, spec...)
	if s.win != nil {
		payload = binary.LittleEndian.AppendUint64(payload, uint64(s.wm.Load()))
	}
	countAt := len(payload)
	payload = binary.LittleEndian.AppendUint64(payload, 0) // patched below
	count := uint64(0)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		var err error
		payload, count, err = s.appendStripeLocked(payload, st, count)
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint64(payload[countAt:], count)
	return appendEnvelope(kindStore, payload), nil
}

// appendStripeLocked appends every live slot's (key, counter) pair in the
// container's per-key layout, in slot order — shared by the whole-store
// snapshot (MarshalBinary) and the per-stripe snapshots (MarshalStripes)
// — and adds the pairs to count. S-bitmap state is encoded straight from
// the slab.
func (s *Store[K]) appendStripeLocked(payload []byte, st *storeStripe[K], count uint64) ([]byte, uint64, error) {
	for slot, f := range st.flags {
		if f&slotLive == 0 {
			continue
		}
		key := s.keyOf(st, uint32(slot))
		if s.isStr {
			ks := keyString(key)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ks)))
			payload = append(payload, ks...)
		} else {
			payload = binary.LittleEndian.AppendUint64(payload, keyWord(key))
		}
		at := len(payload)
		payload = append(payload, 0, 0, 0, 0) // blob length, patched below
		if s.sh != nil {
			payload = appendEnvelopeHeader(payload, KindSBitmap)
			payload = s.sh.AppendBinary(payload, s.stateOf(st, uint32(slot)))
		} else {
			blob, err := Marshal(st.ctrs[slot])
			if err != nil {
				return nil, 0, fmt.Errorf("sbitmap: store key %v: %w", key, err)
			}
			payload = append(payload, blob...)
		}
		binary.LittleEndian.PutUint32(payload[at:], uint32(len(payload)-at-4))
		count++
	}
	return payload, count, nil
}

// UnmarshalStore reconstructs a Store serialized by MarshalBinary. K must
// match the snapshot's key type. The snapshot's spec string restores the
// seed and hash family, so the store continues counting immediately; opts
// re-apply deployment shape (stripes, key limit), which snapshots do not
// record. A WithMaxKeys limit smaller than the snapshot's key count is an
// error — restoring never silently drops keys — and so is a per-key
// counter of another kind or dimensions than the spec (ErrSpecMismatch).
func UnmarshalStore[K StoreKey](data []byte, opts ...StoreOption) (*Store[K], error) {
	payload, err := payloadOfKind(data, kindStore)
	if err != nil {
		return nil, err
	}
	if len(payload) < 11 {
		return nil, fmt.Errorf("%w: store header", ErrTruncated)
	}
	keyCode := payload[0]
	if keyCode != storeKeyCode[K]() {
		kinds := map[byte]string{storeKeyUint64: "uint64", storeKeyString: "string"}
		return nil, fmt.Errorf("sbitmap: store snapshot has %s keys, not %s",
			kinds[keyCode], kinds[storeKeyCode[K]()])
	}
	specLen := int(binary.LittleEndian.Uint16(payload[1:]))
	payload = payload[3:]
	if len(payload) < specLen+8 {
		return nil, fmt.Errorf("%w: store spec", ErrTruncated)
	}
	spec, err := ParseSpec(string(payload[:specLen]))
	if err != nil {
		return nil, fmt.Errorf("sbitmap: store snapshot spec: %w", err)
	}
	payload = payload[specLen:]
	watermark := int64(wmNone)
	if spec.Windowed() {
		if len(payload) < 16 {
			return nil, fmt.Errorf("%w: store watermark", ErrTruncated)
		}
		watermark = int64(binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	count := binary.LittleEndian.Uint64(payload)
	payload = payload[8:]
	s, err := NewStore[K](spec, opts...)
	if err != nil {
		return nil, err
	}
	if watermark != wmNone {
		s.wm.Store(watermark)
	}
	if s.limit > 0 && count > uint64(s.limit) {
		// A restore never silently drops keys; shrinking is the caller's
		// explicit decision (restore unbounded, then Remove or re-limit).
		return nil, fmt.Errorf("sbitmap: store snapshot holds %d keys, above the WithMaxKeys limit %d", count, s.limit)
	}
	if err := s.restoreEntries(payload, count); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeEntry splits one (key, counter blob) pair off payload — the
// inverse of appendStripeLocked's framing — and returns the rest. A
// string key aliases payload. i labels truncation errors.
func decodeEntry[K StoreKey](payload []byte, i uint64) (key K, blob, rest []byte, err error) {
	if keyIsString[K]() {
		if len(payload) < 4 {
			return key, nil, nil, fmt.Errorf("%w: store key %d header", ErrTruncated, i)
		}
		klen := int(binary.LittleEndian.Uint32(payload))
		payload = payload[4:]
		if klen > len(payload) {
			return key, nil, nil, fmt.Errorf("%w: store key %d", ErrTruncated, i)
		}
		key = keyFromString[K](unsafe.String(unsafe.SliceData(payload), klen))
		payload = payload[klen:]
	} else {
		if len(payload) < 8 {
			return key, nil, nil, fmt.Errorf("%w: store key %d", ErrTruncated, i)
		}
		key = keyFromWord[K](binary.LittleEndian.Uint64(payload))
		payload = payload[8:]
	}
	if len(payload) < 4 {
		return key, nil, nil, fmt.Errorf("%w: store counter %d header", ErrTruncated, i)
	}
	blen := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if blen > len(payload) {
		return key, nil, nil, fmt.Errorf("%w: store counter %d", ErrTruncated, i)
	}
	return key, payload[:blen], payload[blen:], nil
}

// restoreEntry installs one decoded (key, counter blob) pair. S-bitmap
// state decodes straight into a fresh slot — no per-key Config, hasher or
// heap object; other blobs decode through decodeBase. Either must
// match the spec's kind and dimensions (ErrSpecMismatch), and a key
// already present is an error. On a windowed store it returns the ring's
// newest sub-window (wmNone otherwise): the caller advances the watermark
// to it, so restores re-derive the time position from snapshot contents.
func (s *Store[K]) restoreEntry(key K, blob []byte) (maxW int64, err error) {
	maxW = wmNone
	var c Counter
	if s.win != nil {
		r, err := unmarshalWindowRing(s.win, blob, s.decodeBase)
		if err != nil {
			return maxW, fmt.Errorf("sbitmap: store key %v: %w", key, corrupt(err))
		}
		c, maxW = r, r.maxWidx()
	} else if s.sh == nil {
		if c, err = s.decodeBase(blob); err != nil {
			return maxW, fmt.Errorf("sbitmap: store key %v: %w", key, corrupt(err))
		}
	}
	tag := s.hashKey(key)
	st := &s.stripes[s.stripeIndex(tag)]
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, dup := s.lookup(st, tag, key); dup {
		return maxW, fmt.Errorf("%w: store snapshot repeats key %v", ErrCorrupt, key)
	}
	slot := s.newSlot(st, c)
	if s.sh != nil {
		if err := s.decodeSlot(s.stateOf(st, slot), blob); err != nil {
			s.release(st, slot)
			return maxW, fmt.Errorf("sbitmap: store key %v: %w", key, corrupt(err))
		}
	}
	s.insert(st, tag, key, slot)
	s.keys.Add(1)
	return maxW, nil
}

// decodeSlot decodes an S-bitmap counter blob into slot state.
func (s *Store[K]) decodeSlot(state []uint64, blob []byte) error {
	kind, payload, err := openEnvelope(blob)
	if err != nil {
		return err
	}
	if kind != KindSBitmap {
		return fmt.Errorf("%w: a %s counter under spec %s", ErrSpecMismatch, kind, s.spec)
	}
	if err := s.sh.Decode(state, payload); errors.Is(err, core.ErrShapeMismatch) {
		return fmt.Errorf("%w: %v (spec %s)", ErrSpecMismatch, err, s.spec)
	} else if err != nil {
		return fmt.Errorf("sbitmap: %w", err)
	}
	return nil
}

// corrupt marks a counter decode error ErrCorrupt unless it names a
// mismatch with the spec.
func corrupt(err error) error {
	if errors.Is(err, ErrSpecMismatch) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// decodeBase restores one base-spec counter blob, which must match the
// spec's kind and dimensions: reset, it must snapshot exactly like a
// fresh counter of the spec.
func (s *Store[K]) decodeBase(blob []byte) (Counter, error) {
	c, err := Unmarshal(blob, s.specOpts...)
	if err != nil {
		return nil, err
	}
	if sb, ok := c.(*SBitmap); ok && sb.sk.SameShape(s.baseShape) {
		return c, nil // the windowed S-bitmap's sub-windows: no second decode
	}
	probe, _ := Unmarshal(blob, s.specOpts...)
	probe.Reset()
	if pb, err := Marshal(probe); err != nil || !bytes.Equal(pb, s.emptyBlob) {
		return nil, fmt.Errorf("%w: the counter's kind or dimensions differ from spec %s", ErrSpecMismatch, s.spec.base())
	}
	return c, nil
}

// Per-stripe snapshot format (the unit of an incremental checkpoint):
//
//	[0:4]  magic "SBS1"
//	[4]    version (1)
//	[5]    key type (1 = uint64, 2 = string)
//	[6:14] key count (little-endian uint64)
//	per key: as in the whole-store container (appendStoreEntry)
//
// Unlike the whole-store container there is no spec: a stripe snapshot is
// only meaningful under the checkpoint manifest that names it, and the
// manifest carries the spec once for all stripes.
const (
	stripeSnapMagic   = "SBS1"
	stripeSnapVersion = 1
	stripeSnapHeader  = 14
)

// StripeSnapshotKeys reports how many keys a MarshalStripes blob holds,
// without decoding it — a checkpointer uses this to skip durably writing
// empty stripes.
func StripeSnapshotKeys(blob []byte) (int, error) {
	if len(blob) < stripeSnapHeader || string(blob[:4]) != stripeSnapMagic {
		return 0, fmt.Errorf("sbitmap: not a stripe snapshot")
	}
	return int(binary.LittleEndian.Uint64(blob[6:])), nil
}

// Generation returns the current dirty-tracking generation. Mutations
// stamp their stripe with this value; MarshalStripes(g) encodes exactly
// the stripes stamped at or after g.
func (s *Store[K]) Generation() uint64 { return s.gen.Load() }

// SetGeneration fast-forwards the dirty-tracking generation, so a store
// rebuilt from a checkpoint resumes the writer's epoch: stripes restored
// from the checkpoint stay clean relative to it, and the next incremental
// checkpoint (since = the manifest's generation) captures only what was
// mutated afterwards. Call before concurrent use.
func (s *Store[K]) SetGeneration(g uint64) { s.gen.Store(g) }

// StripeCount returns the number of lock stripes.
func (s *Store[K]) StripeCount() int { return len(s.stripes) }

// DirtyStripes counts the stripes mutated at or after generation since
// (every stripe when since is 0). Safe for concurrent use.
func (s *Store[K]) DirtyStripes(since uint64) int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.modGen >= since {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// MarshalStripes encodes every stripe mutated at or after generation
// since into its own snapshot blob, keyed by stripe index, and returns
// the cut: the new generation that supersedes the snapshot. since = 0
// takes a full checkpoint (every stripe, touched or not); since = a
// previous cut takes an incremental one whose cost scales with how many
// stripes were written since, not with total key count.
//
// The protocol: mutations stamp their stripe with Generation();
// MarshalStripes advances the generation first, so a mutation landing
// after the cut stamps >= cut and is seen by the next incremental pass
// even if it raced this one. Each stripe is encoded under its own lock
// (internally consistent), but for a globally exact cut — required when
// the snapshot is paired with a log replayed from the cut — the caller
// must quiesce writers across the call, as the checkpointing server's
// ingest gate does.
func (s *Store[K]) MarshalStripes(since uint64) (blobs map[int][]byte, cut uint64, err error) {
	cut = s.gen.Add(1)
	blobs = make(map[int][]byte)
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		if st.modGen < since {
			st.mu.Unlock()
			continue
		}
		live := len(st.flags) - len(st.free)
		payload := make([]byte, 0, stripeSnapHeader+live*(24+8*s.stride))
		payload = append(payload, stripeSnapMagic...)
		payload = append(payload, stripeSnapVersion, storeKeyCode[K]())
		payload = binary.LittleEndian.AppendUint64(payload, uint64(live))
		payload, _, err = s.appendStripeLocked(payload, st, 0)
		st.mu.Unlock()
		if err != nil {
			return nil, 0, err
		}
		blobs[i] = payload
	}
	return blobs, cut, nil
}

// RestoreStripe decodes one MarshalStripes blob into the store,
// re-hashing every key onto the store's own stripes — the blob's origin
// stripe index is irrelevant, so a snapshot restores correctly even if
// the stripe count changed across restarts (same spec ⇒ same key
// placement within a stripe count). Returns the number of keys restored.
// Keys already present are an error (stripe snapshots from one
// checkpoint are disjoint by construction), as are exceeding a
// WithMaxKeys limit — restoring never silently drops keys — and a
// counter of another kind or dimensions than the spec (ErrSpecMismatch).
// A blob that fails restores nothing.
func (s *Store[K]) RestoreStripe(blob []byte) (int, error) {
	if len(blob) < stripeSnapHeader {
		return 0, fmt.Errorf("%w: stripe snapshot header", ErrTruncated)
	}
	if string(blob[:4]) != stripeSnapMagic {
		return 0, fmt.Errorf("%w: stripe snapshot magic %q, want %q", ErrBadMagic, blob[:4], stripeSnapMagic)
	}
	if blob[4] != stripeSnapVersion {
		return 0, fmt.Errorf("%w: stripe snapshot version %d, want %d", ErrUnsupportedVersion, blob[4], stripeSnapVersion)
	}
	if blob[5] != storeKeyCode[K]() {
		kinds := map[byte]string{storeKeyUint64: "uint64", storeKeyString: "string"}
		return 0, fmt.Errorf("%w: stripe snapshot has %s keys, not %s",
			ErrKindMismatch, kinds[blob[5]], kinds[storeKeyCode[K]()])
	}
	count := binary.LittleEndian.Uint64(blob[6:])
	if err := s.restoreEntries(blob[stripeSnapHeader:], count); err != nil {
		return 0, err
	}
	return int(count), nil
}

// restoreEntries restores the count (key, counter) entries of payload —
// all of them or, on any failure, none: the entries restored before it
// are removed again. Once all succeed the watermark advances to the
// newest restored sub-window.
func (s *Store[K]) restoreEntries(payload []byte, count uint64) error {
	var err error
	restored, maxW, rest := uint64(0), int64(wmNone), payload
	for ; restored < count; restored++ {
		key, blob, next, derr := decodeEntry[K](rest, restored)
		if err = derr; err == nil && s.limit > 0 && s.keys.Load() >= int64(s.limit) {
			err = fmt.Errorf("sbitmap: restore exceeds the WithMaxKeys limit %d", s.limit)
		}
		var w int64
		if err == nil {
			w, err = s.restoreEntry(key, blob)
		}
		if err != nil {
			break
		}
		maxW, rest = max(maxW, w), next
	}
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d trailing bytes after the last entry", ErrCorrupt, len(rest))
	}
	if err != nil {
		for i := uint64(0); i < restored; i++ {
			key, _, next, _ := decodeEntry[K](payload, i)
			s.Remove(key)
			payload = next
		}
		return err
	}
	if maxW != wmNone {
		s.advanceWatermark(maxW)
	}
	return nil
}
