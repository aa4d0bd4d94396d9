package sbitmap

// Sliding-window keyed counting: the per-key machinery behind the
// "/windowed(width=…,ring=…)" Spec modifier. A windowed Store
// materializes, per key, a windowRing — a fixed ring of sub-window
// sketches, each counting the records whose timestamps fall inside one
// width-sized interval of absolute time. Record timestamps are
// caller-supplied (never wall-clock), so replayed traces, WAL recovery,
// and twin stores fed the same records produce bit-identical state.
//
// Time is discretized into sub-window indices ("widx"): record ts lands
// in widx = floor(ts / width). Slot widx%ring holds that sub-window's
// sketch, so rotation is O(1) and in place — advancing into a new
// sub-window Resets whatever expired sketch occupied the slot instead
// of allocating. A Store-global watermark (the highest widx any record
// has reached) defines "now": queries cover the half-open past from the
// watermark backwards, and records more than ring sub-windows behind it
// have lost their slot — they fold into the watermark window and are
// surfaced via the Store's late-record counter.
//
// Queries merge on demand. For Mergeable kinds (HLL, LogLog, FM,
// LinearCount, MRBitmap, Exact) EstimateWindow unions the covering
// sub-window sketches into a scratch counter at query time. The paper's
// S-bitmap is deliberately not union-mergeable (see ErrNotMergeable),
// so windowed S-bitmap stores fall back to tumbling semantics: the
// estimate of the last *complete* sub-window, marked Tumbling in the
// result — exactly the paper's Section 7 deployment, which reports
// per-link spreads "every minute interval".

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

var (
	// ErrNotWindowed reports a window query against a Store whose Spec has
	// no windowed(...) modifier.
	ErrNotWindowed = errors.New("sbitmap: store is not windowed (spec has no windowed(...) modifier)")
	// ErrWindowSpan reports an EstimateWindow span that the retained
	// sub-windows cannot cover (non-positive, or beyond Spec.Retention).
	ErrWindowSpan = errors.New("sbitmap: window span")
)

// WindowWatermarkNone is the watermark WindowState reports before any
// record has been ingested into a windowed Store — callers compare
// against it to tell "no record yet" from a real sub-window index.
const WindowWatermarkNone = math.MinInt64

// wmNone marks a watermark (or ring slot) that has never seen a record.
const wmNone = WindowWatermarkNone

// windowShared is the per-Store window configuration every ring points
// at, so a ring costs one pointer beyond its slots.
type windowShared struct {
	width      int64 // sub-window width in nanoseconds, > 0
	ring       int   // slots per key, ≥ 1
	mergeable  bool  // base kind supports merge-on-query
	newCounter func() Counter
	wm         *atomic.Int64 // the Store's watermark sub-window index
}

// widthDur returns the sub-window width as a duration.
func (w *windowShared) widthDur() time.Duration { return time.Duration(w.width) }

// coveringWindows maps a query span onto the number of sub-windows that
// cover it: ceil(span/width), which must fit the ring.
func (w *windowShared) coveringWindows(span time.Duration) (int, error) {
	if span <= 0 {
		return 0, fmt.Errorf("%w %s is not positive", ErrWindowSpan, span)
	}
	n := int((int64(span) + w.width - 1) / w.width)
	if n > w.ring {
		return 0, fmt.Errorf("%w %s exceeds the retention %s (windowed(width=%s,ring=%d))",
			ErrWindowSpan, span, time.Duration(w.width*int64(w.ring)), w.widthDur(), w.ring)
	}
	return n, nil
}

// widxOf discretizes a unix-nanosecond timestamp into its sub-window
// index: floor division, so pre-epoch timestamps round down, not toward
// zero.
func widxOf(tsNanos, width int64) int64 {
	q := tsNanos / width
	if tsNanos < 0 && tsNanos%width != 0 {
		q--
	}
	return q
}

// ringSlot is one sub-window: the sketch plus the absolute sub-window
// index its contents belong to. c == nil until the slot is first used;
// widx == wmNone after a Reset. Rotation reuses c in place.
type ringSlot struct {
	widx int64
	c    Counter
}

// windowRing is a key's sub-window ring. All mutation happens under the
// key's stripe lock (the Store's usual contract); sh.wm is atomic so
// estimate paths may read the watermark without it.
type windowRing struct {
	sh    *windowShared
	slots []ringSlot
}

func newWindowRing(sh *windowShared) *windowRing {
	return &windowRing{sh: sh, slots: make([]ringSlot, sh.ring)}
}

// slot rotates the ring to sub-window widx and returns its sketch,
// allocating the slot's counter on first use and Resetting an expired
// occupant in place otherwise — the O(1), steady-state-alloc-free
// rotation. The caller has already clamped widx into the retention
// horizon (Store.resolveWidx), so an occupant with a different widx is
// always older.
func (r *windowRing) slot(widx int64) Counter {
	i := widx % int64(len(r.slots))
	if i < 0 {
		i += int64(len(r.slots))
	}
	sl := &r.slots[i]
	if sl.c == nil {
		sl.c = r.sh.newCounter()
		sl.widx = widx
	} else if sl.widx != widx {
		sl.c.Reset()
		sl.widx = widx
	}
	return sl.c
}

// cur returns the watermark sub-window's sketch (sub-window 0 before
// any record has carried a timestamp) — the target of the Counter
// interface's own Add methods.
func (r *windowRing) cur() Counter {
	wm := r.sh.wm.Load()
	if wm == wmNone {
		wm = 0
	}
	return r.slot(wm)
}

// estimateRange estimates the union of the live sub-windows with widx
// in [lo, hi]: zero slots estimate 0, one slot answers directly, more
// merge into a scratch counter. n reports how many sub-windows
// contributed.
func (r *windowRing) estimateRange(lo, hi int64) (est float64, n int, err error) {
	var dst Counter
	var single Counter
	for i := range r.slots {
		sl := &r.slots[i]
		if sl.c == nil || sl.widx < lo || sl.widx > hi {
			continue
		}
		n++
		switch n {
		case 1:
			single = sl.c
			continue
		case 2:
			dst = r.sh.newCounter()
			if err := Merge(dst, single); err != nil {
				return 0, n, err
			}
		}
		if err := Merge(dst, sl.c); err != nil {
			return 0, n, err
		}
	}
	switch n {
	case 0:
		return 0, 0, nil
	case 1:
		return single.Estimate(), 1, nil
	default:
		return dst.Estimate(), n, nil
	}
}

// estimateWindow answers a window query given the Store watermark wm
// and the covering sub-window count n (both resolved by the Store):
// merge-on-query over (wm−n, wm] for mergeable kinds, the last complete
// sub-window (wm−1) for the tumbling fallback. Start/End are filled in
// by the Store.
func (r *windowRing) estimateWindow(wm int64, n int) (WindowEstimate, error) {
	if !r.sh.mergeable {
		est, _, err := r.estimateRange(wm-1, wm-1)
		return WindowEstimate{Estimate: est, Windows: 1, Tumbling: true}, err
	}
	est, merged, err := r.estimateRange(wm-int64(n)+1, wm)
	return WindowEstimate{Estimate: est, Windows: merged}, err
}

// Add implements Counter: records without timestamps land in the
// watermark sub-window. The Store's ingest paths never call these — they
// rotate via slot directly — but the ring is a well-behaved Counter for
// code that reaches one through ForEach or a snapshot.
func (r *windowRing) Add(item []byte) bool       { return r.cur().Add(item) }
func (r *windowRing) AddUint64(item uint64) bool { return r.cur().AddUint64(item) }
func (r *windowRing) AddString(item string) bool { return r.cur().AddString(item) }

// Estimate implements Counter: the full-retention estimate — the union
// of every in-horizon sub-window for mergeable kinds, the last complete
// sub-window under the tumbling fallback. TopK on a windowed store
// therefore ranks keys by their current sliding-window spread.
func (r *windowRing) Estimate() float64 {
	wm := r.sh.wm.Load()
	if wm == wmNone {
		wm = 0
	}
	var est float64
	if r.sh.mergeable {
		est, _, _ = r.estimateRange(wm-int64(len(r.slots))+1, wm)
	} else {
		est, _, _ = r.estimateRange(wm-1, wm-1)
	}
	return est
}

// SizeBits implements Counter: the summed summary bits of every
// materialized sub-window sketch.
func (r *windowRing) SizeBits() int {
	total := 0
	for i := range r.slots {
		if r.slots[i].c != nil {
			total += r.slots[i].c.SizeBits()
		}
	}
	return total
}

// Footprint implements Counter.
func (r *windowRing) Footprint() int {
	total := int(unsafe.Sizeof(*r)) + cap(r.slots)*int(unsafe.Sizeof(ringSlot{}))
	for i := range r.slots {
		if r.slots[i].c != nil {
			total += r.slots[i].c.Footprint()
		}
	}
	return total
}

// Reset implements Counter: every sub-window empties; allocated slot
// counters are kept for reuse.
func (r *windowRing) Reset() {
	for i := range r.slots {
		if r.slots[i].c != nil {
			r.slots[i].c.Reset()
		}
		r.slots[i].widx = wmNone
	}
}

// Merge implements Mergeable by aligning sub-windows: same-widx slots
// union, a newer incoming sub-window replaces an older resident
// (Reset + absorb, in place), and an older incoming one is dropped —
// its data has expired relative to the destination ring. Merging is
// only reachable for mergeable base kinds (Store.Merge refuses
// otherwise).
func (r *windowRing) Merge(other Counter) error {
	o, ok := other.(*windowRing)
	if !ok {
		return fmt.Errorf("sbitmap: cannot merge %T into a windowed ring", other)
	}
	if len(o.slots) != len(r.slots) {
		return fmt.Errorf("sbitmap: cannot merge ring of %d sub-windows into %d", len(o.slots), len(r.slots))
	}
	for i := range o.slots {
		os := &o.slots[i]
		if os.c == nil || os.widx == wmNone {
			continue
		}
		sl := &r.slots[i]
		switch {
		case sl.c == nil:
			sl.c = r.sh.newCounter()
			sl.widx = os.widx
		case sl.widx == wmNone || sl.widx < os.widx:
			sl.c.Reset()
			sl.widx = os.widx
		case sl.widx > os.widx:
			continue
		}
		if err := Merge(sl.c, os.c); err != nil {
			return err
		}
	}
	return nil
}

// maxWidx returns the highest sub-window index the ring holds data for
// (wmNone when empty) — restore paths use it to re-derive the Store
// watermark from snapshot contents.
func (r *windowRing) maxWidx() int64 {
	maxW := int64(wmNone)
	for i := range r.slots {
		if r.slots[i].c != nil && r.slots[i].widx != wmNone && r.slots[i].widx > maxW {
			maxW = r.slots[i].widx
		}
	}
	return maxW
}

// Ring snapshot payload (envelope kind kindWindowRing):
//
//	[0:2]  ring size (little-endian uint16)
//	[2:4]  live sub-window count (little-endian uint16)
//	per live sub-window:
//	       int64 widx (8 bytes LE), blob length (uint32 LE), counter envelope
//
// The width does not appear — a ring blob is only meaningful inside a
// store container or stripe snapshot whose spec carries it.

// MarshalBinary implements encoding.BinaryMarshaler.
func (r *windowRing) MarshalBinary() ([]byte, error) {
	payload := make([]byte, 4, 4+64*len(r.slots))
	binary.LittleEndian.PutUint16(payload, uint16(len(r.slots)))
	live := 0
	for i := range r.slots {
		sl := &r.slots[i]
		if sl.c == nil || sl.widx == wmNone {
			continue
		}
		blob, err := Marshal(sl.c)
		if err != nil {
			return nil, fmt.Errorf("sbitmap: ring sub-window %d: %w", sl.widx, err)
		}
		payload = binary.LittleEndian.AppendUint64(payload, uint64(sl.widx))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(blob)))
		payload = append(payload, blob...)
		live++
	}
	binary.LittleEndian.PutUint16(payload[2:], uint16(live))
	return appendEnvelope(kindWindowRing, payload), nil
}

// unmarshalWindowRing reconstructs a ring snapshot under a store's
// window configuration; the snapshot's ring size must match the spec's,
// and decode restores (and checks) each sub-window's counter.
func unmarshalWindowRing(sh *windowShared, data []byte, decode func([]byte) (Counter, error)) (*windowRing, error) {
	payload, err := payloadOfKind(data, kindWindowRing)
	if err != nil {
		return nil, err
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: ring header", ErrTruncated)
	}
	ringSize := int(binary.LittleEndian.Uint16(payload))
	live := int(binary.LittleEndian.Uint16(payload[2:]))
	if ringSize != sh.ring {
		return nil, fmt.Errorf("%w: ring snapshot has %d sub-windows, store is configured for %d", ErrSpecMismatch, ringSize, sh.ring)
	}
	payload = payload[4:]
	r := newWindowRing(sh)
	for j := 0; j < live; j++ {
		if len(payload) < 12 {
			return nil, fmt.Errorf("%w: ring sub-window %d header", ErrTruncated, j)
		}
		widx := int64(binary.LittleEndian.Uint64(payload))
		blen := int(binary.LittleEndian.Uint32(payload[8:]))
		payload = payload[12:]
		if blen > len(payload) {
			return nil, fmt.Errorf("%w: ring sub-window %d", ErrTruncated, j)
		}
		if widx == wmNone {
			return nil, fmt.Errorf("sbitmap: ring snapshot sub-window %d has a reserved index", j)
		}
		c, err := decode(payload[:blen])
		if err != nil {
			return nil, fmt.Errorf("sbitmap: ring sub-window %d: %w", widx, err)
		}
		i := widx % int64(ringSize)
		if i < 0 {
			i += int64(ringSize)
		}
		if r.slots[i].c != nil {
			return nil, fmt.Errorf("sbitmap: ring snapshot repeats slot %d (sub-windows %d and %d)", i, r.slots[i].widx, widx)
		}
		r.slots[i] = ringSlot{widx: widx, c: c}
		payload = payload[blen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("sbitmap: %d trailing bytes after last ring sub-window", len(payload))
	}
	return r, nil
}
