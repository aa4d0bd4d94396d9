package sbitmap

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestFootprintEveryKind: every constructible kind reports a positive
// footprint that at least covers its summary statistic, and the bitmap
// kinds stay within a small constant of it (no hidden O(m) side state).
func TestFootprintEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		spec := Spec{Kind: kind, N: 1e6, Eps: 0.01}
		c, err := spec.New()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		fp := c.Footprint()
		if fp <= 0 {
			t.Errorf("%s: footprint %d, want > 0", kind, fp)
		}
		// Exact and adaptive account per-item state, not a fixed summary;
		// the rest must physically hold at least their SizeBits.
		if kind == KindExact || kind == KindAdaptive {
			continue
		}
		if fp < c.SizeBits()/8 {
			t.Errorf("%s: footprint %d B below summary size %d bits", kind, fp, c.SizeBits())
		}
	}
}

// TestSBitmapFootprintNearBitmap is the paper's headline memory claim made
// of the process: an S-bitmap for 1% error up to 10^6 needs about 30
// kilobits, and the process footprint must be that bitmap plus a small
// constant — not the ~24 bytes-per-bit of auxiliary tables the tabulated
// implementation carried.
func TestSBitmapFootprintNearBitmap(t *testing.T) {
	sk, err := New(1e6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	bitmapBytes := sk.SizeBits() / 8
	aux := sk.Footprint() - bitmapBytes
	if aux < 0 {
		t.Fatalf("footprint %d below bitmap bytes %d", sk.Footprint(), bitmapBytes)
	}
	if aux > 512 {
		t.Errorf("auxiliary state = %d bytes, want a small constant (≤ 512); footprint %d, bitmap %d",
			aux, sk.Footprint(), bitmapBytes)
	}
}

// TestShardedFootprintAggregates: a sharded counter's footprint is the sum
// of its shards' plus bounded decorator overhead.
func TestShardedFootprintAggregates(t *testing.T) {
	const shards = 8
	single, err := New(1e5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(shards, 1e5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got := sh.Footprint()
	sum := shards * single.Footprint()
	if got < sum {
		t.Errorf("sharded footprint %d below %d× single sketch (%d)", got, shards, sum)
	}
	if overhead := got - sum; overhead > shards*256 {
		t.Errorf("sharded decorator overhead %d bytes for %d shards, want ≤ %d", overhead, shards, shards*256)
	}
}

// TestWindowedFootprintAggregates: a windowed counter's footprint covers
// both rotation sketches plus bounded bookkeeping.
func TestWindowedFootprintAggregates(t *testing.T) {
	single, err := New(1e5, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWindowed(time.Minute, 1e5, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := w.Footprint()
	pair := 2 * single.Footprint()
	if got < pair {
		t.Errorf("windowed footprint %d below the rotation pair's %d", got, pair)
	}
	if overhead := got - pair; overhead > 512 {
		t.Errorf("windowed bookkeeping overhead %d bytes, want ≤ 512", overhead)
	}
}

// TestFootprintCountsBatchScratch: the lazily allocated batch-hash buffers
// are real process memory and must show up once used.
func TestFootprintCountsBatchScratch(t *testing.T) {
	sk, err := New(1e4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	before := sk.Footprint()
	items := make([]uint64, 1000)
	for i := range items {
		items[i] = uint64(i)
	}
	AddBatch64(sk, items)
	if after := sk.Footprint(); after <= before {
		t.Errorf("footprint %d unchanged after batch ingest allocated scratch (was %d)", after, before)
	}
}

// TestFootprintStableUnderIngest: for fixed-size sketches the footprint
// must not grow with the stream (only the one-time scratch allocation may
// appear); counting more items cannot cost more memory.
func TestFootprintStableUnderIngest(t *testing.T) {
	for _, raw := range []string{"sbitmap:n=1e5,eps=0.02", "hll:mbits=8192", "linearcount:mbits=8192"} {
		spec := MustSpec(raw)
		c, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		warm := make([]uint64, 256)
		for i := range warm {
			warm[i] = uint64(i)
		}
		AddBatch64(c, warm) // settle the scratch allocation
		settled := c.Footprint()
		for i := 0; i < 50_000; i++ {
			c.AddUint64(uint64(i) * 0x9e3779b97f4a7c15)
		}
		if got := c.Footprint(); got != settled {
			kind := raw[:strings.IndexByte(raw, ':')]
			t.Errorf("%s: footprint moved %d → %d during ingest of a fixed-size sketch", kind, settled, got)
		}
	}
}

// TestStoreFootprintMatchesHeap: Store.Footprint is capacity accounting
// of everything the store holds, not an estimate — for a 100k-key
// S-bitmap store it lands within 10% of the live-heap growth the store
// causes.
func TestStoreFootprintMatchesHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state inflates the heap")
	}
	const nKeys = 100_000
	keys := make([]string, nKeys)
	items := make([]uint64, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", i*0x9e3779b9)
		items[i] = uint64(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := NewStore[string](MustSpec("sbitmap:n=1e5,eps=0.05"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nKeys; i += 8192 {
		s.AddBatch64(keys[i:min(i+8192, nKeys)], items[i:min(i+8192, nKeys)])
	}
	runtime.GC()
	runtime.GC() // the second cycle drops the batch scratch the pool held
	runtime.ReadMemStats(&after)
	grew := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	fp := float64(s.Footprint())
	if math.Abs(fp-grew) > 0.1*grew {
		t.Errorf("Footprint %.0f B, heap grew %.0f B (%.1f%% apart, want ≤ 10%%)", fp, grew, 100*math.Abs(fp-grew)/grew)
	}
	t.Logf("%d keys: Footprint %.0f B (%.0f B/key), heap growth %.0f B", nKeys, fp, fp/nKeys, grew)
	runtime.KeepAlive(s)
	runtime.KeepAlive(keys) // live at both readings, like the store's own inputs
	runtime.KeepAlive(items)
}
