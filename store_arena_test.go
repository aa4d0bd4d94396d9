package sbitmap

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// TestStoreSlabEquivalence is the slot table's safety rail: a Store must
// hold, for every key, exactly the counter a standalone Spec.New counter
// fed the same records holds — bit for bit, for every kind, uint64 and
// string keys. S-bitmap keys live in slot slabs behind a shared Shape and
// never meet Spec.New, so this is what proves the slab path equivalent.
// The workload mixes scattered short runs with long same-key runs (the
// batch path through the stripe's shared scratch), crosses several slab
// chunk growths, and feeds uneven batch sizes.
func TestStoreSlabEquivalence(t *testing.T) {
	keys, items := keyedWorkload(1500, 20000, 11)
	for run := 0; run < 4; run++ {
		k := keys[run*7]
		for i := 0; i < 2*storeRunBatchMin; i++ {
			keys = append(keys, k)
			items = append(items, uint64(run)<<32|uint64(i%40))
		}
	}
	strKeys := make([]string, len(keys))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
	}
	t.Run("uint64", func(t *testing.T) {
		for _, spec := range storeTestSpecs() {
			spec.Seed = 3
			t.Run(string(spec.Kind), func(t *testing.T) { checkStoreAgainstStandalone(t, spec, keys, items) })
		}
	})
	t.Run("string", func(t *testing.T) {
		for _, spec := range storeTestSpecs() {
			spec.Seed = 3
			t.Run(string(spec.Kind), func(t *testing.T) { checkStoreAgainstStandalone(t, spec, strKeys, items) })
		}
	})
}

func checkStoreAgainstStandalone[K StoreKey](t *testing.T, spec Spec, keys []K, items []uint64) {
	t.Helper()
	store, err := NewStore[K](spec)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < len(keys); i += 777 { // uneven batch sizes
		end := min(i+777, len(keys))
		changed += store.AddBatch64(keys[i:end], items[i:end])
	}
	alone := make(map[K]Counter)
	wantChanged := 0
	for i, k := range keys {
		c := alone[k]
		if c == nil {
			if c, err = spec.New(); err != nil {
				t.Fatal(err)
			}
			alone[k] = c
		}
		if c.AddUint64(items[i]) {
			wantChanged++
		}
	}
	if changed != wantChanged || store.Len() != len(alone) {
		t.Fatalf("store: %d keys, %d changes; standalone: %d keys, %d changes", store.Len(), changed, len(alone), wantChanged)
	}
	store.ForEach(func(k K, c Counter) bool {
		got, err := Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Marshal(alone[k])
		if !bytes.Equal(got, want) || c.Estimate() != alone[k].Estimate() {
			t.Fatalf("key %v: store state differs from the standalone counter's", k)
		}
		return true
	})
}

// TestStoreEvictionReusesSlots: an evicted key's slot (and its key bytes)
// go back to the stripe, so 100k keys streamed through WithMaxKeys(1000)
// run in the memory of ~1000, and the eviction hook's counter is a
// detached copy that later ingest into the reused slot cannot touch.
func TestStoreEvictionReusesSlots(t *testing.T) {
	const limit, stripes, total = 1000, 8, 100_000
	s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"), WithMaxKeys(limit), WithStripes(stripes))
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	var kept Counter
	var keptBlob []byte
	s.OnEvict(func(_ string, c Counter) {
		if evicted++; kept == nil {
			kept = c
			keptBlob, _ = Marshal(c)
		}
	})
	keys := make([]string, 4000)
	items := make([]uint64, len(keys))
	early := 0
	for base := 0; base < total; base += len(keys) {
		for i := range keys {
			keys[i] = fmt.Sprintf("flow-%06d", base+i)
			items[i] = uint64(i % 37)
		}
		s.AddBatch64(keys, items)
		if base == 4*len(keys) {
			early = s.Footprint()
		}
	}
	if got := s.Len(); got > limit+stripes {
		t.Fatalf("Len() = %d, want ≤ %d", got, limit+stripes)
	}
	if evicted < total-limit-stripes {
		t.Fatalf("%d evictions, want ≥ %d", evicted, total-limit-stripes)
	}
	slots := 0
	for i := range s.stripes {
		slots += len(s.stripes[i].flags)
	}
	if slots > limit+stripes {
		t.Fatalf("%d slots allocated for ≤ %d live keys: evicted slots are not reused", slots, limit+stripes)
	}
	if fp := s.Footprint(); fp > early+early/10 {
		t.Fatalf("footprint grew from %d to %d B under eviction churn", early, fp)
	}
	if blob, _ := Marshal(kept); !bytes.Equal(blob, keptBlob) {
		t.Fatal("an evicted counter changed after its slot was reused")
	}
}

// TestStoreClonesMaterializedStringKeys: zero-copy ingest paths hand the
// store keys aliasing a reusable frame buffer; the store must not retain
// that memory. Mutating the caller's backing bytes after ingest must not
// corrupt the stored keys. The store keeps keys and sketch state in
// per-stripe slabs, so the one variant left is the slab-backed store.
func TestStoreClonesMaterializedStringKeys(t *testing.T) {
	t.Run("slab=true", func(t *testing.T) {
		s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
		if err != nil {
			t.Fatal(err)
		}
		buf := []byte("flow-a")
		alias := unsafe.String(&buf[0], len(buf)) // what a zero-copy decoder produces
		s.AddBatchString([]string{alias}, []string{"x"})
		s.AddString(alias, "y")
		copy(buf, "QQQQQQ") // the wire listener reusing its frame buffer
		if _, ok := s.Estimate("flow-a"); !ok {
			t.Fatalf("key flow-a lost after caller reused the key's backing bytes")
		}
		if _, ok := s.Estimate("QQQQQQ"); ok {
			t.Fatalf("store retained the caller's mutable backing bytes as a key")
		}
		s.ForEach(func(k string, _ Counter) bool {
			if k != "flow-a" {
				t.Fatalf("stored key %q, want %q", k, "flow-a")
			}
			return true
		})
	})
}

// TestStoreBatchIngestAllocFree pins the steady-state contract the wire
// listener's decode+add path depends on: once a store's keys and scratch
// are warm, keyed batch ingest performs zero heap allocations — for
// scattered batches and for long runs through the shared-scratch batch
// path alike, on a store that ingested its keys and on one restored from
// stripe snapshots (the served store after a restart).
func TestStoreBatchIngestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	nKeys := 256
	keys := make([]uint64, 0, nKeys+2*storeRunBatchMin)
	items := make([]uint64, 0, cap(keys))
	for i := 0; i < nKeys; i++ {
		keys = append(keys, uint64(i)*0x9e37+1)
		items = append(items, uint64(i))
	}
	for i := 0; i < 2*storeRunBatchMin; i++ { // one long run: scratch path
		keys = append(keys, keys[0])
		items = append(items, uint64(i))
	}
	strKeys := make([]string, len(keys))
	strItems := make([]string, len(items))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
		strItems[i] = fmt.Sprintf("item-%x", items[i])
	}
	restored := func(t *testing.T, src interface {
		MarshalStripes(uint64) (map[int][]byte, uint64, error)
	}, dst interface{ RestoreStripe([]byte) (int, error) }) {
		blobs, _, err := src.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blobs {
			if _, err := dst.RestoreStripe(b); err != nil {
				t.Fatal(err)
			}
		}
	}

	s64, err := NewStore[uint64](spec)
	if err != nil {
		t.Fatal(err)
	}
	s64.AddBatch64(keys, items) // materialize keys, warm scratch + pools
	r64, _ := NewStore[uint64](spec)
	restored(t, s64, r64)
	r64.AddBatch64(keys[:1], items[:1]) // warm the restored store's scratch
	for name, s := range map[string]*Store[uint64]{"ingested": s64, "restored": r64} {
		if allocs := testing.AllocsPerRun(10, func() {
			s.AddBatch64(keys, items)
		}); allocs != 0 {
			t.Errorf("warm %s Store.AddBatch64: %.1f allocs/op, want 0", name, allocs)
		}
	}

	sStr, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	sStr.AddBatchString(strKeys, strItems)
	rStr, _ := NewStore[string](spec)
	restored(t, sStr, rStr)
	rStr.AddBatchString(strKeys, strItems)
	for name, s := range map[string]*Store[string]{"ingested": sStr, "restored": rStr} {
		if allocs := testing.AllocsPerRun(10, func() {
			s.AddBatchString(strKeys, strItems)
		}); allocs != 0 {
			t.Errorf("warm %s Store.AddBatchString: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
