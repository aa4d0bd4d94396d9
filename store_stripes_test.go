package sbitmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreStripeSnapshotRoundtrip: a full MarshalStripes pass restored
// stripe-by-stripe rebuilds a store bit-identical (MarshalBinary) to the
// original, even across a different stripe count.
func TestStoreStripeSnapshotRoundtrip(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	for _, restoreStripes := range []int{16, 64, 128} {
		t.Run(fmt.Sprintf("stripes=%d", restoreStripes), func(t *testing.T) {
			src, err := NewStore[uint64](spec, WithStripes(64))
			if err != nil {
				t.Fatal(err)
			}
			keys, items := keyedWorkload(200, 5000, 11)
			src.AddBatch64(keys, items)

			blobs, cut, err := src.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) != 64 {
				t.Fatalf("full pass encoded %d stripes, want 64", len(blobs))
			}
			if cut != src.Generation() {
				t.Fatalf("cut %d != generation %d", cut, src.Generation())
			}

			dst, err := NewStore[uint64](spec, WithStripes(restoreStripes))
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, blob := range blobs {
				n, err := dst.RestoreStripe(blob)
				if err != nil {
					t.Fatal(err)
				}
				total += n
			}
			if total != src.Len() || dst.Len() != src.Len() {
				t.Fatalf("restored %d keys (store holds %d), want %d", total, dst.Len(), src.Len())
			}
			assertStoresIdentical(t, src, dst)
		})
	}
}

func TestStoreStripeSnapshotStringKeys(t *testing.T) {
	spec := MustSpec("hll:mbits=1536")
	src, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		src.AddString(fmt.Sprintf("key-%d", i%40), fmt.Sprintf("item-%d", i))
	}
	blobs, _, err := src.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := NewStore[string](spec)
	for _, blob := range blobs {
		if _, err := dst.RestoreStripe(blob); err != nil {
			t.Fatal(err)
		}
	}
	assertStoresIdentical(t, src, dst)
}

// TestStoreDirtyStripeTracking: an incremental pass encodes only stripes
// touched since the cut, and the cost therefore scales with the write
// footprint, not the key population.
func TestStoreDirtyStripeTracking(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	s, err := NewStore[uint64](spec, WithStripes(64))
	if err != nil {
		t.Fatal(err)
	}
	keys, items := keyedWorkload(500, 20000, 3)
	s.AddBatch64(keys, items)

	// Full pass establishes the baseline cut.
	full, cut, err := s.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := 0
	for _, b := range full {
		fullBytes += len(b)
	}

	// Nothing touched since the cut: the incremental pass is empty.
	if d := s.DirtyStripes(cut); d != 0 {
		t.Fatalf("%d stripes dirty immediately after a cut", d)
	}
	inc, cut2, err := s.MarshalStripes(cut)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 0 {
		t.Fatalf("quiescent incremental pass encoded %d stripes", len(inc))
	}

	// Touch one key: exactly one stripe re-encodes, far below the full
	// pass in bytes.
	s.AddUint64(keys[0], 42)
	if d := s.DirtyStripes(cut2); d != 1 {
		t.Fatalf("%d stripes dirty after one add, want 1", d)
	}
	inc2, _, err := s.MarshalStripes(cut2)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc2) != 1 {
		t.Fatalf("incremental pass encoded %d stripes, want 1", len(inc2))
	}
	incBytes := 0
	for _, b := range inc2 {
		incBytes += len(b)
	}
	if incBytes*4 > fullBytes {
		t.Fatalf("single-stripe increment %d bytes vs full %d: not scaling with dirt", incBytes, fullBytes)
	}
}

// TestStoreDirtyStripeMutationPaths: every mutating entry point marks its
// stripe dirty — including eviction, which victimizes stripes other than
// the one being inserted into.
func TestStoreDirtyStripeMutationPaths(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	newQuiesced := func(t *testing.T) (*Store[uint64], uint64) {
		s, err := NewStore[uint64](spec, WithStripes(8))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 100; i++ {
			s.AddUint64(i, i)
		}
		_, cut, err := s.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		return s, cut
	}
	t.Run("remove", func(t *testing.T) {
		s, cut := newQuiesced(t)
		if !s.Remove(5) {
			t.Fatal("key 5 missing")
		}
		if d := s.DirtyStripes(cut); d != 1 {
			t.Fatalf("Remove dirtied %d stripes, want 1", d)
		}
	})
	t.Run("reset", func(t *testing.T) {
		s, cut := newQuiesced(t)
		s.Reset()
		if d := s.DirtyStripes(cut); d != s.StripeCount() {
			t.Fatalf("Reset dirtied %d of %d stripes", d, s.StripeCount())
		}
	})
	t.Run("merge", func(t *testing.T) {
		mergeable := MustSpec("hll:mbits=1536")
		s, err := NewStore[uint64](mergeable, WithStripes(8))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 100; i++ {
			s.AddUint64(i, i)
		}
		_, cut, err := s.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		other, _ := NewStore[uint64](mergeable, WithStripes(8))
		other.AddUint64(7, 99)
		if err := s.Merge(other); err != nil {
			t.Fatal(err)
		}
		if d := s.DirtyStripes(cut); d != 1 {
			t.Fatalf("Merge dirtied %d stripes, want 1", d)
		}
	})
	t.Run("eviction marks victim stripe", func(t *testing.T) {
		s, err := NewStore[uint64](spec, WithStripes(8), WithMaxKeys(50))
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 50; i++ {
			s.AddUint64(i, i)
		}
		_, cut, err := s.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		// The 51st key evicts some victim; both the victim's stripe and
		// the inserted key's stripe must re-encode, and restoring the
		// incremental pass on top of the full one must reproduce the
		// store exactly.
		s.AddUint64(999_999, 1)
		if d := s.DirtyStripes(cut); d < 1 {
			t.Fatal("eviction left no stripe dirty")
		}
		inc, _, err := s.MarshalStripes(cut)
		if err != nil {
			t.Fatal(err)
		}
		if len(inc) == 0 {
			t.Fatal("eviction produced an empty incremental pass")
		}
	})
}

// TestStoreSetGeneration: a restore fast-forwarded to the manifest's
// generation stays clean until mutated, then dirties normally.
func TestStoreSetGeneration(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	src, _ := NewStore[uint64](spec)
	src.AddUint64(1, 1)
	blobs, cut, err := src.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}

	dst, _ := NewStore[uint64](spec)
	for _, b := range blobs {
		if _, err := dst.RestoreStripe(b); err != nil {
			t.Fatal(err)
		}
	}
	dst.SetGeneration(cut)
	if g := dst.Generation(); g != cut {
		t.Fatalf("generation %d after SetGeneration(%d)", g, cut)
	}
	if d := dst.DirtyStripes(cut); d != 0 {
		t.Fatalf("restored store has %d dirty stripes before any mutation", d)
	}
	dst.AddUint64(2, 2)
	if d := dst.DirtyStripes(cut); d != 1 {
		t.Fatalf("post-restore add dirtied %d stripes, want 1", d)
	}
}

func TestRestoreStripeRejects(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	src, _ := NewStore[uint64](spec)
	for i := uint64(0); i < 10; i++ {
		src.AddUint64(i, i)
	}
	blobs, _, err := src.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	for _, b := range blobs {
		if len(b) > stripeSnapHeader { // a stripe that actually holds keys
			blob = b
			break
		}
	}

	t.Run("short header", func(t *testing.T) {
		s, _ := NewStore[uint64](spec)
		if _, err := s.RestoreStripe(blob[:5]); err == nil {
			t.Fatal("short blob accepted")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		s, _ := NewStore[uint64](spec)
		bad := append([]byte("XXXX"), blob[4:]...)
		if _, err := s.RestoreStripe(bad); err == nil {
			t.Fatal("bad magic accepted")
		}
	})
	t.Run("key type mismatch", func(t *testing.T) {
		s, _ := NewStore[string](spec)
		if _, err := s.RestoreStripe(blob); err == nil {
			t.Fatal("uint64 stripe restored into string store")
		}
	})
	t.Run("truncated entries", func(t *testing.T) {
		s, _ := NewStore[uint64](spec)
		if _, err := s.RestoreStripe(blob[:len(blob)-3]); err == nil {
			t.Fatal("truncated blob accepted")
		}
	})
	t.Run("duplicate key across restores", func(t *testing.T) {
		s, _ := NewStore[uint64](spec)
		if _, err := s.RestoreStripe(blob); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RestoreStripe(blob); err == nil {
			t.Fatal("re-restoring the same stripe accepted")
		}
	})
	t.Run("over key limit", func(t *testing.T) {
		s, err := NewStore[uint64](spec, WithMaxKeys(1))
		if err != nil {
			t.Fatal(err)
		}
		ok := true
		for _, b := range blobs {
			if _, err := s.RestoreStripe(b); err != nil {
				ok = false
				break
			}
		}
		if ok {
			t.Fatal("restore past WithMaxKeys accepted")
		}
	})
}

// TestRestoreRejectsSpecMismatch: a snapshot entry whose counter is of
// another kind, or other dimensions or resolution, than the restoring
// store's spec is refused with ErrSpecMismatch, through RestoreStripe and
// UnmarshalStore alike, and nothing is restored. (The first case used to
// restore an eps=0.1 blob into an eps=0.01 store as 318-bit sketches
// against the spec's 31,520 bits.)
func TestRestoreRejectsSpecMismatch(t *testing.T) {
	for _, tc := range []struct{ from, into string }{
		{"sbitmap:n=1e6,eps=0.1", "sbitmap:n=1e6,eps=0.01"},
		{"sbitmap:n=1e6,eps=0.01,d=30", "sbitmap:n=1e6,eps=0.01"},
		{"hll:mbits=1024", "sbitmap:n=1e6,eps=0.01"},
		{"sbitmap:n=1e6,eps=0.1", "hll:mbits=2048"},
		{"hll:mbits=1024", "hll:mbits=2048"},
		{"exact", "hll:mbits=1024"},
		{"hll:mbits=1024/windowed(width=1m,ring=4)", "hll:mbits=1024/windowed(width=1m,ring=2)"},
		{"hll:mbits=1024/windowed(width=1m,ring=4)", "hll:mbits=2048/windowed(width=1m,ring=4)"},
		{"sbitmap:n=1e4,eps=0.1/windowed(width=1m,ring=4)", "sbitmap:n=1e4,eps=0.05/windowed(width=1m,ring=4)"},
	} {
		t.Run(tc.from+" into "+tc.into, func(t *testing.T) {
			src, err := NewStore[string](MustSpec(tc.from), WithStripes(1))
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 50; i++ {
				src.AddUint64(fmt.Sprintf("k%d", i%7), i)
			}
			blobs, _, err := src.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := NewStore[string](MustSpec(tc.into))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := dst.RestoreStripe(blobs[0]); !errors.Is(err, ErrSpecMismatch) || n != 0 || dst.Len() != 0 {
				t.Fatalf("RestoreStripe = %d, %v with %d keys restored; want ErrSpecMismatch and none", n, err, dst.Len())
			}
			// The same entries in a whole-store container under the
			// restoring spec's name.
			snap, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			payload := snap[6:]
			into := MustSpec(tc.into).String()
			respec := append([]byte{payload[0]}, binary.LittleEndian.AppendUint16(nil, uint16(len(into)))...)
			respec = append(append(respec, into...), payload[3+binary.LittleEndian.Uint16(payload[1:]):]...)
			if _, err := UnmarshalStore[string](appendEnvelope(kindStore, respec)); !errors.Is(err, ErrSpecMismatch) {
				t.Fatalf("UnmarshalStore: %v, want ErrSpecMismatch", err)
			}
		})
	}
}

// TestRestoreStripeParentFixtures: stripe snapshots (SBS1 v1) written by
// the map-based Store that preceded the slot table, committed under
// testdata, restore bit-identically: re-marshaled from one stripe they
// reproduce the fixture byte for byte, and every key matches a fresh
// store fed the records the fixture was made from.
func TestRestoreStripeParentFixtures(t *testing.T) {
	t.Run("sbitmap string keys", func(t *testing.T) {
		checkStripeFixture(t, "stripe_v1_sbitmap_string.bin", "sbitmap:n=1e4,eps=0.1,seed=7", 64,
			func(k int) string { return fmt.Sprintf("fixture-%02d", k) })
	})
	t.Run("hll uint64 keys", func(t *testing.T) {
		checkStripeFixture(t, "stripe_v1_hll_uint64.bin", "hll:mbits=1024,seed=7", 32,
			func(k int) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 })
	})
}

func checkStripeFixture[K StoreKey](t *testing.T, file, spec string, nKeys int, key func(int) K) {
	blob, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewStore[K](MustSpec(spec), WithStripes(1))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := restored.RestoreStripe(blob); err != nil || n != nKeys {
		t.Fatalf("RestoreStripe = %d, %v; want %d keys", n, err, nKeys)
	}
	blobs, _, err := restored.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobs[0], blob) {
		t.Fatal("re-marshaled stripe differs from the fixture")
	}
	fresh, err := NewStore[K](MustSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < nKeys; k++ {
		for i := 0; i < 1+(k*k)%500; i++ {
			fresh.AddUint64(key(k), uint64(i*7919+k))
		}
	}
	assertStoresIdentical(t, restored, fresh)
}
