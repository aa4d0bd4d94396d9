package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/uhash"
)

// TestArenaSketchEquivalence: sketches whose state lives side by side in
// one shared slab, driven through a shared Shape, must be bit-identical
// to heap-constructed ones under the same config, seed, and input — with
// neighbors in the slab ingesting interleaved (no cross-talk through the
// shared words), through the per-item, borrowed-scratch batch and View
// paths alike.
func TestArenaSketchEquivalence(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const nSketches = 40
	sh := NewShape(cfg, 7)
	stride := sh.StateWords()
	slab := make([]uint64, nSketches*stride)
	state := func(i int) []uint64 { return slab[i*stride : (i+1)*stride] }
	heaped := make([]*Sketch, nSketches)
	for i := range heaped {
		sh.Init(state(i))
		heaped[i] = NewSketch(cfg, 7)
	}
	// Interleaved ingest: round-robin over all sketches so slab neighbors
	// mutate concurrently-in-time (any shared-state bug would cross-talk).
	for round := 0; round < 300; round++ {
		for i := range heaped {
			item := uint64(round*31+i*7) % 900 // duplicates included
			a := sh.AddUint64(state(i), item)
			b := heaped[i].AddUint64(item)
			if a != b {
				t.Fatalf("sketch %d round %d: slab changed=%v heap changed=%v", i, round, a, b)
			}
		}
	}
	var scr uhash.Scratch
	for i := range heaped {
		// Tail batch through the borrowed-scratch path vs the native one.
		batch := []uint64{1, 2, 3, uint64(i), uint64(i), 1 << 40}
		if a, b := sh.AddBatch64(&scr, state(i), batch), heaped[i].AddBatch64(batch); a != b {
			t.Fatalf("sketch %d: batch changed %d (slab+scratch) vs %d (heap)", i, a, b)
		}
		view := sh.View(state(i))
		if view.Estimate() != heaped[i].Estimate() || sh.Estimate(state(i)) != heaped[i].Estimate() {
			t.Fatalf("sketch %d: estimates diverged", i)
		}
		sb, err := view.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := heaped[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, hb) {
			t.Fatalf("sketch %d: serialized state diverged", i)
		}
		// Decode into a slot restores the same state; Clone detaches it.
		back := make([]uint64, stride)
		if err := sh.Decode(back, hb); err != nil {
			t.Fatal(err)
		}
		if cb, _ := sh.Clone(back).MarshalBinary(); !bytes.Equal(cb, hb) {
			t.Fatalf("sketch %d: decoded state diverged", i)
		}
	}
}

// TestArenaOptions: resolution and hash-family options must reach the
// shape's slab sketches, through a tabulated threshold schedule, exactly
// as they reach NewSketch, and decoding into a shape must refuse a sketch
// of other dimensions or resolution.
func TestArenaOptions(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShape(cfg, 0, WithResolution(30), WithHasher(uhash.NewTabulation(9)))
	sh.Tabulate() // the table must hold exactly the schedule's quantized thresholds
	st := make([]uint64, sh.StateWords())
	sh.Init(st)
	b := NewSketch(cfg, 0, WithResolution(30), WithHasher(uhash.NewTabulation(9)))
	for i := uint64(0); i < 5000; i++ {
		if ca, cb := sh.AddUint64(st, i%1200), b.AddUint64(i%1200); ca != cb {
			t.Fatalf("item %d: slab changed=%v heap changed=%v", i, ca, cb)
		}
	}
	if sh.Estimate(st) != b.Estimate() {
		t.Fatalf("estimates diverged: %g vs %g", sh.Estimate(st), b.Estimate())
	}
	other, err := NewConfigNE(1e4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	for name, sk := range map[string]*Sketch{
		"dimensions": NewSketch(other, 0),
		"resolution": NewSketch(cfg, 0),
	} {
		blob, _ := sk.MarshalBinary()
		dst := make([]uint64, max(sh.StateWords(), sk.sh.StateWords()))
		if err := sh.Decode(dst, blob); !errors.Is(err, ErrShapeMismatch) {
			t.Errorf("%s mismatch: Decode err = %v, want ErrShapeMismatch", name, err)
		}
	}
}

// TestArenaAllocAmortized: a slab sketch needs no objects of its own —
// initializing, ingesting, estimating and viewing its state allocate
// nothing.
func TestArenaAllocAmortized(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShape(cfg, 1)
	st := make([]uint64, sh.StateWords())
	var scr uhash.Scratch
	items := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	sh.AddBatch64(&scr, st, items) // warm the scratch
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() {
		sh.Init(st)
		sh.AddUint64(st, 42)
		sh.AddBatch64(&scr, st, items)
		v := sh.View(st)
		sink += v.Estimate() + sh.Estimate(st)
	}); allocs != 0 {
		t.Errorf("slab sketch lifecycle: %.2f allocs/op, want 0", allocs)
	}
	_ = sink
}
