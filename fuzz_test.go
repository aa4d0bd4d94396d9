package sbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// FuzzParseSpec drives the spec grammar with arbitrary strings. The
// invariants: ParseSpec never panics; any accepted spec renders to a
// canonical String that re-parses to the identical Spec; and the
// canonical form is a fixed point of parse∘render. CI runs a short fuzz
// smoke over this target; `go test -fuzz FuzzParseSpec .` digs deeper.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"exact",
		"sbitmap:n=1e6,eps=0.01",
		"sbitmap:n=1e5,eps=0.02,seed=42,hash=tabulation,d=30",
		"hll:mbits=4096",
		"hyperloglog:mbits=4e3",
		"mr:n=1e5,mbits=4000",
		"lc : mbits=4000",
		"loglog:seed=0x10",
		"hll:mbits=64,mbits=128",
		"sbitmap:hash=cw",
		"vb:n=1e4,mbits=100",
		"sbitmap:n=,eps=0.01",
		"sbitmap:eps=1e999",
		"nope:mbits=1",
		"sbitmap:n=1e6,eps=0.01,",
		"hll:mbits=2048/windowed(width=1m)",
		"hll:mbits=2048/windowed(width=1m,ring=5)",
		"sbitmap:n=1e6,eps=0.01/windowed(width=30s,ring=12)",
		"exact/windowed(width=1500ms,ring=1)",
		"hll:mbits=2048/windowed(width=1m,width=2m)",
		"hll:mbits=2048/windowed(width=1m,ring=0)",
		"hll:mbits=2048/windowed(width=1m,ring=65537)",
		"hll:mbits=2048/windowed(ring=5)",
		"hll:mbits=2048/windowed(width=-1m)",
		"hll:mbits=2048/windowed(width=2562047h,ring=65536)",
		"hll:mbits=2048/windowed(width=1m",
		"hll:mbits=2048/windowed(depth=3)",
		"hll:mbits=2048/sliding(width=1m)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return // rejection is fine; panicking or mis-round-tripping is not
		}
		canon := spec.String()
		got, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted but canonical %q rejected: %v", s, canon, err)
		}
		if got != spec {
			t.Fatalf("round trip of %q: %+v != %+v", s, got, spec)
		}
		if again := got.String(); again != canon {
			t.Fatalf("canonical form of %q not fixed: %q -> %q", s, canon, again)
		}
	})
}

// FuzzRestoreStripe hardens the stripe snapshot decoder — the bytes a
// restarting server reads back from its checkpoint. Any input must either
// restore and round-trip bit-identically (re-marshaling the restored
// stripe reproduces the input exactly) or fail with a typed error and
// leave the store exactly as it was: no panic, no partly restored stripe.
// CI runs a short fuzz smoke over this target.
func FuzzRestoreStripe(f *testing.F) {
	spec := MustSpec("sbitmap:n=1e3,eps=0.2,seed=5")
	stripe := func(spec Spec, keys int) []byte {
		s, _ := NewStore[string](spec, WithStripes(1))
		for k := 0; k < keys; k++ {
			for i := 0; i <= 3*k; i++ {
				s.AddUint64(fmt.Sprintf("k%d", k), uint64(i))
			}
		}
		blobs, _, _ := s.MarshalStripes(0)
		return blobs[0]
	}
	blob := stripe(spec, 12)
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(stripe(spec, 0))
	f.Add(stripe(MustSpec("sbitmap:n=1e3,eps=0.1,seed=5"), 3)) // other dimensions
	f.Add(append(append([]byte(nil), blob...), blob[stripeSnapHeader:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _ := NewStore[string](spec, WithStripes(1))
		s.AddUint64("resident", 1)
		before, _ := s.MarshalBinary()
		n, err := s.RestoreStripe(data)
		if err != nil {
			typed := false
			for _, sentinel := range []error{ErrTruncated, ErrBadMagic, ErrUnsupportedVersion,
				ErrUnknownKind, ErrKindMismatch, ErrSpecMismatch, ErrCorrupt} {
				typed = typed || errors.Is(err, sentinel)
			}
			if !typed {
				t.Fatalf("untyped error: %v", err)
			}
			if after, _ := s.MarshalBinary(); !bytes.Equal(after, before) {
				t.Fatalf("failed restore (%v) changed the store", err)
			}
			return
		}
		if s.Len() != n+1 || !s.Remove("resident") {
			t.Fatalf("restored %d keys, store holds %d besides the resident key", n, s.Len()-1)
		}
		blobs, _, err := s.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blobs[0], data) {
			t.Fatalf("round trip differs: %d bytes in, %d out", len(data), len(blobs[0]))
		}
	})
}
