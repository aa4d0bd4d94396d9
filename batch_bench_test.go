package sbitmap

// Batch-vs-per-item ingestion benches: the numbers behind the README's
// Throughput section and the ≥2x (single S-bitmap) / ≥4x (8-shard Sharded,
// concurrent) batch-path claims. Per-item paths go through the Counter
// interface — the dispatch production callers actually pay — and batch
// paths through BulkAdder. Run the Sharded ones with -cpu 1,4,8 to see the
// lock-amortization scaling.

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// batchBenchLen is the per-call batch length of the benches; large enough
// to amortize routing and locking, small enough to be a realistic network
// read quantum.
const batchBenchLen = 4096

// benchSBitmap builds the Section 7.1 configuration sketch.
func benchSBitmap(b *testing.B) Counter {
	b.Helper()
	sk, err := NewWithMemory(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

// benchSharded builds the 8-shard concurrent deployment of the same
// configuration.
func benchSharded(b *testing.B) *Sharded {
	b.Helper()
	s, err := NewSharded(8, 1e6, 0.022)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// fillBatch refills buf with consecutive ids starting at next.
func fillBatch(buf []uint64, next uint64) uint64 {
	for i := range buf {
		buf[i] = next
		next++
	}
	return next
}

func BenchmarkBatchAddSBitmap(b *testing.B) {
	b.Run("peritem", func(b *testing.B) {
		c := benchSBitmap(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.AddUint64(uint64(i))
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := benchSBitmap(b)
		buf := make([]uint64, batchBenchLen)
		var next uint64
		c.(BulkAdder).AddBatch64(buf) // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for rem := b.N; rem > 0; {
			n := min(rem, len(buf))
			next = fillBatch(buf[:n], next)
			AddBatch64(c, buf[:n])
			rem -= n
		}
	})
}

// BenchmarkBatchAddSBitmapLarge is the same comparison at production
// scale (N = 10^9, ≈1 MiB of bitmap — the "millions of users"
// dimensioning): the bitmap no longer fits in L1/L2, and the batch loop's
// advantage grows because consecutive probes' cache misses overlap where
// the per-item path serializes each miss behind the next item's hash and
// dispatch.
func BenchmarkBatchAddSBitmapLarge(b *testing.B) {
	mkLarge := func() Counter {
		sk, err := NewWithMemory(1<<23, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		return sk
	}
	b.Run("peritem", func(b *testing.B) {
		c := mkLarge()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AddUint64(uint64(i))
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := mkLarge()
		buf := make([]uint64, batchBenchLen)
		var next uint64
		c.(BulkAdder).AddBatch64(buf) // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for rem := b.N; rem > 0; {
			n := min(rem, len(buf))
			next = fillBatch(buf[:n], next)
			AddBatch64(c, buf[:n])
			rem -= n
		}
	})
}

func BenchmarkBatchAddString(b *testing.B) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%x-key-%08x", i%26, i)
	}
	b.Run("peritem", func(b *testing.B) {
		c := benchSBitmap(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.AddString(keys[i&(1<<16-1)])
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := benchSBitmap(b)
		b.ReportAllocs()
		for rem := b.N; rem > 0; {
			at := (b.N - rem) & (1<<16 - 1)
			n := min(rem, batchBenchLen, len(keys)-at)
			AddBatchString(c, keys[at:at+n])
			rem -= n
		}
	})
}

// BenchmarkBatchAddSharded measures concurrent ingest into one shared
// 8-shard counter. The per-item path takes a shard lock per item; the
// batch path takes each touched shard's lock once per 4096-item batch.
// Run with -cpu 1,4,8.
func BenchmarkBatchAddSharded(b *testing.B) {
	b.Run("peritem", func(b *testing.B) {
		s := benchSharded(b)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			id := ctr.Add(1) << 40 // disjoint id space per goroutine
			for pb.Next() {
				s.AddUint64(id)
				id++
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		s := benchSharded(b)
		var ctr atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			buf := make([]uint64, batchBenchLen)
			id := ctr.Add(1) << 40
			n := 0
			for pb.Next() {
				buf[n] = id
				id++
				n++
				if n == len(buf) {
					s.AddBatch64(buf)
					n = 0
				}
			}
			if n > 0 {
				s.AddBatch64(buf[:n])
			}
		})
	})
}

// BenchmarkBatchAddShardedString is the string-key variant of the Sharded
// comparison.
func BenchmarkBatchAddShardedString(b *testing.B) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%x-key-%08x", i%26, i)
	}
	b.Run("peritem", func(b *testing.B) {
		s := benchSharded(b)
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				s.AddString(keys[i&(1<<16-1)])
				i++
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		s := benchSharded(b)
		b.RunParallel(func(pb *testing.PB) {
			at, n := 0, 0
			for pb.Next() {
				n++
				if n == batchBenchLen {
					s.AddBatchString(keys[at : at+n])
					at = (at + n) & (1<<16 - 1)
					n = 0
				}
			}
			if n > 0 {
				s.AddBatchString(keys[at : at+n])
			}
		})
	})
}

// The Store benches run at the sketchd bulk workload's shape: 100k string
// keys whose weights are log-uniform in [1, 10^4], fed 8192-record frames
// under spec sbitmap:n=1e5,eps=0.05. Warm ingests into a store whose keys
// were all restored through RestoreStripe (the served store after a
// restart); Cold into a fresh store that materializes keys as it goes.
// Both report ns/record.
const (
	storeBenchKeys   = 100_000
	storeBenchFrame  = 8192
	storeBenchFrames = 64
	storeBenchSpec   = "sbitmap:n=1e5,eps=0.05,seed=2"
)

// storeBenchInput returns the keys and storeBenchFrames frames of records.
func storeBenchInput() (keys []string, frameKeys [][]string, frameItems [][]uint64) {
	r := xrand.New(1)
	keys = make([]string, storeBenchKeys)
	cum := make([]float64, storeBenchKeys)
	total := 0.0
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x", xrand.Mix64(uint64(i)))
		total += math.Exp(r.Float64() * math.Log(1e4))
		cum[i] = total
	}
	for f := 0; f < storeBenchFrames; f++ {
		fk := make([]string, storeBenchFrame)
		fi := make([]uint64, storeBenchFrame)
		for i := range fk {
			fk[i] = keys[sort.SearchFloat64s(cum, r.Float64()*total)]
			fi[i] = r.Uint64n(1 << 20)
		}
		frameKeys, frameItems = append(frameKeys, fk), append(frameItems, fi)
	}
	return keys, frameKeys, frameItems
}

func BenchmarkStoreAddBatchWarm(b *testing.B) {
	keys, fk, fi := storeBenchInput()
	src, err := NewStore[string](MustSpec(storeBenchSpec))
	if err != nil {
		b.Fatal(err)
	}
	src.AddBatch64(keys, make([]uint64, len(keys)))
	for f := range fk {
		src.AddBatch64(fk[f], fi[f])
	}
	blobs, _, err := src.MarshalStripes(0)
	if err != nil {
		b.Fatal(err)
	}
	s, _ := NewStore[string](MustSpec(storeBenchSpec))
	for _, blob := range blobs {
		if _, err := s.RestoreStripe(blob); err != nil {
			b.Fatal(err)
		}
	}
	src, blobs = nil, nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % storeBenchFrames
		s.AddBatch64(fk[f], fi[f])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeBenchFrame), "ns/record")
}

func BenchmarkStoreAddBatchCold(b *testing.B) {
	_, fk, fi := storeBenchInput()
	var s *Store[string]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % storeBenchFrames
		if f == 0 {
			b.StopTimer()
			s, _ = NewStore[string](MustSpec(storeBenchSpec))
			b.StartTimer()
		}
		s.AddBatch64(fk[f], fi[f])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*storeBenchFrame), "ns/record")
}
