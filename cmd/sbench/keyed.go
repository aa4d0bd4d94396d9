package main

// The keyed pseudo-experiment measures the Store at the paper's headline
// scale — "millions of users": ≥10^6 keys, one tiny S-bitmap each, fed
// keyed record streams under two localities: "scattered" (round-robin
// across all keys — worst-case key locality, every batch touches ~batch
// distinct keys) and "clustered" (each key's records contiguous — the
// exporter-flush pattern, where batch grouping amortizes the per-key
// work). It reports cold ingest (every record may materialize a counter),
// warm ingest (steady state), per-record vs keyed-batch path, and the
// resident footprint per key. `sbench -run keyed -json BENCH_keyed.json`
// regenerates the repo's tracked BENCH_keyed.json (absolute rates are
// machine-dependent; the batch/per-item speedups and bytes/key are the
// stable signal).

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	sbitmap "repro"
	"repro/internal/stream"
	"repro/internal/xrand"
)

const (
	keyedKeys     = 1 << 20 // ≥ 1e6 distinct keys
	keyedSpreadLo = 1       // per-key distinct items, uniform in [lo, hi]
	keyedSpreadHi = 8
	keyedDup      = 1.5 // records per distinct item
	keyedBatch    = 4096
	keyedSpec     = "sbitmap:n=1e4,eps=0.1" // per-key sketch (tiny, as deployed)
)

type keyedResult struct {
	Locality      string  `json:"locality"` // "scattered" or "clustered"
	Path          string  `json:"path"`     // "peritem" or "batch"
	Phase         string  `json:"phase"`    // "cold" (first pass) or "warm" (steady state)
	RecordsPerSec float64 `json:"records_per_sec"`
}

type keyedReport struct {
	Schema string `json:"schema"`
	Config struct {
		Keys     int     `json:"keys"`
		Records  int     `json:"records"`
		Dup      float64 `json:"dup"`
		BatchLen int     `json:"batch_len"`
		Spec     string  `json:"spec"`
	} `json:"config"`
	Results []keyedResult `json:"results"`
	Store   struct {
		Keys           int     `json:"keys"`
		SizeBits       int     `json:"size_bits"`
		FootprintBytes int     `json:"footprint_bytes"`
		BytesPerKey    float64 `json:"bytes_per_key"`
		MeanAbsRelErr  float64 `json:"mean_abs_rel_err"` // sampled keys
	} `json:"store"`
}

// keyedSpreads draws the per-key ground-truth spreads.
func keyedSpreads(seed uint64) []int {
	r := xrand.New(seed ^ 0x5eeded)
	spreads := make([]int, keyedKeys)
	for i := range spreads {
		spreads[i] = keyedSpreadLo + r.Intn(keyedSpreadHi-keyedSpreadLo+1)
	}
	return spreads
}

// keyedPass drives one full pass of the workload into sink, in batches of
// keyedBatch records. locality "scattered" replays the KeyedSpread
// round-robin order; "clustered" emits each key's records contiguously
// (same keys, same per-key spreads, own item identities — ground truth is
// identical).
func keyedPass(records *stream.KeyedSpread, spreads []int, locality string, sink func(keys, items []uint64)) {
	kbuf := make([]uint64, keyedBatch)
	ibuf := make([]uint64, keyedBatch)
	if locality == "scattered" {
		records.Reset()
		stream.ForEachRecordBatch(records, kbuf, ibuf, sink)
		return
	}
	n := 0
	flush := func() {
		if n > 0 {
			sink(kbuf[:n], ibuf[:n])
			n = 0
		}
	}
	for k, spread := range spreads {
		key := records.Key(k)
		recs := int(float64(spread)*keyedDup + 0.5)
		if recs < spread {
			recs = spread
		}
		for i := 0; i < recs; i++ {
			if n == keyedBatch {
				flush()
			}
			kbuf[n] = key
			ibuf[n] = xrand.Mix64(key ^ (0xc1a5 + uint64(i%spread)))
			n++
		}
	}
	flush()
}

// runKeyed measures keyed ingest at the million-key scale and prints a
// table; jsonPath != "" additionally writes the machine-readable report.
func runKeyed(jsonPath string, seed uint64) error {
	spec, err := sbitmap.ParseSpec(keyedSpec)
	if err != nil {
		return err
	}
	spec.Seed = seed
	spreads := keyedSpreads(seed)
	records := stream.NewKeyedSpread(spreads, keyedDup, seed)

	report := keyedReport{Schema: "sbitmap-keyed/v2"}
	report.Config.Keys = records.Keys()
	report.Config.Records = records.Records()
	report.Config.Dup = keyedDup
	report.Config.BatchLen = keyedBatch
	report.Config.Spec = spec.String()

	fmt.Printf("keyed store ingest, %d keys, %d records, spec %s, batch=%d\n\n",
		records.Keys(), records.Records(), spec, keyedBatch)
	fmt.Printf("%-11s %-7s %14s %14s %8s\n", "locality", "phase", "per-item/s", "batch/s", "speedup")

	var scatteredBatchStore *sbitmap.Store[uint64]
	for _, locality := range []string{"scattered", "clustered"} {
		var rates [2][2]float64 // [path][phase], path 0 = peritem
		for pi, path := range []string{"peritem", "batch"} {
			store, err := sbitmap.NewStore[uint64](spec)
			if err != nil {
				return err
			}
			sink := func(keys, items []uint64) {
				if path == "batch" {
					store.AddBatch64(keys, items)
				} else {
					for i := range keys {
						store.AddUint64(keys[i], items[i])
					}
				}
			}
			for phi, phase := range []string{"cold", "warm"} {
				start := time.Now()
				keyedPass(records, spreads, locality, sink)
				rate := float64(records.Records()) / time.Since(start).Seconds()
				rates[pi][phi] = rate
				report.Results = append(report.Results, keyedResult{
					Locality: locality, Path: path, Phase: phase, RecordsPerSec: rate,
				})
			}
			if locality == "scattered" && path == "batch" {
				scatteredBatchStore = store
			}
		}
		for phi, phase := range []string{"cold", "warm"} {
			fmt.Printf("%-11s %-7s %14.3e %14.3e %7.2fx\n",
				locality, phase, rates[0][phi], rates[1][phi], rates[1][phi]/rates[0][phi])
		}
	}

	store := scatteredBatchStore
	report.Store.Keys = store.Len()
	report.Store.SizeBits = store.SizeBits()
	report.Store.FootprintBytes = store.Footprint()
	report.Store.BytesPerKey = float64(report.Store.FootprintBytes) / float64(report.Store.Keys)

	// Accuracy spot check over a deterministic key sample: per-key sketches
	// at eps=0.1 should sit well inside ±35% at these tiny spreads.
	var absErr float64
	const sample = 2000
	for i := 0; i < sample; i++ {
		k := i * (keyedKeys / sample)
		est, ok := store.Estimate(records.Key(k))
		if !ok {
			return fmt.Errorf("keyed: key %d missing after ingest", k)
		}
		absErr += math.Abs(est/float64(spreads[k]) - 1)
	}
	report.Store.MeanAbsRelErr = absErr / sample

	fmt.Printf("\nstore: %d keys, %d sketch bits, %.1f B/key resident, mean |rel err| %.1f%% (%d-key sample)\n",
		report.Store.Keys, report.Store.SizeBits, report.Store.BytesPerKey,
		100*report.Store.MeanAbsRelErr, sample)

	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("(json: %s)\n", jsonPath)
	}
	return nil
}
