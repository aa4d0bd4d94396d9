package core

// Golden equivalence tests for the closed-form rate schedule: the original
// implementation tabulated p_k, t_b, and the 64-bit acceptance thresholds
// (one entry per bucket, ~24 bytes of auxiliary tables per bitmap BIT);
// the closed-form schedule must reproduce that implementation bit for bit.
// seedTables and oracleSketch below are verbatim replicas of the original
// table construction and insert loop, kept test-only as the oracle.

import (
	"math"
	"math/big"
	"math/bits"
	"testing"

	"repro/internal/uhash"
)

// seedTables rebuilds the rate and estimator tables exactly as the
// original newConfig did, from the config's dimensioning fields.
func seedTables(cfg *Config) (p, t []float64) {
	m, c, kMax := cfg.m, cfg.c, cfg.kMax
	p = make([]float64, m)
	logR := math.Log(cfg.r)
	scale := 1 + 1/c
	for k := 1; k <= m; k++ {
		kk := k
		if kk > kMax {
			kk = kMax
		}
		q := scale * math.Exp(float64(kk)*logR)
		pk := q * float64(m) / float64(m+1-kk)
		if pk > 1 {
			pk = 1
		}
		p[k-1] = pk
	}
	t = make([]float64, m+1)
	for b := 1; b <= m; b++ {
		bb := b
		if bb > kMax {
			bb = kMax
		}
		t[b] = c / 2 * (math.Exp(-float64(bb)*logR) - 1)
	}
	return p, t
}

// seedRateThreshold is the original math.Pow-based threshold conversion;
// the Ldexp replacement must agree everywhere it was (luckily) exact.
func seedRateThreshold(p float64, d uint) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	if p <= 0 {
		return 0
	}
	scaled := math.Ceil(p * math.Pow(2, float64(d)))
	max := math.Pow(2, float64(d))
	if scaled >= max {
		return math.MaxUint64
	}
	t := uint64(scaled)
	if d < 64 {
		return t << (64 - d)
	}
	return t
}

// goldenConfigs is the (m, N) sweep the equivalence tests run over: small,
// odd-sized, paper-quoted, and truncation-heavy shapes.
func goldenConfigs(t *testing.T) map[string]*Config {
	t.Helper()
	cfgs := make(map[string]*Config)
	mn := func(name string, m int, n float64) {
		cfg, err := NewConfigMN(m, n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfgs[name] = cfg
	}
	mn("small-m64", 64, 1e3)
	mn("odd-m777", 777, 5e4)
	mn("paper-m4000", 4000, 1<<20)
	ne, err := NewConfigNE(1e6, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["ne-1e6-3pc"] = ne
	mc, err := NewConfigMC(2000, 500)
	if err != nil {
		t.Fatal(err)
	}
	cfgs["mc-2000-500"] = mc
	return cfgs
}

// TestClosedFormMatchesSeedTables: every p_k and t_b the closed form
// produces is bit-identical to the table the original implementation
// built, and TabulateConfig reproduces both.
func TestClosedFormMatchesSeedTables(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		p, tt := seedTables(cfg)
		tab := TabulateConfig(cfg)
		for k := 1; k <= cfg.M(); k++ {
			if got, want := cfg.P(k), p[k-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: P(%d) = %x, seed table %x", name, k, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := tab.P(k), p[k-1]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: tabulated P(%d) diverges", name, k)
			}
		}
		for b := 0; b <= cfg.M(); b++ {
			if got, want := cfg.T(b), tt[b]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: T(%d) = %x, seed table %x", name, b, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := tab.T(b), tt[b]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: tabulated T(%d) diverges", name, b)
			}
		}
		if cfg.AuxBytes() >= 256 {
			t.Errorf("%s: closed-form config aux bytes = %d, want O(1) (< 256)", name, cfg.AuxBytes())
		}
		if tab.AuxBytes() < 8*cfg.M() {
			t.Errorf("%s: tabulated config aux bytes = %d, want O(m) tables", name, tab.AuxBytes())
		}
	}
}

// goldenDBits are the sampling resolutions swept by the threshold and
// sketch equivalence tests (the paper's d = 30, both shift boundaries,
// and the continuous default).
var goldenDBits = []uint{1, 8, 30, 31, 32, 33, 63, 64}

// TestThresholdScheduleMatchesSeedTable: the cached-register threshold
// progression equals the per-level threshold table the original sketch
// precomputed, at every fill level and every resolution.
func TestThresholdScheduleMatchesSeedTable(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		p, _ := seedTables(cfg)
		for _, d := range goldenDBits {
			s := NewSketch(cfg, 1, WithResolution(d))
			for l := 0; l < cfg.M(); l++ {
				want := seedRateThreshold(p[l], d)
				if got := s.sh.thresholdAt(l); got != want {
					t.Fatalf("%s d=%d: thresholdAt(%d) = %#x, seed table %#x", name, d, l, got, want)
				}
			}
			if got := s.sh.thresholdAt(cfg.M()); got != 0 {
				t.Fatalf("%s d=%d: full-bitmap threshold = %#x, want 0", name, d, got)
			}
		}
	}
}

// oracleSketch replicates the original table-driven insert loop: a
// precomputed threshold table indexed by the current fill level.
type oracleSketch struct {
	m, l       int
	thresholds []uint64
	bits       []bool
	t          []float64
}

func newOracleSketch(cfg *Config, d uint) *oracleSketch {
	p, tt := seedTables(cfg)
	o := &oracleSketch{m: cfg.m, thresholds: make([]uint64, cfg.m), bits: make([]bool, cfg.m), t: tt}
	for k := 1; k <= cfg.m; k++ {
		o.thresholds[k-1] = seedRateThreshold(p[k-1], d)
	}
	return o
}

func (o *oracleSketch) insert(hi, lo uint64) bool {
	j, _ := bits.Mul64(hi, uint64(o.m))
	if o.bits[j] {
		return false
	}
	if o.l >= o.m {
		return false
	}
	if lo >= o.thresholds[o.l] {
		return false
	}
	o.bits[j] = true
	o.l++
	return true
}

// TestSketchMatchesTableOracle drives a closed-form Sketch and the
// table-driven oracle with the same hash words over a duplicate-heavy
// stream and requires bit-identical decisions, fill level, and estimate —
// per item, for uint64 and string keys, across (m, N, dBits).
func TestSketchMatchesTableOracle(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		items := int(2 * cfg.N())
		if items > 200_000 {
			items = 200_000
		}
		for _, d := range goldenDBits {
			h := uhash.NewMixer(7)
			s := NewSketch(cfg, 7, WithResolution(d))
			o := newOracleSketch(cfg, d)
			for i := 0; i < items; i++ {
				x := uint64(i % (items/2 + 1)) // ~2× duplication
				hi, lo := h.Sum128Uint64(x)
				want := o.insert(hi, lo)
				if got := s.AddUint64(x); got != want {
					t.Fatalf("%s d=%d item %d: sketch changed=%v, oracle %v", name, d, i, got, want)
				}
			}
			if s.L() != o.l {
				t.Fatalf("%s d=%d: L = %d, oracle %d", name, d, s.L(), o.l)
			}
			b := o.l
			if kMax := cfg.KMax(); b > kMax {
				b = kMax
			}
			if got, want := s.Estimate(), o.t[b]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s d=%d: estimate %x, oracle %x", name, d, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestSketchStringAndBatchMatchOracle covers the remaining ingest paths:
// AddString against the oracle, and the batch paths against the per-item
// sketch (all four must land on the same serialized state).
func TestSketchStringAndBatchMatchOracle(t *testing.T) {
	cfg, err := NewConfigMN(1200, 3e4)
	if err != nil {
		t.Fatal(err)
	}
	const d = 30
	items64 := make([]uint64, 60_000)
	itemsStr := make([]string, len(items64))
	for i := range items64 {
		items64[i] = uint64(i % 40_000)
		itemsStr[i] = string(rune('a'+i%26)) + "-key-" + string(rune('0'+i%10))
	}

	h := uhash.NewMixer(3)
	perItem := NewSketch(cfg, 3, WithResolution(d))
	batch := NewSketch(cfg, 3, WithResolution(d))
	oracle := newOracleSketch(cfg, d)
	for _, x := range items64 {
		hi, lo := h.Sum128Uint64(x)
		if got, want := perItem.AddUint64(x), oracle.insert(hi, lo); got != want {
			t.Fatalf("uint64 item %d: sketch %v, oracle %v", x, got, want)
		}
	}
	batch.AddBatch64(items64)
	assertSameSketch(t, "batch64 vs per-item", perItem, batch)

	hs := uhash.NewMixer(5)
	perItemS := NewSketch(cfg, 5, WithResolution(d))
	batchS := NewSketch(cfg, 5, WithResolution(d))
	oracleS := newOracleSketch(cfg, d)
	for _, x := range itemsStr {
		hi, lo := hs.Sum128String(x)
		if got, want := perItemS.AddString(x), oracleS.insert(hi, lo); got != want {
			t.Fatalf("string item %q: sketch %v, oracle %v", x, got, want)
		}
	}
	batchS.AddBatchString(itemsStr)
	assertSameSketch(t, "batchString vs per-item", perItemS, batchS)
}

// TestTableBackedConfigDrivesIdenticalSketch: a Sketch running on the
// table-backed schedule (TabulateConfig) is indistinguishable from one on
// the closed form — same inserts, same state, same estimates.
func TestTableBackedConfigDrivesIdenticalSketch(t *testing.T) {
	for name, cfg := range goldenConfigs(t) {
		items := int(2 * cfg.N())
		if items > 100_000 {
			items = 100_000
		}
		for _, d := range []uint{30, 64} {
			closed := NewSketch(cfg, 11, WithResolution(d))
			tabbed := NewSketch(TabulateConfig(cfg), 11, WithResolution(d))
			for i := 0; i < items; i++ {
				x := uint64(i%(items/2+1)) * 0x9e3779b97f4a7c15
				if got, want := closed.AddUint64(x), tabbed.AddUint64(x); got != want {
					t.Fatalf("%s d=%d item %d: closed %v, table %v", name, d, i, got, want)
				}
			}
			assertSameSketch(t, name, closed, tabbed)
			if a, b := closed.Estimate(), tabbed.Estimate(); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s d=%d: estimates diverge: %v vs %v", name, d, a, b)
			}
		}
	}
}

func assertSameSketch(t *testing.T, label string, a, b *Sketch) {
	t.Helper()
	if a.L() != b.L() {
		t.Fatalf("%s: L %d vs %d", label, a.L(), b.L())
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("%s: serialized states differ", label)
	}
}

// TestRateThresholdExact verifies the Ldexp-based conversion against exact
// integer arithmetic: for every d ∈ [1, 64] the accepted count must be
// ⌈p·2^d⌉ computed without floating point (math/big), and must agree with
// the original Pow-based conversion wherever that one was exact.
func TestRateThresholdExact(t *testing.T) {
	cfg, err := NewConfigMN(500, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.5, 0.25, 1 - 1e-9, 1e-300, math.Nextafter(1, 0), 0x1.fffffep-7}
	for k := 1; k <= cfg.M(); k += 17 {
		rates = append(rates, cfg.P(k))
	}
	for _, p := range rates {
		if p <= 0 || p >= 1 {
			continue
		}
		for d := uint(1); d <= 64; d++ {
			got := rateThreshold(p, d)
			// Exact ⌈p·2^d⌉: p = fr·2^e with fr ∈ [0.5, 1).
			fr, e := math.Frexp(p)
			mant := new(big.Int).SetUint64(uint64(math.Ldexp(fr, 53))) // p = mant·2^(e−53)
			shift := int(d) + e - 53
			exact := new(big.Int)
			if shift >= 0 {
				exact.Lsh(mant, uint(shift))
			} else {
				// ceil(mant / 2^-shift)
				div := new(big.Int).Lsh(big.NewInt(1), uint(-shift))
				rem := new(big.Int)
				exact.DivMod(mant, div, rem)
				if rem.Sign() != 0 {
					exact.Add(exact, big.NewInt(1))
				}
			}
			limit := new(big.Int).Lsh(big.NewInt(1), d)
			var want uint64
			if exact.Cmp(limit) >= 0 {
				want = math.MaxUint64
			} else {
				want = exact.Uint64()
				if d < 64 {
					want <<= 64 - d
				}
			}
			if got != want {
				t.Fatalf("rateThreshold(%x, %d) = %#x, exact %#x", math.Float64bits(p), d, got, want)
			}
			if old := seedRateThreshold(p, d); old != got {
				t.Errorf("rateThreshold(%x, %d) = %#x diverges from Pow-based %#x", math.Float64bits(p), d, got, old)
			}
		}
	}
}

// TestConstructionCostIndependentOfM: dimensioning a Config and building a
// Sketch performs a fixed number of allocations regardless of m — the
// closed-form schedule attaches no per-bucket tables.
func TestConstructionCostIndependentOfM(t *testing.T) {
	allocs := func(m int) float64 {
		return testing.AllocsPerRun(20, func() {
			cfg, err := NewConfigMN(m, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			_ = NewSketch(cfg, 1)
		})
	}
	small, large := allocs(512), allocs(1<<20)
	if small != large {
		t.Errorf("construction allocations grow with m: %v at m=512, %v at m=2^20", small, large)
	}
}
