package main

import (
	"fmt"
	"math"
	"time"

	sbitmap "repro"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// The bulk workload: closed-loop ingest of large frames over a warm key
// population far larger than the L2 cache, so the Store's per-record
// path (key lookup, routing, sketch probe) dominates. Every key is
// restored at setup; the timed frames revisit them with log-uniform
// weights, so per-key counts span three orders of magnitude. One
// prefix rule watches a small "h/" key family whose counts sit far from
// its threshold; it never runs on the ingest path, and its ticks time
// the Store's full dirty scan.
const (
	bulkSpec      = "sbitmap:n=1e5,eps=0.05,seed=%d"
	bulkEps       = 0.05
	bulkThreshold = 1000 // the heavy rule's threshold
	bulkMaxWeight = 1e4  // key weights are log-uniform in [1, bulkMaxWeight]
	bulkNewShare  = 0.7  // share of timed records that carry a new item
)

type bulk struct {
	gen    *bulkGen
	start  *bulkGen // the generator before its first frame
	frames []frame
	qrng   *xrand.Rand
	qkeys  []string
}

func (b *bulk) inputs(h *harness) error {
	b.gen = newBulkGen(h.o.seed, h.sz.bulkKeys, h.sz.bulkHeavy)
	b.start = b.gen.clone()
	b.frames = make([]frame, h.sz.bulkRound)
	for i := range b.frames {
		b.frames[i] = frame{keys: make([]string, 0, h.sz.bulkFrame), items: make([]uint64, 0, h.sz.bulkFrame)}
	}
	b.qrng = xrand.New(h.o.seed ^ 0x9e3779b97f4a7c15)
	b.qkeys = make([]string, h.sz.bulkQueries)
	h.tickEvery = h.sz.bulkRound
	h.eps = bulkEps
	return nil
}

func (b *bulk) config(h *harness) server.Config {
	return server.Config{
		Spec:          sbitmap.MustSpec(fmt.Sprintf(bulkSpec, h.o.seed%1_000_000_007+1)),
		CheckpointDir: h.workPath("checkpoint"),
		WALDir:        h.workPath("wal"),
		FsyncPolicy:   wal.FsyncAlways,
		AlertRing:     4096,
	}
}

func (b *bulk) prepare(h *harness, feed func(*frame) error, cut func() error) error {
	f := &b.frames[0]
	for i := 0; i < h.sz.bulkPrefix+h.sz.bulkTail; i++ {
		if i == h.sz.bulkPrefix {
			if err := cut(); err != nil {
				return err
			}
		}
		b.gen.fill(f, h.sz.bulkFrame)
		if err := feed(f); err != nil {
			return err
		}
	}
	if len(b.gen.pending) > 0 {
		return fmt.Errorf("prefix of %d frames too short for the %d-record key sweep", h.sz.bulkPrefix, len(b.gen.pending))
	}
	return nil
}

func (b *bulk) stream(h *harness) func(*frame) {
	g := b.start.clone()
	return func(f *frame) { g.fill(f, h.sz.bulkFrame) }
}

func (b *bulk) install(h *harness) error {
	_, err := h.svc.client.PutRule(h.ctx, rules.Spec{
		ID: "heavy", Type: rules.TypePrefix, Prefix: "h/", Threshold: bulkThreshold,
	})
	if err != nil {
		return err
	}
	h.tick(true)
	return nil
}

// measure alternates rounds until the deadline: a closed-loop ingest
// round over the wire (ticking at its end), a round of point queries on
// the quiescent store, and on traced runs the same work through the
// in-process layers. An ingest round is timed from its first send to
// its last ack, client encoding and the benchmark's own bookkeeping
// included.
func (b *bulk) measure(h *harness, deadline time.Time) error {
	for time.Now().Before(deadline) {
		b.fillRound(h)
		start := time.Now()
		for i := range b.frames {
			h.ingest(&b.frames[i], time.Now())
		}
		h.s.rounds += time.Since(start)
		h.maybeTick()
		b.pickKeys()
		for _, k := range b.qkeys {
			h.queryEstimate(k)
		}
		if h.tr == nil {
			continue
		}
		b.fillRound(h)
		if err := h.ingestLayers(b.frames, h.tr); err != nil {
			return err
		}
		b.fillRound(h)
		if err := h.ingestLayers(b.frames, nil); err != nil {
			return err
		}
		b.pickKeys()
		h.queryLayers(b.qkeys, 0)
	}
	return nil
}

func (b *bulk) fillRound(h *harness) {
	for i := range b.frames {
		b.gen.fill(&b.frames[i], h.sz.bulkFrame)
	}
}

func (b *bulk) pickKeys() {
	for i := range b.qkeys {
		b.qkeys[i] = b.gen.keys[b.qrng.Intn(len(b.gen.keys))]
	}
}

func (b *bulk) finish(h *harness) error {
	h.tick(false)
	fired, err := h.firedAlerts("heavy")
	if err != nil {
		return err
	}
	truth := map[string]bool{}
	for i := b.gen.n; i < len(b.gen.keys); i++ {
		if b.gen.counts[i] > bulkThreshold {
			truth["heavy/"+b.gen.keys[i]] = true
		}
	}
	h.scoreAlerts(fired, truth, truth)
	return h.scoreEstimates(b.gen.keys, b.gen.counts)
}

// queryEstimate reads one key's estimate over HTTP on the quiescent
// store and checks it against the served store's own answer (which the
// twin gate in turn checks against the acked frames).
func (h *harness) queryEstimate(key string) {
	start := time.Now()
	est, ok, err := h.svc.client.Estimate(h.ctx, key)
	d := time.Since(start)
	want, wok := h.svc.srv.Store().Estimate(key)
	if err != nil || ok != wok || est != want {
		h.fail.queries++
		h.s.query = append(h.s.query, failedSample)
		return
	}
	h.s.query = append(h.s.query, us(d))
}

// bulkGen generates the bulk records with exact per-key counts. Keys
// [0, n) are the weighted population; keys [n, len) are the heavy-rule
// family, emitted whole in the prefix.
type bulkGen struct {
	keys   []string
	seeds  []uint64
	counts []int // exact distinct items emitted per key
	n      int
	prob   []float64 // alias table over the weighted keys
	alias  []int32
	rng    *xrand.Rand
	// pending is the prefix's opening: every weighted key once, then the
	// heavy keys' items round-robin.
	pending []int32
}

func newBulkGen(seed uint64, n, heavy int) *bulkGen {
	rng := xrand.New(seed)
	g := &bulkGen{n: n, rng: rng}
	for i := 0; i < n; i++ {
		g.keys = append(g.keys, fmt.Sprintf("%016x", xrand.Mix64(seed<<24+uint64(i))))
	}
	spreads := make([]int, heavy)
	for j := range spreads {
		g.keys = append(g.keys, fmt.Sprintf("h/%04d", j))
		if j%2 == 0 {
			spreads[j] = 3*bulkThreshold + rng.Intn(2*bulkThreshold) // well above
		} else {
			spreads[j] = bulkThreshold/6 + rng.Intn(bulkThreshold/6) // well below
		}
	}
	g.seeds = make([]uint64, len(g.keys))
	for i := range g.seeds {
		g.seeds[i] = rng.Uint64()
	}
	g.counts = make([]int, len(g.keys))

	w := make([]float64, n)
	for i := range w {
		w[i] = math.Exp(rng.Float64() * math.Log(bulkMaxWeight))
	}
	g.prob, g.alias = aliasTable(w)

	for _, i := range rng.Perm(n) {
		g.pending = append(g.pending, int32(i))
	}
	for r := 0; ; r++ {
		more := false
		for j, s := range spreads {
			if r < s {
				g.pending = append(g.pending, int32(n+j))
				more = true
			}
		}
		if !more {
			break
		}
	}
	return g
}

// clone returns an independent generator in g's current state.
func (g *bulkGen) clone() *bulkGen {
	c := *g
	rng := *g.rng
	c.rng = &rng
	c.counts = append([]int(nil), g.counts...)
	return &c
}

// fill replaces f's records with the next size records of the stream.
func (g *bulkGen) fill(f *frame, size int) {
	f.keys, f.items = f.keys[:0], f.items[:0]
	for len(f.keys) < size {
		var i int
		if len(g.pending) > 0 {
			i = int(g.pending[0])
			g.pending = g.pending[1:]
		} else {
			i = g.sample()
			if c := g.counts[i]; c > 0 && g.rng.Float64() >= bulkNewShare {
				f.keys = append(f.keys, g.keys[i])
				f.items = append(f.items, xrand.Mix64(g.seeds[i]+g.rng.Uint64n(uint64(c))))
				continue
			}
		}
		f.keys = append(f.keys, g.keys[i])
		f.items = append(f.items, xrand.Mix64(g.seeds[i]+uint64(g.counts[i])))
		g.counts[i]++
	}
}

// sample draws a weighted key index in O(1) from the alias table.
func (g *bulkGen) sample() int {
	i := g.rng.Intn(len(g.prob))
	if g.rng.Float64() < g.prob[i] {
		return i
	}
	return int(g.alias[i])
}

// aliasTable builds Vose's alias tables for weights w.
func aliasTable(w []float64) ([]float64, []int32) {
	n := len(w)
	var sum float64
	for _, x := range w {
		sum += x
	}
	prob := make([]float64, n)
	alias := make([]int32, n)
	var small, large []int32
	for i, x := range w {
		prob[i] = x * float64(n) / sum
		if prob[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small = small[:len(small)-1]
		alias[s] = l
		prob[l] += prob[s] - 1
		if prob[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
	}
	for _, i := range small {
		prob[i] = 1
	}
	return prob, alias
}
