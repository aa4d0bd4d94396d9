package main

import (
	"fmt"
	"sync/atomic"
	"time"

	sbitmap "repro"
	"repro/internal/rules"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// The monitor workload: the paper's Section 7 per-link monitor as an
// open loop. Small timestamped frames arrive at a fixed offered rate,
// far below bulk capacity; each is appended to the WAL (fsync=never)
// before its ack. The traffic is a sequence of scan traces, one per
// sub-window ("epoch"): background sources plus a few scanners, with
// fresh keys each epoch. Standing rules (a superspreader prefix rule, a
// movers rule and threshold rules) are ticked every few frames, and a
// second connection reads window estimates at a fixed rate while the
// writes run.
const (
	monSpec      = "sbitmap:n=1e4,eps=0.05,seed=%d/windowed(width=1m,ring=4)"
	monEps       = 0.05
	monWidth     = time.Minute
	monThreshold = 400 // background spreads stay far below, scanners far above
	monPrepared  = 2   // epochs in the data directory: checkpoint, then WAL tail
)

// monEpoch0 is the start of epoch 0's sub-window (aligned to the width).
var monEpoch0 = time.Unix(1_700_000_000, 0).Truncate(monWidth).UnixNano()

type monitor struct {
	gen    *monGen
	f      frame
	frames []frame
	target atomic.Pointer[epoch] // the epoch window queries read from
	qrng   *xrand.Rand
	qs     []querySample
	qkeys  []string
}

// querySample is one window read of the open loop, checked after the run.
type querySample struct {
	key     string
	epoch   int
	est     float64
	startNs int64
	lat     float64 // µs from due
	err     bool
}

func (m *monitor) inputs(h *harness) error {
	m.gen = &monGen{seed: h.o.seed, sz: h.sz}
	m.frames = make([]frame, h.sz.monBlock)
	m.qrng = xrand.New(h.o.seed ^ 0x6a09e667f3bcc908)
	m.qkeys = make([]string, 32)
	h.tickEvery = h.sz.monTickEvery
	h.eps = monEps
	// Every epoch an untraced run reaches is generated now, so the key
	// tables count as inputs, not as service heap.
	due := int(h.sz.monRate * h.o.seconds)
	for e, frames := monPrepared, 0; frames <= due; e++ {
		frames += m.gen.epochAt(e).frames
	}
	return nil
}

func (m *monitor) config(h *harness) server.Config {
	return server.Config{
		Spec:          sbitmap.MustSpec(fmt.Sprintf(monSpec, h.o.seed%1_000_000_007+1)),
		CheckpointDir: h.workPath("checkpoint"),
		WALDir:        h.workPath("wal"),
		FsyncPolicy:   wal.FsyncNever,
		AlertRing:     4096,
	}
}

func (m *monitor) prepare(h *harness, feed func(*frame) error, cut func() error) error {
	for e := 0; e < monPrepared; e++ {
		if e == monPrepared-1 {
			if err := cut(); err != nil {
				return err
			}
		}
		for i := 0; i < m.gen.epochAt(e).frames; i++ {
			m.gen.next(&m.f)
			if err := feed(&m.f); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *monitor) stream(h *harness) func(*frame) {
	return (&monGen{seed: h.o.seed, sz: h.sz}).next
}

// watched returns the threshold rules' keys: the first scanner of each
// of the first two timed epochs, and one background key.
func (m *monitor) watched() map[string]string {
	e2, e3 := m.gen.epochAt(monPrepared), m.gen.epochAt(monPrepared+1)
	bg := m.gen.sz.monBackground
	return map[string]string{
		"watch-0":  e2.keys[bg],
		"watch-1":  e3.keys[bg],
		"watch-bg": e2.keys[0],
	}
}

func (m *monitor) install(h *harness) error {
	specs := []rules.Spec{
		{ID: "scan", Type: rules.TypePrefix, Threshold: monThreshold},
		{ID: "movers", Type: rules.TypeMovers, K: 3, MinDelta: monThreshold},
	}
	for id, key := range m.watched() {
		specs = append(specs, rules.Spec{ID: id, Type: rules.TypeThreshold, Key: key, Threshold: monThreshold})
	}
	for _, s := range specs {
		if _, err := h.svc.client.PutRule(h.ctx, s); err != nil {
			return err
		}
	}
	h.tick(true)
	m.setTarget(h, m.gen.epochAt(monPrepared-2))
	return nil
}

// measure runs the open loop until the deadline. Traced runs cut it
// into blocks and put the same work through the in-process layers
// between blocks, traced and untraced.
func (m *monitor) measure(h *harness, deadline time.Time) error {
	if h.tr == nil {
		m.openLoop(h, deadline, -1)
		return nil
	}
	for time.Now().Before(deadline) {
		m.openLoop(h, deadline, h.sz.monBlock)
		for _, tr := range []*tracer{h.tr, nil} {
			for i := range m.frames {
				m.gen.next(&m.frames[i])
			}
			if err := h.ingestLayers(m.frames, tr); err != nil {
				return err
			}
			m.publish(h)
		}
		ep := m.target.Load()
		for i := range m.qkeys {
			m.qkeys[i] = ep.keys[m.qrng.Intn(len(ep.keys))]
		}
		h.queryLayers(m.qkeys, monWidth)
	}
	return nil
}

// openLoop sends frames on a fixed schedule until the deadline (or
// limit frames, when limit >= 0), with window reads running beside it.
// Each ack is timed from the frame's due time when the generator was
// still waiting on the service then (so queueing behind a slow frame or
// tick counts), and from its send otherwise (so the generator's own
// timer overshoot, reported as gen.late_max_ms, does not). A generator
// that falls more than a second behind stops, and the frames it owed
// count as failed backlog.
func (m *monitor) openLoop(h *harness, deadline time.Time, limit int) {
	stop, done := make(chan struct{}), make(chan []querySample)
	period := time.Duration(float64(time.Second) / h.sz.monRate)
	start := time.Now()
	go m.queries(h, start, stop, done)
	for i := 0; i != limit; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			break
		}
		m.gen.next(&m.f)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		h.s.lateMax = max(h.s.lateMax, now.Sub(due))
		if now.Sub(due) > time.Second {
			owed := int((deadline.Sub(start) + period - 1) / period)
			if limit >= 0 {
				owed = min(owed, limit)
			}
			h.fail.backlog += owed - i
			h.changed = append(h.changed, frameSkipped)
			break
		}
		from := due
		if h.idle.Before(due) {
			from = now
		}
		// Each frame is its own ingest round: the loop sends none back
		// to back, and its wall time is fixed by the schedule.
		sent := time.Now()
		h.ingest(&m.f, from)
		h.s.rounds += time.Since(sent)
		m.publish(h)
		h.maybeTick()
	}
	close(stop)
	qs := <-done
	for _, q := range qs {
		if q.err {
			h.s.query = append(h.s.query, failedSample)
		} else {
			h.s.query = append(h.s.query, q.lat)
		}
	}
	m.qs = append(m.qs, qs...)
}

// publish points window reads at the epoch before the generator's
// current one: complete, so its keys all exist.
func (m *monitor) publish(h *harness) {
	if e := m.gen.cur.idx - 1; e != m.target.Load().idx {
		m.setTarget(h, m.gen.epochAt(e))
	}
}

// setTarget publishes a just-completed epoch to the window reads and
// scores the served store's estimates of its keys against their exact
// spreads while it is the last complete sub-window, the one tumbling
// estimates report.
func (m *monitor) setTarget(h *harness, ep *epoch) {
	m.target.Store(ep)
	est := make([]float64, len(ep.keys))
	ok := make([]bool, len(ep.keys))
	h.svc.srv.Store().EstimateBatch(ep.keys, est, ok)
	for k := range ep.keys {
		if !ok[k] {
			h.fail.queries++
			continue
		}
		h.addError(est[k], ep.trace.Spread(k))
	}
}

// queries reads window estimates at the fixed query rate until stop,
// each due half a frame period off the frame clock that started at
// start, so a read never shares its due instant with a write. Reads are
// timed like the frames: from due while the previous read was still
// out, from the send otherwise. It hands back its samples.
func (m *monitor) queries(h *harness, start time.Time, stop <-chan struct{}, done chan<- []querySample) {
	var out []querySample
	defer func() { done <- out }()
	period := time.Duration(float64(time.Second) / h.sz.monQueryRate)
	offset := time.Duration(float64(time.Second) / h.sz.monRate / 2)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	idle := start
	for j := 0; ; j++ {
		due := start.Add(offset + time.Duration(j)*period)
		timer.Reset(time.Until(due))
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		from := due
		if idle.Before(due) {
			from = time.Now()
		}
		ep := m.target.Load()
		key := ep.keys[m.qrng.Intn(len(ep.keys))]
		res, ok, err := h.svc.client.EstimateWindow(h.ctx, key, monWidth)
		idle = time.Now()
		lat := idle.Sub(from)
		out = append(out, querySample{
			key: key, epoch: ep.idx, est: res.Estimate, startNs: res.WindowStartUnixNano,
			lat: us(lat), err: err != nil || !ok || !res.Tumbling,
		})
	}
}

func (m *monitor) finish(h *harness) error {
	h.tick(false)
	m.checkQueries(h)

	fired, err := h.firedAlerts("scan", "watch-0", "watch-1", "watch-bg")
	if err != nil {
		return err
	}
	// Ground truth from the traces' exact spreads. A scanner must fire
	// once its epoch has been the last complete sub-window at a regular
	// tick (tumbling estimates read exactly that window, and a regular
	// tick follows enough frames to have dirtied every stripe). The
	// final tick may catch the next epoch's scanners early; they are
	// allowed, but not required.
	wm, _, _ := h.svc.srv.Store().WindowState()
	required, allowed := map[string]bool{}, map[string]bool{}
	watched := m.watched()
	for e := 0; e <= m.epochOf(wm-1); e++ {
		ep := m.gen.epochs[e]
		must := h.tickWM[int64(e)+monEpoch0/int64(monWidth)+1]
		mark := func(id string, k int) {
			if ep.trace.Spread(k) > monThreshold {
				allowed[id+"/"+ep.keys[k]] = true
				if must {
					required[id+"/"+ep.keys[k]] = true
				}
			}
		}
		for k := range ep.keys {
			mark("scan", k)
		}
		for id, key := range watched {
			if k, ok := ep.index[key]; ok {
				mark(id, k)
			}
		}
	}
	h.scoreAlerts(fired, required, allowed)
	return nil
}

// epochOf maps a sub-window index to its epoch.
func (m *monitor) epochOf(widx int64) int {
	return int(widx - monEpoch0/int64(monWidth))
}

// checkQueries verifies every window read of the open loop. A read
// answered for the key's own epoch must equal a reference sketch fed
// that key's records; a read answered for a later window must be 0.
func (m *monitor) checkQueries(h *harness) {
	own := func(q querySample) bool { return m.epochOf(q.startNs/int64(monWidth)) == q.epoch }
	base := sbitmap.MustSpec(baseSpec(h.spec))
	refs := map[int]map[string]sbitmap.Counter{}
	for _, q := range m.qs {
		if q.err || !own(q) {
			continue
		}
		if refs[q.epoch] == nil {
			refs[q.epoch] = map[string]sbitmap.Counter{}
		}
		if refs[q.epoch][q.key] == nil {
			c, _ := base.New()
			refs[q.epoch][q.key] = c
		}
	}
	for e, byKey := range refs {
		ep := m.gen.epochs[e]
		stream.ForEachRecord(stream.NewScanTrace(ep.cfg), func(key, item uint64) {
			if c := byKey[ep.name[key]]; c != nil {
				c.AddUint64(item)
			}
		})
	}
	for _, q := range m.qs {
		want := 0.0
		if !q.err && own(q) {
			want = refs[q.epoch][q.key].Estimate()
		}
		if q.err || q.est != want {
			h.fail.queries++
		}
	}
	m.qs = nil
}

// epoch is one sub-window's scan trace.
type epoch struct {
	idx    int
	cfg    stream.ScanTraceConfig
	trace  *stream.ScanTrace
	keys   []string          // by key index
	name   map[uint64]string // stream key id -> key
	index  map[string]int
	frames int
}

// monGen emits the epochs' records as timestamped frames.
type monGen struct {
	seed    uint64
	sz      sizes
	epochs  []*epoch
	cur     *epoch
	emitted int // frames emitted from cur
	left    int // frames cur still has
	kbuf    []uint64
	ibuf    []uint64
}

// epochAt returns epoch i, generating epochs up to it.
func (g *monGen) epochAt(i int) *epoch {
	for len(g.epochs) <= i {
		idx := len(g.epochs)
		cfg := stream.ScanTraceConfig{
			BackgroundKeys: g.sz.monBackground,
			BackgroundMax:  g.sz.monBackgroundMax,
			Scanners:       g.sz.monScanners,
			ScannerLo:      g.sz.monScannerLo,
			ScannerHi:      g.sz.monScannerHi,
			Dup:            1.2,
			Seed:           xrand.Mix64(g.seed*1_000_003 + uint64(idx)),
		}
		tr := stream.NewScanTrace(cfg)
		e := &epoch{idx: idx, cfg: cfg, trace: tr, name: map[uint64]string{}, index: map[string]int{}}
		for k := 0; k < tr.NumKeys(); k++ {
			key := stream.KeyString(tr.Key(k))
			e.keys = append(e.keys, key)
			e.name[tr.Key(k)] = key
			e.index[key] = k
		}
		e.frames = (tr.Records() + g.sz.monFrame - 1) / g.sz.monFrame
		g.epochs = append(g.epochs, e)
	}
	return g.epochs[i]
}

// next fills f with the next frame, moving to the next epoch when the
// current one is spent. Frames of epoch e are stamped evenly across its
// sub-window.
func (g *monGen) next(f *frame) {
	if g.cur == nil || g.left == 0 {
		idx := 0
		if g.cur != nil {
			idx = g.cur.idx + 1
		}
		g.cur = g.epochAt(idx)
		g.emitted, g.left = 0, g.cur.frames
		g.kbuf = make([]uint64, g.sz.monFrame)
		g.ibuf = make([]uint64, g.sz.monFrame)
	}
	e := g.cur
	n := e.trace.NextRecordBatch(g.kbuf, g.ibuf)
	f.keys, f.items = f.keys[:0], f.items[:0]
	for i := 0; i < n; i++ {
		f.keys = append(f.keys, e.name[g.kbuf[i]])
		f.items = append(f.items, g.ibuf[i])
	}
	f.ts = monEpoch0 + int64(e.idx)*int64(monWidth) + int64(g.emitted)*int64(monWidth)/int64(e.frames)
	g.emitted++
	g.left--
}
