package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// workload is what differs between bulk and monitor; the harness owns
// hosting, setup, the twin gate, failure accounting and the metrics.
type workload interface {
	// inputs generates the run's inputs from the seed. It runs before
	// the heap baseline is read, so input memory is not charged to the
	// service.
	inputs(h *harness) error
	// config is the service configuration the workload runs under.
	config(h *harness) server.Config
	// prepare generates the data directory's contents: feed ingests one
	// frame durably, cut writes the checkpoint. Frames fed after cut form
	// the WAL tail that setup replays.
	prepare(h *harness, feed func(*frame) error, cut func() error) error
	// stream returns a fresh generator of the run's whole frame stream,
	// from the first prepared frame on, for rebuilding the twin.
	stream(h *harness) func(*frame)
	// install puts the workload's rules on the live service.
	install(h *harness) error
	// measure runs the timed phase until deadline.
	measure(h *harness, deadline time.Time) error
	// finish makes the final tick and the alert and accuracy checks.
	finish(h *harness) error
}

// frame is one add frame: records and, for a windowed store, the
// capture timestamp the whole batch carries.
type frame struct {
	keys  []string
	items []uint64
	ts    int64 // unix nanoseconds; 0 means an untimestamped frame
}

func (f *frame) encode(dst []byte) []byte {
	if f.ts != 0 {
		return server.AppendFrame64At(dst, time.Unix(0, f.ts), f.keys, f.items)
	}
	return server.AppendFrame64(dst, f.keys, f.items)
}

func (f *frame) addTo(st *sbitmap.Store[string]) int {
	if f.ts != 0 {
		return st.AddBatch64At(time.Unix(0, f.ts), f.keys, f.items)
	}
	return st.AddBatch64(f.keys, f.items)
}

// send ships the frame over the wire connection and waits for its ack,
// returning the server's changed count.
func (f *frame) send(c *wire.Client) (int, error) {
	var err error
	if f.ts != 0 {
		err = c.Send64At(time.Unix(0, f.ts), f.keys, f.items)
	} else {
		err = c.Send64(f.keys, f.items)
	}
	if err != nil {
		return 0, err
	}
	return c.Drain()
}

// failedSample stands in for the latency of a failed operation: a
// failure counts as missing any latency limit.
const failedSample = math.MaxFloat64

// samples are the raw measurements of one run.
type samples struct {
	setup, open []float64     // seconds: whole setup, server.New alone
	ack         []float64     // ms per frame
	query       []float64     // µs per query
	tick        []float64     // ms per Engine.Tick
	scanned     []float64     // keys visited per tick
	scanShare   []float64     // scanned ÷ live keys per tick
	busy        time.Duration // summed send-to-ack time
	rounds      time.Duration // summed wall time of the ingest rounds
	records     int           // records acked over the wire
	changed     int           // changed count over every ingest path
	allRecords  int           // records over every ingest path
	frames      int
	lateMax     time.Duration // open-loop generator lateness
}

// failures counts failed operations by kind.
type failures struct {
	frames   int // unacked, error-acked, or acked with a count the twin disagrees with
	queries  int // non-200 or wrong answer
	missed   int // ground-truth alert that did not fire
	spurious int // alert that the ground truth does not support
	backlog  int // open-loop frames due but never sent
	twin     int // keys whose served state differs from the twin's
}

func (f failures) total() int {
	return f.frames + f.queries + f.missed + f.spurious + f.backlog + f.twin
}

// harness hosts one run.
type harness struct {
	o   options
	sz  sizes
	dir string
	ctx context.Context

	svc *service
	w   workload
	tr  *tracer // nil on untraced runs
	lay *layers // per-layer probes; nil on untraced runs

	s    samples
	fail failures

	spec      sbitmap.Spec
	policy    wal.FsyncPolicy
	eps       float64
	ckpt      server.CheckpointInfo
	heap0     uint64
	heapEnd   uint64
	keysPrep  int // keys the prepared directory holds
	keys0     int
	keysEnd   int
	pos       int // frames ingested since setup, over every path
	tickEvery int

	alertOps            int
	precision, recall   float64
	sqErr               float64 // summed squared relative errors
	queryOps, rrmseKeys int
	gates               int
	idle                time.Time      // when the driving goroutine last got a reply
	tickWM              map[int64]bool // watermarks seen by regular ticks
	// changed holds, for every frame of the stream in order, the changed
	// count the service reported (frameFailed, frameSkipped: none).
	changed []int
	checked int // entries of changed a gate has checked

	probes map[string]hostProbe // host probes at the run's start and end
	steal  *float64             // CPU time stolen by the hypervisor while measuring; nil if unknown
}

// Markers in harness.changed for frames without a changed count.
const (
	frameFailed  = -1 // sent, but not acked: fed to the twin, count unchecked
	frameSkipped = -2 // generated but never sent: not fed to the twin
)

func newHarness(o options, dir string) *harness {
	h := &harness{o: o, sz: o.sz, dir: dir, ctx: context.Background(), tickWM: map[int64]bool{}}
	if o.trace {
		h.tr = newTracer()
	}
	return h
}

func (h *harness) close() {
	if h.svc != nil {
		h.svc.close()
		h.svc = nil
	}
	if h.lay != nil {
		h.lay.close()
	}
}

func runHarness(h *harness, w workload) error {
	h.w = w
	start, err := probeHost(h.dir)
	if err != nil {
		return err
	}
	h.probes = map[string]hostProbe{"start": start}
	if err := w.inputs(h); err != nil {
		return err
	}
	h.heap0 = liveHeap()
	cfg := w.config(h)
	h.spec, h.policy = cfg.Spec, cfg.FsyncPolicy
	if err := h.prepare(cfg, w); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if err := h.setup(cfg); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := h.gate(); err != nil {
		return err
	}
	h.keys0 = h.svc.srv.Store().Len()
	if h.tr != nil {
		lay, err := newLayers(h)
		if err != nil {
			return err
		}
		h.lay = lay
	}
	if err := w.install(h); err != nil {
		return fmt.Errorf("install rules: %w", err)
	}
	steal0, total0, stealOK := cpuSteal()
	if err := w.measure(h, time.Now().Add(time.Duration(h.o.seconds*float64(time.Second)))); err != nil {
		return fmt.Errorf("measure: %w", err)
	}
	if steal1, total1, ok := cpuSteal(); stealOK && ok && total1 > total0 {
		share := float64(steal1-steal0) / float64(total1-total0)
		h.steal = &share
	}
	if err := w.finish(h); err != nil {
		return fmt.Errorf("finish: %w", err)
	}
	if err := h.gate(); err != nil {
		return err
	}
	h.keysEnd = h.svc.srv.Store().Len()
	// h.w keeps the inputs live, so both heap readings include them.
	h.heapEnd = liveHeap()
	end, err := probeHost(h.dir)
	h.probes["end"] = end
	return err
}

// liveHeap returns the live heap bytes after full collections: two, so
// objects parked in sync.Pool victim caches are gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prepare writes the data directory through a temporary server: a
// checkpoint plus a WAL tail, exactly as a crashed or restarted sketchd
// leaves it. Each frame's changed count is logged for the twin gate.
func (h *harness) prepare(cfg server.Config, w workload) error {
	pcfg := cfg
	pcfg.FsyncPolicy = wal.FsyncNever // Close syncs; setup reads the same files
	srv, err := server.New(pcfg)
	if err != nil {
		return err
	}
	var raw []byte
	var dec server.Frame
	feed := func(f *frame) error {
		raw = f.encode(raw[:0])
		if err := dec.DecodeBorrowed(raw); err != nil {
			return err
		}
		res, err := srv.IngestFrame(raw, &dec)
		if err != nil {
			return err
		}
		h.changed = append(h.changed, res.Changed)
		return nil
	}
	cut := func() error {
		info, err := srv.Checkpoint()
		h.ckpt = info
		return err
	}
	err = w.prepare(h, feed, cut)
	h.keysPrep = srv.Store().Len()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// setup starts the service on the prepared directory several times and
// keeps the last instance. Each sample runs from server.New until both
// listeners answer and the HTTP face reports every key restored.
func (h *harness) setup(cfg server.Config) error {
	for i := 0; i < h.sz.setups; i++ {
		if h.svc != nil {
			if err := h.svc.close(); err != nil {
				return err
			}
			h.svc = nil
		}
		runtime.GC()
		start := time.Now()
		svc, open, err := startService(cfg)
		if err != nil {
			return err
		}
		h.svc = svc
		st, err := svc.client.Stats(h.ctx)
		if err != nil {
			return err
		}
		if st.Keys != h.keysPrep {
			return fmt.Errorf("restored %d keys, want %d", st.Keys, h.keysPrep)
		}
		conn, err := net.Dial("tcp", svc.ws.Addr().String())
		if err != nil {
			return err
		}
		conn.Close()
		h.s.setup = append(h.s.setup, time.Since(start).Seconds())
		h.s.open = append(h.s.open, open.Seconds())
	}
	return nil
}

// gate checks that the served store is bit-identical to a twin: the
// same keys, and byte-equal marshaled state for every key. The twin
// lives only for the check: it is rebuilt by replaying the workload's
// frame stream from the start into a fresh Store, checking each frame's
// logged changed count, so it is never on the heap while the service is
// measured. Each differing key counts one failure.
func (h *harness) gate() error {
	h.gates++
	twin, err := sbitmap.NewStore[string](h.spec)
	if err != nil {
		return err
	}
	next := h.w.stream(h)
	var f frame
	for i, ch := range h.changed {
		next(&f)
		if ch == frameSkipped {
			continue
		}
		// A count is checked once, at the first gate that replays it.
		if tw := f.addTo(twin); ch != frameFailed && tw != ch && i >= h.checked {
			h.fail.frames++
		}
	}
	h.checked = len(h.changed)
	want := make(map[string]string, twin.Len())
	twin.ForEach(func(k string, c sbitmap.Counter) bool {
		blob, err := sbitmap.Marshal(c)
		if err != nil {
			h.fail.twin++
			return true
		}
		want[k] = string(blob)
		return true
	})
	served := h.svc.srv.Store()
	served.ForEach(func(k string, c sbitmap.Counter) bool {
		blob, err := sbitmap.Marshal(c)
		wb, ok := want[k]
		if err != nil || !ok || wb != string(blob) {
			h.fail.twin++
		}
		delete(want, k)
		return true
	})
	h.fail.twin += len(want)
	wm, late, _ := served.WindowState()
	twm, tlate, _ := twin.WindowState()
	if wm != twm || late != tlate {
		h.fail.twin++
	}
	return nil
}

// ingest sends one frame over the wire, timing its ack from from, and
// logs its acked changed count for the twin gate.
func (h *harness) ingest(f *frame, from time.Time) {
	sent := time.Now()
	ch, err := f.send(h.svc.wc)
	acked := time.Now()
	h.idle = acked
	h.s.frames++
	h.pos++
	if err != nil {
		h.fail.frames++
		h.s.ack = append(h.s.ack, failedSample)
		h.changed = append(h.changed, frameFailed)
		return
	}
	h.changed = append(h.changed, ch)
	h.s.ack = append(h.s.ack, ms(acked.Sub(from)))
	h.s.busy += acked.Sub(sent)
	h.s.records += len(f.keys)
	h.s.allRecords += len(f.keys)
	h.s.changed += ch
}

// tick runs one rules evaluation pass and records its cost. A regular
// tick sits at a fixed stream position; the watermarks regular ticks
// saw are recorded for the monitor's ground truth.
func (h *harness) tick(regular bool) {
	h.tr.next()
	h.tr.begin("rules.tick")
	start := time.Now()
	res := h.svc.srv.Rules().Tick(time.Now())
	h.idle = time.Now()
	d := h.idle.Sub(start)
	h.tr.end()
	h.s.tick = append(h.s.tick, ms(d))
	h.s.scanned = append(h.s.scanned, float64(res.Scanned))
	st := h.svc.srv.Store()
	if n := st.Len(); n > 0 {
		h.s.scanShare = append(h.s.scanShare, float64(res.Scanned)/float64(n))
	}
	if wm, _, ok := st.WindowState(); ok && regular {
		h.tickWM[wm] = true
	}
}

// maybeTick ticks at every tickEvery-th frame position.
func (h *harness) maybeTick() {
	if h.pos%h.tickEvery == 0 {
		h.tick(true)
	}
}

// scoreAlerts compares the firing (rule, key) pairs with the ground
// truth: every required pair must fire, and only allowed pairs may.
func (h *harness) scoreAlerts(fired, required, allowed map[string]bool) {
	good, hit := 0, 0
	for k := range fired {
		if allowed[k] {
			good++
		} else {
			h.fail.spurious++
		}
		if required[k] {
			hit++
		}
	}
	h.fail.missed += len(required) - hit
	h.alertOps = len(required) + len(fired) - hit
	h.precision, h.recall = 1, 1
	if len(fired) > 0 {
		h.precision = float64(good) / float64(len(fired))
	}
	if len(required) > 0 {
		h.recall = float64(hit) / float64(len(required))
	}
}

// firedAlerts reads the alert history through the served API and
// returns the (rule, key) pairs that fired, for the given rules.
func (h *harness) firedAlerts(ruleIDs ...string) (map[string]bool, error) {
	alerts, err := h.svc.client.Alerts(h.ctx, 0)
	if err != nil {
		return nil, err
	}
	st := h.svc.srv.Rules().Stats()
	if int64(len(alerts)) < st.AlertsFired+st.AlertsResolved {
		return nil, errors.New("alert history overflowed its ring; raise the ring size")
	}
	want := map[string]bool{}
	for _, id := range ruleIDs {
		want[id] = true
	}
	fired := map[string]bool{}
	for _, a := range alerts {
		if a.State == "firing" && want[a.Rule] {
			fired[a.Rule+"/"+a.Key] = true
		}
	}
	return fired, nil
}

// scoreEstimates adds served estimates of keys, fetched through the
// batched estimate endpoint, to the rrmse against their exact counts.
func (h *harness) scoreEstimates(keys []string, exact []int) error {
	const batch = 400
	for lo := 0; lo < len(keys); lo += batch {
		hi := min(lo+batch, len(keys))
		res, err := h.svc.client.EstimateMulti(h.ctx, keys[lo:hi])
		if err != nil {
			return err
		}
		for i, r := range res {
			if !r.OK {
				h.fail.queries++
				continue
			}
			h.addError(r.Estimate, exact[lo+i])
		}
	}
	return nil
}

// addError adds one key's relative error to the rrmse.
func (h *harness) addError(est float64, exact int) {
	if exact <= 0 {
		return
	}
	e := (est - float64(exact)) / float64(exact)
	h.sqErr += e * e
	h.rrmseKeys++
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// service is one hosted sketchd: the server, its wire and HTTP
// listeners on loopback, and the two clients the benchmark drives it
// with (one connection each).
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	ws     *wire.Server
	tr     *http.Transport
	client *server.Client
	wc     *wire.Client
}

// startService composes the service as cmd/sketchd does and returns it
// with the time server.New took.
func startService(cfg server.Config) (*service, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(cfg)
	open := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		srv.Close()
		return nil, 0, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(hln) }()
	s.ws = wire.Serve(wln, srv)
	s.tr = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	s.client = server.NewClient("http://"+hln.Addr().String(), server.WithHTTPClient(&http.Client{Transport: s.tr}))
	s.wc = wire.NewClient(wln.Addr().String())
	return s, open, nil
}

// close stops the listeners, waits for the HTTP server to return, and
// closes the server's WAL.
func (s *service) close() error {
	s.wc.Close()
	s.tr.CloseIdleConnections()
	werr := s.ws.Close()
	herr := s.hs.Close()
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) && herr == nil {
		herr = err
	}
	return errors.Join(werr, herr, s.srv.Close())
}

// workPath names a path inside the run's directory.
func (h *harness) workPath(name string) string { return filepath.Join(h.dir, name) }
