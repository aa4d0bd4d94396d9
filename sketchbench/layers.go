package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"time"
	"unsafe"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// span is one timed call into a layer. Spans of one frame or query
// share an id; parent indexes the enclosing span (-1 for a root).
type span struct {
	id     uint32
	parent int32
	name   string
	start  time.Duration // since the tracer's origin
	dur    time.Duration
}

// tracer keeps spans in memory for the whole run and writes them out at
// the end. Every method is a no-op on a nil tracer, so the untraced
// path runs the same code without reading the clock.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int32
	id     uint32
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// next starts a new request: following spans share a fresh id.
func (t *tracer) next() {
	if t != nil {
		t.id++
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{id: t.id, parent: parent, name: name, start: time.Since(t.origin)})
	t.open = append(t.open, int32(len(t.spans)-1))
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].dur = time.Since(t.origin) - t.spans[i].start
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	self time.Duration // summed duration minus time covered by child spans
	durs []float64     // each span's duration, ns
}

// stats folds the spans into per-name self times and durations.
func (t *tracer) stats() map[string]*layerStat {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur
		}
	}
	out := map[string]*layerStat{}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{}
			out[s.name] = st
		}
		st.self += s.dur - child[i]
		st.durs = append(st.durs, float64(s.dur))
	}
	return out
}

// dump writes every span as a tab-separated line: id, parent, name,
// start and duration in nanoseconds.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tdur_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, int64(s.start), int64(s.dur))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers feeds frames and queries through each layer's public entry
// point in-process: the server's zero-copy frame decode, a WAL with the
// service's fsync policy, the served Store, the rules engine, and one
// bare sketch of the spec as the one-hash, one-probe floor.
type layers struct {
	log    *wal.Log
	sketch sbitmap.Counter
	dec    server.Frame
	raw    []byte

	tracedRecs, untracedRecs int
	tracedWall, untracedWall time.Duration
}

// walTag is the record type byte the server puts before a logged frame.
var walTag = []byte{1}

func newLayers(h *harness) (*layers, error) {
	base, err := sbitmap.ParseSpec(baseSpec(h.spec))
	if err != nil {
		return nil, err
	}
	sk, err := base.New()
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(wal.Options{Dir: h.workPath("layer-wal"), Policy: h.policy})
	if err != nil {
		return nil, err
	}
	return &layers{log: log, sketch: sk}, nil
}

func (l *layers) close() { l.log.Close() }

// baseSpec strips a windowed(...) modifier: the spec of one sub-window
// sketch.
func baseSpec(s sbitmap.Spec) string {
	s.Window, s.Ring = 0, 0
	return s.String()
}

// ingestLayers runs frames through the layers, traced with tr (nil for
// the untraced comparison pass). The frames land in the served store
// and their changed counts are logged like wire frames', so the twin
// gate still covers them.
func (h *harness) ingestLayers(frames []frame, tr *tracer) error {
	l := h.lay
	st := h.svc.srv.Store()
	eng := h.svc.srv.Rules()
	l.sketch.Reset()
	for i := range frames {
		f := &frames[i]
		l.raw = f.encode(l.raw[:0])
		start := time.Now()
		tr.next()
		tr.begin("ingest")
		tr.begin("frame.decode")
		err := l.dec.DecodeBorrowed(l.raw)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("wal.append")
		_, err = l.log.Append(walTag, l.raw)
		tr.end()
		if err != nil {
			return err
		}
		tr.begin("store.add")
		var ch int
		if l.dec.HasTS {
			ch = st.AddBatch64At(time.Unix(0, l.dec.TSNanos), l.dec.Keys, l.dec.Items64)
		} else {
			ch = st.AddBatch64(l.dec.Keys, l.dec.Items64)
		}
		tr.end()
		tr.begin("rules.observe")
		eng.ObserveIngest(l.dec.Keys, time.Now(), uintptr(unsafe.Pointer(l)))
		tr.end()
		tr.end()
		tr.begin("sketch.add")
		sbitmap.AddBatch64(l.sketch, f.items)
		tr.end()
		wall := time.Since(start)
		if tr != nil {
			l.tracedRecs += len(f.keys)
			l.tracedWall += wall
		} else {
			l.untracedRecs += len(f.keys)
			l.untracedWall += wall
		}
		h.changed = append(h.changed, ch)
		h.s.allRecords += len(f.keys)
		h.s.changed += ch
		h.pos++
		h.maybeTick()
	}
	// Keep the probe log from growing without bound; the active segment
	// stays, older ones go.
	return l.log.TruncateBefore(l.log.NextLSN())
}

// queryLayers times the estimate path below the network: the Store
// call, then the HTTP handler on an in-memory request. window > 0 adds
// the windowed store call and a ?window= request.
func (h *harness) queryLayers(keys []string, window time.Duration) {
	st := h.svc.srv.Store()
	for _, k := range keys {
		target := "/v1/estimate?key=" + url.QueryEscape(k)
		if window > 0 {
			target += "&window=" + window.String()
		}
		req := httptest.NewRequest("GET", target, nil)
		rec := httptest.NewRecorder()
		h.tr.next()
		h.tr.begin("store.estimate")
		st.Estimate(k)
		h.tr.end()
		if window > 0 {
			h.tr.begin("store.estimate_window")
			st.EstimateWindow(k, window)
			h.tr.end()
		}
		h.tr.begin("http.estimate")
		h.svc.srv.ServeHTTP(rec, req)
		h.tr.end()
		if rec.Code != 200 {
			h.fail.queries++
		}
		h.queryOps++
	}
}

// layerMetrics computes the per-layer metrics of a traced run.
func (h *harness) layerMetrics() map[string]float64 {
	st := h.tr.stats()
	l := h.lay
	get := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	perRec := func(name string) float64 {
		if l.tracedRecs == 0 {
			return 0
		}
		return float64(get(name).self) / float64(l.tracedRecs)
	}
	med := func(name string) float64 { return quantile(get(name).durs, 0.5) }

	m := map[string]float64{}
	m["frame.decode_ns_per_rec"] = perRec("frame.decode")
	m["wal.append_us"] = med("wal.append") / 1e3
	if n := l.tracedRecs + l.untracedRecs; n > 0 {
		m["wal.bytes_per_rec"] = float64(l.log.Stats().AppendedBytes) / float64(n)
	}
	m["store.add_ns_per_rec"] = perRec("store.add")
	m["sketch.add_ns_per_rec"] = perRec("sketch.add")
	if s := m["sketch.add_ns_per_rec"]; s > 0 {
		m["store.overhead_ratio"] = m["store.add_ns_per_rec"] / s
	}
	if h.s.allRecords > 0 {
		m["store.changed_ratio"] = float64(h.s.changed) / float64(h.s.allRecords)
	}
	m["store.new_keys"] = float64(h.keysEnd - h.keys0)
	m["rules.observe_ns_per_rec"] = perRec("rules.observe")
	m["rules.tick_ms"] = med("rules.tick") / 1e6
	m["rules.scanned_keys"] = quantile(h.s.scanned, 0.5)
	m["rules.scan_share"] = quantile(h.s.scanShare, 0.5)
	m["store.estimate_ns"] = med("store.estimate")
	m["store.estimate_window_ns"] = med("store.estimate_window")
	m["http.estimate_us"] = med("http.estimate") / 1e3
	m["net.loopback_us"] = quantile(h.s.query, 0.5) - m["http.estimate_us"]
	if h.s.records > 0 && h.s.busy > 0 {
		spans := m["frame.decode_ns_per_rec"] + perRec("wal.append") + m["store.add_ns_per_rec"] + m["rules.observe_ns_per_rec"]
		wire := float64(h.s.busy) / float64(h.s.records)
		m["ingest.unattributed_share"] = 1 - spans/wire
	}
	m["window.late_records"] = float64(h.svc.srv.Store().LateRecords())
	m["recovery.open_s"] = quantile(h.s.open, 0.5)
	m["recovery.replayed_records"] = float64(h.svc.srv.ReplayedRecords())
	m["checkpoint.write_ms"] = h.ckpt.Seconds * 1e3
	m["checkpoint.bytes"] = float64(h.ckpt.Bytes)
	m["gen.late_max_ms"] = ms(h.s.lateMax)
	if l.tracedRecs > 0 && l.untracedRecs > 0 && l.untracedWall > 0 {
		traced := float64(l.tracedWall) / float64(l.tracedRecs)
		untraced := float64(l.untracedWall) / float64(l.untracedRecs)
		m["trace.overhead_ratio"] = traced / untraced
	}
	return m
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
