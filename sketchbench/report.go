package main

import "math"

func (h *harness) rrmse() float64 {
	if h.rrmseKeys == 0 {
		return 0
	}
	return math.Sqrt(h.sqErr / float64(h.rrmseKeys))
}

// endToEndValues computes the end-to-end metrics of a run.
func (h *harness) endToEndValues() map[string]float64 {
	m := map[string]float64{
		"setup_s":         quantile(h.s.setup, 0.5),
		"ack_p50_ms":      quantile(h.s.ack, 0.5),
		"query_p50_us":    quantile(h.s.query, 0.5),
		"alert_tick_ms":   quantile(h.s.tick, 0.5),
		"alert_precision": h.precision,
		"alert_recall":    h.recall,
		"rrmse":           h.rrmse(),
	}
	if h.s.rounds > 0 {
		m["ingest_rec_per_s"] = float64(h.s.records) / h.s.rounds.Seconds()
	}
	if h.keysEnd > 0 {
		m["heap_bytes_per_key"] = (float64(h.heapEnd) - float64(h.heap0)) / float64(h.keysEnd)
	}
	return m
}

// result builds the last output line: the metric set the run mode
// reports, and the operation counts.
func (h *harness) result() *result {
	defs, values := endToEnd, h.endToEndValues()
	if h.tr != nil {
		defs, values = perLayer, h.layerMetrics()
	}
	res := &result{Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	res.Attempted = h.pos + h.fail.backlog + len(h.s.query) + h.queryOps + h.alertOps + h.gates
	res.Failed = h.fail.total()
	res.Correct = res.Failed == 0
	return res
}

// report builds the run metadata line.
func (h *harness) report() *report {
	return &report{
		Workload: h.o.workload,
		Seed:     h.o.seed,
		Seconds:  h.o.seconds,
		Trace:    h.o.trace,
		Host:     host(),
		Spec:     h.spec.String(),
		Eps:      h.eps,
		Samples: map[string]int{
			"setup":  len(h.s.setup),
			"ack":    len(h.s.ack),
			"query":  len(h.s.query),
			"tick":   len(h.s.tick),
			"rrmse":  h.rrmseKeys,
			"alerts": h.alertOps,
		},
		Ops: map[string]int{
			"wire_frames":     h.s.frames,
			"frames":          h.pos,
			"records":         h.s.records,
			"all_records":     h.s.allRecords,
			"queries":         len(h.s.query) + h.queryOps,
			"alert_decisions": h.alertOps,
			"twin_gates":      h.gates,
			"keys":            h.keysEnd,
		},
		Failures: map[string]int{
			"frames":   h.fail.frames,
			"queries":  h.fail.queries,
			"missed":   h.fail.missed,
			"spurious": h.fail.spurious,
			"backlog":  h.fail.backlog,
			"twin":     h.fail.twin,
		},
		Probe: h.probes,
		Steal: h.steal,
		Tails: map[string]tail{
			"ack_p99_ms":   {chunkedP99(h.s.ack), "ms", len(h.s.ack)},
			"query_p99_us": {chunkedP99(h.s.query), "us", len(h.s.query)},
		},
	}
}

// p99Chunk is how many samples, in time order, one p99 reading covers:
// enough for ten samples beyond the percentile.
const p99Chunk = 1000

// chunkedP99 is the median of the p99s of consecutive p99Chunk-sample
// stretches of the run (the whole run's p99 when it has fewer). A stall
// of the host disk or scheduler lands in one stretch and moves one
// reading, not the figure.
func chunkedP99(xs []float64) float64 {
	if len(xs) < 2*p99Chunk {
		return quantile(xs, 0.99)
	}
	var ps []float64
	for lo := 0; lo+p99Chunk <= len(xs); lo += p99Chunk {
		ps = append(ps, quantile(xs[lo:lo+p99Chunk], 0.99))
	}
	return quantile(ps, 0.5)
}
