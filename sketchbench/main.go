// Command sketchbench is the benchmark of sketchd, the keyed S-bitmap
// counting service. It hosts the service in its own process the way
// cmd/sketchd composes it — server.New on a prepared data directory,
// wire.Serve and net/http on loopback listeners — and drives it through
// the real clients (wire.Client for ingest, server.Client for queries,
// rules and alerts) over at most two connections.
//
// Usage, from the repository root:
//
//	bash sketchbench/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
//
// Workloads (see README.md in this directory):
//
//	bulk     closed-loop ingest of 8192-record frames over 10^5 warm keys
//	monitor  open-loop scan-trace monitor: small timestamped frames at a
//	         fixed rate, standing rules, window reads beside the writes
//
// With --trace 0 the last line of standard output is one JSON object
// with every end-to-end metric; with --trace 1 it carries the per-layer
// metrics of a traced run. The line before it is the run report: host,
// seed, run length, sample counts and the failure breakdown. Every run
// checks its outputs: the served store must stay bit-identical to an
// in-process twin fed the acked frames (rebuilt for each check, so it
// is not on the heap while the service is measured), every query answer
// is checked against the served store or a reference counter, and
// alerts are checked against the generator's exact ground truth.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's metric contract; BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ingest_rec_per_s", "rec/s"},
	{"ack_p50_ms", "ms"},
	{"query_p50_us", "us"},
	{"alert_tick_ms", "ms"},
	{"alert_precision", "ratio"},
	{"alert_recall", "ratio"},
	{"rrmse", "ratio"},
	{"heap_bytes_per_key", "B"},
}

var perLayer = []metricDef{
	{"frame.decode_ns_per_rec", "ns"},
	{"wal.append_us", "us"},
	{"wal.bytes_per_rec", "B"},
	{"store.add_ns_per_rec", "ns"},
	{"sketch.add_ns_per_rec", "ns"},
	{"store.overhead_ratio", "ratio"},
	{"store.changed_ratio", "ratio"},
	{"store.new_keys", "count"},
	{"rules.observe_ns_per_rec", "ns"},
	{"rules.tick_ms", "ms"},
	{"rules.scanned_keys", "count"},
	{"rules.scan_share", "ratio"},
	{"store.estimate_ns", "ns"},
	{"store.estimate_window_ns", "ns"},
	{"http.estimate_us", "us"},
	{"net.loopback_us", "us"},
	{"ingest.unattributed_share", "ratio"},
	{"window.late_records", "count"},
	{"recovery.open_s", "s"},
	{"recovery.replayed_records", "count"},
	{"checkpoint.write_ms", "ms"},
	{"checkpoint.bytes", "B"},
	{"gen.late_max_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// options is one run's command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch root for data directories and span dumps
	sz       sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostInfo records where a run was measured.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
}

// tail is a p99 latency with the sample count behind it. Tails are
// reported on every run but gate nothing: on this class of host they
// measure the hypervisor's scheduling stalls more than the program.
type tail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report is the run metadata line printed before the result.
type report struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Seconds  float64              `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Host     hostInfo             `json:"host"`
	Spec     string               `json:"spec"`
	Eps      float64              `json:"eps"`
	Samples  map[string]int       `json:"samples"`
	Ops      map[string]int       `json:"ops"`
	Failures map[string]int       `json:"failures"`
	Tails    map[string]tail      `json:"tails"`
	Probe    map[string]hostProbe `json:"host_probe"`
	Steal    *float64             `json:"steal_share,omitempty"`
	Spans    string               `json:"spans,omitempty"`
	Wall     float64              `json:"wall_s"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sketchbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: bulk or monitor")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured run length in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory for data files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "sketchbench: want --workload bulk|monitor --seed N --seconds S --trace 0|1")
		return 2
	}
	o.trace = *traceFlag == 1
	o.sz = fullSizes
	// A stuck run must still exit, with an error, within 100 s past its length.
	watchdog := time.AfterFunc(time.Duration(o.seconds*float64(time.Second))+100*time.Second, func() {
		fmt.Fprintln(stderr, "sketchbench: run exceeded its time limit")
		os.Exit(3)
	})
	defer watchdog.Stop()

	rep, res, err := execute(o)
	if err != nil {
		fmt.Fprintf(stderr, "sketchbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "sketchbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "sketchbench: %v\n", err)
		return 1
	}
	return 0
}

// execute runs one workload in a fresh directory under o.work and
// returns its report and result.
func execute(o options) (*report, *result, error) {
	var w workload
	switch o.workload {
	case "bulk":
		w = &bulk{}
	case "monitor":
		w = &monitor{}
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want bulk or monitor)", o.workload)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(o.work, "run-"+o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	h := newHarness(o, dir)
	defer h.close()
	if err := runHarness(h, w); err != nil {
		return nil, nil, err
	}
	rep := h.report()
	rep.Wall = time.Since(start).Seconds()
	if o.trace {
		path := filepath.Join(o.work, "spans-"+o.workload+".tsv")
		if err := h.tr.dump(path); err != nil {
			return nil, nil, err
		}
		rep.Spans = path
	}
	return rep, h.result(), nil
}

func host() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
	}
}
