package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestTinyRuns runs both workloads at tiny sizes, untraced and traced,
// and checks the output contract: every metric of the mode is present
// with its unit, outputs are correct (the twin gate included), and the
// metric names and units are the ones BENCHMARK.json declares.
func TestTinyRuns(t *testing.T) {
	declared := readDeclared(t)
	for _, w := range []string{"bulk", "monitor"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 7, seconds: 1, trace: trace, work: t.TempDir(), sz: tinySizes}
			rep, res, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d failures=%v",
					w, trace, res.Correct, res.Failed, res.Attempted, rep.Failures)
			}
			if rep.Failures["twin"] != 0 || rep.Ops["twin_gates"] != 2 {
				t.Errorf("%s trace=%v: twin gate: %d mismatches over %d gates",
					w, trace, rep.Failures["twin"], rep.Ops["twin_gates"])
			}
			defs, kind := endToEnd, "end_to_end"
			if trace {
				defs, kind = perLayer, "per_layer"
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, d.name, m, d.unit)
				}
				if declared[kind][d.name] != d.unit {
					t.Errorf("BENCHMARK.json %s: %s has unit %q, want %q", kind, d.name, declared[kind][d.name], d.unit)
				}
			}
			if len(declared[kind]) != len(defs) {
				t.Errorf("BENCHMARK.json declares %d %s metrics, the benchmark reports %d", len(declared[kind]), kind, len(defs))
			}
		}
	}
}

// readDeclared returns BENCHMARK.json's metric units by section and name.
func readDeclared(t *testing.T) map[string]map[string]string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]string{}
	for _, kind := range []string{"end_to_end", "per_layer"} {
		var ms []struct{ Name, Unit string }
		if err := json.Unmarshal(spec[kind], &ms); err != nil {
			t.Fatal(err)
		}
		out[kind] = map[string]string{}
		for _, m := range ms {
			out[kind][m.Name] = m.Unit
		}
	}
	return out
}
