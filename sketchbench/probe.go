package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// hostProbe is a few fixed micro-measurements of the host itself, taken
// before the run's inputs and again after its last reading. They time
// no program code: they let two runs' figures be compared with the
// state of the machine each ran on.
type hostProbe struct {
	// MemChaseNs is the time of one step of a random pointer chase over
	// a 64 MiB table: the latency of the shared cache and memory that
	// the bulk store's working set lives in.
	MemChaseNs float64 `json:"mem_chase_ns"`
	// ALUNs is the time of one step of a dependent multiply-xor chain
	// that touches no memory: the core's speed and the hypervisor's
	// steal.
	ALUNs float64 `json:"alu_ns"`
	// FsyncMs is the median time of a 4 KiB append plus fsync in the
	// run's directory.
	FsyncMs float64 `json:"fsync_ms"`
}

const (
	probeTable = 16 << 20 // uint32 entries: 64 MiB
	probeSteps = 2 << 20
	probeALU   = 20 << 20
	probeSyncs = 15
)

// probeHost takes the probes; dir is where the fsync probe writes.
func probeHost(dir string) (hostProbe, error) {
	var p hostProbe

	// Sattolo's shuffle makes next one cycle through every entry, so
	// the chase cannot settle into a short, cached loop.
	next := make([]uint32, probeTable)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	at := uint32(0)
	start := time.Now()
	for i := 0; i < probeSteps; i++ {
		at = next[at]
	}
	p.MemChaseNs = float64(time.Since(start)) / probeSteps
	sink += uint64(at)

	start = time.Now()
	for i := 0; i < probeALU; i++ {
		x = (x*0x2545f4914f6cdd1d + 1) ^ (x >> 29)
	}
	p.ALUNs = float64(time.Since(start)) / probeALU
	sink += x

	var err error
	p.FsyncMs, err = probeFsync(filepath.Join(dir, "fsync-probe"))
	return p, err
}

// cpuSteal reads the host-wide CPU time the hypervisor stole from this
// guest, and the total, in clock ticks from /proc/stat; ok is false
// where that is not available.
func cpuSteal() (steal, total uint64, ok bool) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// sink keeps the probe loops' results live.
var sink uint64

func probeFsync(path string) (float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	var ds []float64
	for i := 0; i < probeSyncs; i++ {
		start := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		ds = append(ds, ms(time.Since(start)))
	}
	return quantile(ds, 0.5), nil
}
