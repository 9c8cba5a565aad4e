package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// procStatusField reads the leading integer of one /proc/self/status field.
func procStatusField(field string) (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != field {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("perfbench: field %q not in /proc/self/status", field)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	kb, err := procStatusField("VmHWM")
	return float64(kb) / 1024, err
}

// ctxSwitches is the process's voluntary plus involuntary context switches.
func ctxSwitches() (int64, error) {
	v, err := procStatusField("voluntary_ctxt_switches")
	if err != nil {
		return 0, err
	}
	nv, err := procStatusField("nonvoluntary_ctxt_switches")
	return v + nv, err
}

// udpCounters reads the "Udp:" OutDatagrams and RcvbufErrors counters of
// /proc/net/snmp (the network namespace's totals).
func udpCounters() (out, rcvbufErrors int64, err error) {
	raw, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, 0, err
	}
	var header []string
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i := 1; i < len(fields) && i < len(header); i++ {
			v, perr := strconv.ParseInt(fields[i], 10, 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("perfbench: /proc/net/snmp Udp %s: %w", header[i], perr)
			}
			switch header[i] {
			case "OutDatagrams":
				out = v
			case "RcvbufErrors":
				rcvbufErrors = v
			}
		}
		return out, rcvbufErrors, nil
	}
	return 0, 0, fmt.Errorf("perfbench: no Udp counters in /proc/net/snmp")
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: the steal and
// total jiffies of the machine (the host taking CPU from this VM shows as
// steal, and explains a run that is slow for no reason of its own).
func cpuTimes() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("perfbench: unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: /proc/stat: %w", err)
		}
		switch {
		case i == 7:
			steal = v
			total += v
		case i < 7:
			total += v // user … softirq; guest time is already in user
		}
	}
	return steal, total, nil
}

// runtimeSample is one read of the runtime counters the per-layer table
// reports as per-round deltas.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	sched                    *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		sched:        s[4].Value.Float64Histogram(),
	}
}

// heapAllocs is the cumulative count of heap allocations. It reads
// runtime.MemStats, which stops the world and flushes every P's allocation
// cache, so the count is exact at the moment of the call; runtime/metrics
// counts small allocations only when a cached span is swapped out, which
// would attribute allocations made elsewhere to the call being measured.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// addHistogramDelta adds the counts recorded between two reads of a runtime
// histogram to acc.
func addHistogramDelta(acc, before, after []uint64) []uint64 {
	if acc == nil {
		acc = make([]uint64, len(after))
	}
	for i := range after {
		acc[i] += after[i] - before[i]
	}
	return acc
}

// histogramP99 returns the lower bound of the bucket holding the 99th
// percentile of a runtime/metrics histogram's counts (0 when empty).
func histogramP99(counts []uint64, buckets []float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := (total*99 + 99) / 100
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= want {
			return max(buckets[i], 0) // the first bucket starts at -Inf
		}
	}
	return buckets[len(counts)-1]
}

// environment is the block printed ahead of every run: what the numbers
// were measured on.
type environment struct {
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
	CPUModel   string
	Commit     string
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}
