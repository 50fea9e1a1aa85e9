package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/chronus-sdn/chronus/internal/obs"
)

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the CPU time of the whole process: every thread, GC and
// the admission workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostCPU reads the host-wide CPU tick counters of /proc/stat: the
// steal ticks and the total of the first eight fields.
func hostCPU() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// runtimeSample holds the Go runtime's cumulative allocation and CPU
// class counters.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[3].Value.Float64()
	}
	return out
}

// window measures one stretch of the run: wall time, process CPU time
// and the runtime's allocation and GC counters.
type window struct {
	wall  time.Time
	cpu   time.Duration
	rt    runtimeSample
	spans time.Duration // offset on the span recorder's clock
}

func openWindow(sp *spans) window {
	return window{wall: time.Now(), cpu: cpuTime(), rt: readRuntime(), spans: time.Since(sp.epoch)}
}

// windowDelta is what happened between two windows.
type windowDelta struct {
	wall, cpu                time.Duration
	allocBytes, allocObjects float64
	gcCPUShare               float64
	spansTo                  time.Duration
}

func closeWindow(sp *spans, w window) windowDelta {
	end := openWindow(sp)
	return windowDelta{
		wall:         end.wall.Sub(w.wall),
		cpu:          end.cpu - w.cpu,
		allocBytes:   float64(end.rt.allocBytes - w.rt.allocBytes),
		allocObjects: float64(end.rt.allocObjects - w.rt.allocObjects),
		gcCPUShare:   ratio(end.rt.gcCPU-w.rt.gcCPU, end.rt.totalCPU-w.rt.totalCPU),
		spansTo:      end.spans,
	}
}

// counterNames are the program's own registry counters the per-layer
// metrics are derived from.
var counterNames = []string{
	`chronus_scheduler_candidates_total{outcome="accepted"}`,
	`chronus_scheduler_candidates_total{outcome="deferred"}`,
	`chronus_scheduler_candidates_total{outcome="rejected"}`,
	"chronus_scheduler_validator_runs_total",
	"chronus_validator_runs_total",
	"chronus_validator_traces_total",
	`chronus_solver_cache_hits_total{cache="precomp"}`,
	`chronus_solver_cache_misses_total{cache="precomp"}`,
	`chronus_solver_cache_hits_total{cache="tracer"}`,
	`chronus_solver_cache_misses_total{cache="tracer"}`,
	`chronus_solver_cache_hits_total{cache="plan"}`,
	`chronus_solver_cache_misses_total{cache="plan"}`,
	"chronus_admit_waves_total",
	"chronus_admit_planned_total",
	"chronus_admit_conflicts_total",
	"chronus_admit_ledger_overcommit_total",
	`chronus_admit_refused_total{reason="queue_full"}`,
	`chronus_admit_refused_total{reason="preempted"}`,
	`chronus_admit_refused_total{reason="invalid"}`,
	`chronus_admit_refused_total{reason="ledger"}`,
	`chronus_admit_refused_total{reason="plan"}`,
	`chronus_admit_refused_total{reason="joint"}`,
	`chronus_admit_refused_total{reason="window"}`,
	"chronus_controller_flowmods_sent_total",
}

// histogramNames are the program's registry histograms the per-layer
// quantiles are read from.
var histogramNames = []string{
	"chronus_controller_barrier_rtt_ticks",
	"chronus_switchd_fire_skew_ticks",
}

// registrySnap is a point-in-time copy of the counters above and the
// cumulative bucket counts of the histograms above.
type registrySnap struct {
	counters map[string]int64
	buckets  map[string][]bucket
}

// bucket is one cumulative histogram bucket: le is its inclusive upper
// bound.
type bucket struct {
	le    float64
	count int64
}

func snapRegistry(reg *obs.Registry) registrySnap {
	s := registrySnap{counters: map[string]int64{}, buckets: map[string][]bucket{}}
	for _, n := range counterNames {
		s.counters[n] = reg.Counter(n).Value()
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return s
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, h := range histogramNames {
			prefix := h + `_bucket{le="`
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			rest := line[len(prefix):]
			q := strings.IndexByte(rest, '"')
			if q < 0 {
				continue
			}
			f := strings.Fields(strings.TrimPrefix(rest[q+1:], "}"))
			if len(f) != 1 {
				continue
			}
			le := math.Inf(1)
			if rest[:q] != "+Inf" {
				le, _ = strconv.ParseFloat(rest[:q], 64)
			}
			n, _ := strconv.ParseInt(f[0], 10, 64)
			s.buckets[h] = append(s.buckets[h], bucket{le: le, count: n})
		}
	}
	return s
}

// counter is the growth of one counter from s to t.
func (t registrySnap) counter(s registrySnap, name string) float64 {
	return float64(t.counters[name] - s.counters[name])
}

// histQuantile is the upper bound of the bucket holding the q-quantile
// of the observations made between s and t (0 when there were none).
func (t registrySnap) histQuantile(s registrySnap, name string, q float64) float64 {
	tb, sb := t.buckets[name], s.buckets[name]
	if len(tb) == 0 {
		return 0
	}
	base := func(i int) int64 {
		if i < len(sb) {
			return sb[i].count
		}
		return 0
	}
	total := tb[len(tb)-1].count - base(len(tb)-1)
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	for i, b := range tb {
		if b.count-base(i) >= rank {
			return b.le
		}
	}
	return tb[len(tb)-1].le
}

// sum is the growth of every counter of one family, summed over its
// labels.
func (t registrySnap) sum(s registrySnap, family string) float64 {
	var n float64
	for _, name := range counterNames {
		if strings.HasPrefix(name, family+"{") {
			n += t.counter(s, name)
		}
	}
	return n
}

func (t registrySnap) hitRatio(s registrySnap, cache string) float64 {
	hits := t.counter(s, fmt.Sprintf(`chronus_solver_cache_hits_total{cache=%q}`, cache))
	misses := t.counter(s, fmt.Sprintf(`chronus_solver_cache_misses_total{cache=%q}`, cache))
	return ratio(hits, hits+misses)
}
