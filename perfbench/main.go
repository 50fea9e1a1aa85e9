// Command perfbench measures the Chronus update path: exact planning
// (plan-n40), admission on a shared pod topology (admit-pods) and the
// daemon's executed-update path (execute-n10). It drives one workload
// per process through the layers' own functions, checks every output,
// and prints each metric by name with its unit; the last line of its
// standard output is one JSON object with the run's result.
//
//	perfbench --workload plan-n40 --seed 1 --seconds 50 --trace 0
//
// With --trace 1 the run records the benchmark's own spans around every
// call it makes into a layer, writes them to .bench_build/ and reports
// the per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	chronus "github.com/chronus-sdn/chronus"
	"github.com/chronus-sdn/chronus/internal/obs"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// prefix overrides the workload's deterministic prefix: the number
	// of timed updates (admit-pods: arrival ticks) the deterministic
	// metrics are computed over. Every run measures at least that many.
	prefix int
}

// spanDir receives a traced run's span file, relative to the directory
// the benchmark runs in.
const spanDir = ".bench_build/spans"

// setupReps is how often a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *spans) (*result, error){
	"plan-n40":    runPlan,
	"admit-pods":  runAdmit,
	"execute-n10": runExecute,
}

// result is what one workload run measured.
type result struct {
	// setup is the wall time of each set-up repetition.
	setup []time.Duration
	// loop covers the timed updates; lat holds each one's latency and
	// traced whether it ran with spans on.
	loop   windowDelta
	lat    []float64
	traced []bool
	// peakRSS is read when the timed loop ends, before output checks.
	peakRSS float64

	// The deterministic prefix: its update count, the updates that
	// failed (infeasible, refused, or errored on the executed path), the
	// schedule lengths of the successful ones, queue waits, updates
	// whose input repeated an earlier one, and the registry counters at
	// the start of the timed loop and at the end of the prefix.
	prefixUpdates int
	prefixFailed  int
	makespans     []float64
	queueWaits    []float64
	repeats       int
	regFrom       registrySnap
	regTo         registrySnap
	// events counts the program tracer's events over the prefix
	// (execute-n10).
	events int

	// failed counts unexpected errors and failed output checks; errs
	// keeps the first few messages.
	failed int
	errs   []string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// deadline decides when a timed loop stops: after the prefix, once
// the run's time is up.
type deadline struct {
	start  time.Time
	length time.Duration
	prefix int
}

func (d deadline) done(n int) bool {
	return n >= d.prefix && time.Since(d.start) >= d.length
}

// metric is one named, unit-carrying value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd is the untraced run's metrics: what a user of the system
// sees.
func endToEnd(r *result) map[string]metric {
	n := float64(len(r.lat))
	setup := make([]float64, len(r.setup))
	for i, d := range r.setup {
		setup[i] = d.Seconds()
	}
	return map[string]metric{
		"updates_per_s":       {ratio(n, r.loop.wall.Seconds()), "1/s"},
		"update_ms_p50":       {quantile(r.lat, 0.5), "ms"},
		"update_ms_p95":       {quantile(r.lat, 0.95), "ms"},
		"cpu_ms_per_update":   {ratio(ms(r.loop.cpu), n), "ms"},
		"success_share":       {1 - ratio(float64(r.prefixFailed), float64(r.prefixUpdates)), "ratio"},
		"makespan_ticks_mean": {mean(r.makespans), "ticks"},
		"setup_s":             {median(setup), "s"},
		"peak_rss_mb":         {r.peakRSS, "MB"},
	}
}

// report adds the metrics the contract line cannot carry because they
// may be zero: the failure share and the admission queue wait.
func report(r *result) map[string]metric {
	return map[string]metric{
		"failed_share":         {ratio(float64(r.prefixFailed), float64(r.prefixUpdates)), "ratio"},
		"queue_wait_ticks_p95": {quantile(r.queueWaits, 0.95), "ticks"},
		"updates":              {float64(len(r.lat)), "count"},
		"prefix_updates":       {float64(r.prefixUpdates), "count"},
	}
}

// spanLayers names every span the workloads record; each gets a
// self-time metric.
var spanLayers = []string{
	"update", "tick",
	"scheme.solve", "dynflow.validate", "core.slack", "health.arm", "obs.emit",
	"controller.testbed", "controller.execute", "emu.advance",
	"audit.fold", "state.fold", "clock.fold", "health.fold",
	"admit.submit", "admit.wave", "admit.complete", "admit.record", "dynflow.validate_joint",
}

// perLayer is the traced run's metrics. Time metrics come from the
// benchmark's spans; counts come from the program's own registry over
// the deterministic prefix.
func perLayer(r *result, sp *spans) map[string]metric {
	lt := sp.layers()
	perCall := func(name string, unit time.Duration) float64 {
		l := lt[name]
		if l == nil || l.calls == 0 {
			return 0
		}
		return float64(l.total) / float64(l.calls) / float64(unit)
	}
	var tracedLat, untracedLat []float64
	for i, on := range r.traced {
		if on {
			tracedLat = append(tracedLat, r.lat[i])
		} else {
			untracedLat = append(untracedLat, r.lat[i])
		}
	}
	k := float64(r.prefixUpdates)
	from, to := r.regFrom, r.regTo
	n := float64(len(r.lat))
	waves := to.counter(from, "chronus_admit_waves_total")
	m := map[string]metric{
		"scheme.solve_ms":                 {perCall("scheme.solve", time.Millisecond), "ms"},
		"core.candidates_per_update":      {ratio(to.sum(from, "chronus_scheduler_candidates_total"), k), "count"},
		"core.validator_calls_per_update": {ratio(to.counter(from, "chronus_scheduler_validator_runs_total"), k), "count"},
		"dynflow.emissions_per_update":    {ratio(to.counter(from, "chronus_validator_traces_total"), k), "count"},
		"dynflow.validate_ms":             {perCall("dynflow.validate", time.Millisecond), "ms"},
		"core.precomp_hit_ratio":          {to.hitRatio(from, "precomp"), "ratio"},
		"dynflow.tracer_cache_hit_ratio":  {to.hitRatio(from, "tracer"), "ratio"},
		"scheme.plan_cache_hit_ratio":     {to.hitRatio(from, "plan"), "ratio"},

		"admit.submit_us":                {perCall("admit.submit", time.Microsecond), "us"},
		"admit.wave_ms":                  {perCall("admit.wave", time.Millisecond), "ms"},
		"admit.updates_per_wave":         {ratio(k, waves), "count"},
		"admit.conflicts_per_wave":       {ratio(to.counter(from, "chronus_admit_conflicts_total"), waves), "count"},
		"admit.refusals_per_wave":        {ratio(to.sum(from, "chronus_admit_refused_total"), waves), "count"},
		"admit.complete_us":              {perCall("admit.complete", time.Microsecond), "us"},
		"dynflow.validate_joint_ms":      {perCall("dynflow.validate_joint", time.Millisecond), "ms"},
		"runtime.alloc_bytes_per_update": {ratio(r.loop.allocBytes, n), "bytes"},
		"runtime.allocs_per_update":      {ratio(r.loop.allocObjects, n), "count"},
		"runtime.gc_cpu_share":           {r.loop.gcCPUShare, "ratio"},

		"core.slack_ms": {perCall("core.slack", time.Millisecond), "ms"},
		"health.arm_ms": {perCall("health.arm", time.Millisecond), "ms"},

		"controller.testbed_ms":            {perCall("controller.testbed", time.Millisecond), "ms"},
		"controller.execute_ms":            {perCall("controller.execute", time.Millisecond), "ms"},
		"controller.flowmods_per_update":   {ratio(to.counter(from, "chronus_controller_flowmods_sent_total"), k), "count"},
		"controller.barrier_rtt_ticks_p50": {to.histQuantile(from, "chronus_controller_barrier_rtt_ticks", 0.5), "ticks"},
		"emu.advance_ms":                   {perCall("emu.advance", time.Millisecond), "ms"},
		"switchd.fire_skew_ticks_p99":      {to.histQuantile(from, "chronus_switchd_fire_skew_ticks", 0.99), "ticks"},
		"obs.events_per_update":            {ratio(float64(r.events), k), "count"},

		"audit.fold_ms":  {perCall("audit.fold", time.Millisecond), "ms"},
		"state.fold_ms":  {perCall("state.fold", time.Millisecond), "ms"},
		"clock.fold_ms":  {perCall("clock.fold", time.Millisecond), "ms"},
		"health.fold_ms": {perCall("health.fold", time.Millisecond), "ms"},

		"input.repeat_share":   {ratio(float64(r.repeats), k), "ratio"},
		"failed_share":         {ratio(float64(r.prefixFailed), k), "ratio"},
		"queue_wait_ticks_p95": {quantile(r.queueWaits, 0.95), "ticks"},

		"trace.overhead_ms_p50":   {quantile(tracedLat, 0.5) - quantile(untracedLat, 0.5), "ms"},
		"trace.top_span_coverage": {sp.coverage(r.loop.spansTo), "ratio"},
	}
	for _, name := range spanLayers {
		var self float64
		if l := lt[name]; l != nil {
			self = ratio(ms(l.self), float64(len(tracedLat)))
		}
		m["self."+name+"_ms"] = metric{self, "ms"}
	}
	return m
}

// line is the contract line: the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&seconds, "seconds", 30, "how long the timed loop runs, at least")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	fs.IntVar(&cfg.prefix, "prefix", 0, "deterministic prefix length (0: the workload's default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	steal0, total0 := hostCPU()
	sp := newSpans()
	res, err := drive(cfg, sp)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	steal1, total1 := hostCPU()

	meta := runMeta(cfg, float64(steal1-steal0), float64(total1-total0))
	mj, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "# perfbench %s\n", mj)
	out := line{Correct: res.failed == 0, Attempted: len(res.lat), Failed: res.failed, Metrics: endToEnd(res)}
	printMetrics(stdout, out.Metrics)
	printMetrics(stdout, report(res))
	if cfg.trace {
		out.Metrics = perLayer(res, sp)
		printMetrics(stdout, out.Metrics)
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := os.MkdirAll(spanDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := sp.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(sp.all), path)
	}
	for _, e := range res.errs {
		fmt.Fprintf(stdout, "# check failed: %s\n", e)
	}
	if out.Attempted == 0 {
		out.Correct = false
	}
	lj, _ := json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", lj)
	if !out.Correct {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# metric %-34s %s %s\n", n, strconv.FormatFloat(m[n].Value, 'g', -1, 64), m[n].Unit)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newRegistry is the registry a workload passes into the program, with
// every family pre-registered the way the daemon does at boot.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	chronus.RegisterAllMetrics(reg)
	return reg
}

// setupTimed runs f setupReps times and keeps each repetition's wall
// time; the set-up the run continues with is the last one.
func setupTimed(f func()) []time.Duration {
	out := make([]time.Duration, setupReps)
	for i := range out {
		runtime.GC()
		t0 := time.Now()
		f()
		out[i] = time.Since(t0)
	}
	return out
}
