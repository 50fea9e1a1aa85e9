package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark: with
// PERFBENCH_CHILD set it runs one workload and exits. Every run below
// is such a child, so each gets a fresh process and none inherits the
// solver caches another one warmed.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the output is checked against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// childRun is one benchmark process's output.
type childRun struct {
	code   int
	last   line
	report map[string]float64 // every "# metric" line
	stderr string
}

// runChild runs one workload in a fresh process for a short smoke run.
func runChild(t *testing.T, workload string, trace int, env ...string) childRun {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7",
		"--seconds", "0.2", "--prefix", "3", "--trace", strconv.Itoa(trace))
	cmd.Dir = t.TempDir() // the span file of a traced run lands here
	cmd.Env = append(append(os.Environ(), "PERFBENCH_CHILD=1"), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	out := childRun{report: map[string]float64{}, stderr: stderr.String()}
	if ee, ok := err.(*exec.ExitError); ok {
		out.code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s\n%s", workload, err, stdout.String(), out.stderr)
	}
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) == 5 && f[0] == "#" && f[1] == "metric" {
			v, err := strconv.ParseFloat(f[3], 64)
			if err != nil {
				t.Fatalf("%s: bad metric line %q", workload, l)
			}
			out.report[f[2]] = v
		}
	}
	return out
}

// TestSmoke runs every workload briefly, untraced and traced: the run
// passes its output checks and reports exactly the contract's metrics,
// each with its unit.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, name := range workloadNames() {
		for trace, want := range [][]struct{ Name, Unit string }{toPairs(c.EndToEnd), toPairs(c.PerLayer)} {
			r := runChild(t, name, trace)
			if r.code != 0 || !r.last.Correct || r.last.Failed != 0 || r.last.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v; stderr: %s", name, trace, r.code, r.last, r.stderr)
			}
			if len(r.last.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, contract names %d", name, trace, len(r.last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

func toPairs(ms []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) []struct{ Name, Unit string } {
	out := make([]struct{ Name, Unit string }, len(ms))
	for i, m := range ms {
		out[i] = struct{ Name, Unit string }{m.Name, m.Unit}
	}
	return out
}

// deterministic names the metrics that depend only on the seed: the
// outcome metrics over the deterministic prefix and the per-layer
// counts read from the program's registry.
var deterministic = []string{
	"failed_share", "success_share", "makespan_ticks_mean", "queue_wait_ticks_p95", "prefix_updates",
	"input.repeat_share",
	"core.candidates_per_update", "core.validator_calls_per_update", "dynflow.emissions_per_update",
	"admit.updates_per_wave", "admit.conflicts_per_wave", "admit.refusals_per_wave",
	"controller.flowmods_per_update", "controller.barrier_rtt_ticks_p50",
	"switchd.fire_skew_ticks_p99", "obs.events_per_update",
}

func sameDeterministic(t *testing.T, what string, a, b childRun) {
	t.Helper()
	for _, name := range deterministic {
		va, oka := a.report[name]
		vb, okb := b.report[name]
		if !oka || !okb {
			t.Errorf("%s: metric %s missing", what, name)
			continue
		}
		if va != vb {
			t.Errorf("%s: %s differs: %v vs %v", what, name, va, vb)
		}
	}
}

// TestDeterministic runs every workload twice with one seed; the
// deterministic metrics must agree exactly.
func TestDeterministic(t *testing.T) {
	for _, name := range workloadNames() {
		sameDeterministic(t, name, runChild(t, name, 1), runChild(t, name, 1))
	}
}

// TestAdmitProcs runs admit-pods with one and two planner threads: the
// engine applies every result in id order, so its decisions, and with
// them the deterministic metrics, must not depend on parallelism.
func TestAdmitProcs(t *testing.T) {
	sameDeterministic(t, "admit-pods GOMAXPROCS 1 vs 2",
		runChild(t, "admit-pods", 1, "GOMAXPROCS=1"), runChild(t, "admit-pods", 1, "GOMAXPROCS=2"))
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.95); got != 5 {
		t.Errorf("p95 = %v, want 5", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	sp := newSpans()
	sp.next(true)
	sp.do("update", 1, func() {
		sp.do("child", 1, func() { time.Sleep(5 * time.Millisecond) })
		time.Sleep(5 * time.Millisecond)
	})
	lt := sp.layers()
	if lt["update"].calls != 1 || lt["child"].calls != 1 {
		t.Fatalf("calls: %+v %+v", lt["update"], lt["child"])
	}
	if got, want := lt["update"].self, lt["update"].total-lt["child"].total; got != want {
		t.Errorf("self time %v, want total minus child %v", got, want)
	}
	if c := sp.coverage(sp.all[0].End); c < 0.95 {
		t.Errorf("coverage %v of a loop that is one span", c)
	}
}
