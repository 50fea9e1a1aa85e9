package scheme

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// canonical renders every result field, Diagnostics included.
// Report.Loads (struct-keyed, not JSON-encodable) is rendered separately
// in sorted order.
func canonical(t *testing.T, res *Result) string {
	t.Helper()
	var loads string
	if res.Report != nil && res.Report.Loads != nil {
		keys := make([]dynflow.LinkInstance, 0, len(res.Report.Loads))
		for k := range res.Report.Loads {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Depart < b.Depart
		})
		for _, k := range keys {
			loads += fmt.Sprintf("%v=%d;", k, res.Report.Loads[k])
		}
	}
	// Shadow of dynflow.Report without the struct-keyed Loads map (whose
	// type encoding/json rejects even when nil).
	type reportShadow struct {
		Congestion                            []dynflow.CongestionEvent
		Loops                                 []dynflow.LoopEvent
		Blackholes                            []dynflow.BlackholeEvent
		WindowStart, WindowEnd, LatestArrival dynflow.Tick
	}
	var report *reportShadow
	if r := res.Report; r != nil {
		report = &reportShadow{r.Congestion, r.Loops, r.Blackholes, r.WindowStart, r.WindowEnd, r.LatestArrival}
	}
	b, err := json.Marshal(struct {
		Schedule    *dynflow.Schedule
		Rounds      interface{}
		Report      *reportShadow
		Loads       string
		Exact       bool
		BestEffort  bool
		Feasible    *bool
		Diagnostics Diagnostics
	}{res.Schedule, res.Rounds, report, loads, res.Exact, res.BestEffort, res.Feasible, res.Diagnostics})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRepeatedSolvesByteIdentical: for every registered scheme, at
// n∈{8,16}, three back-to-back solves of one instance must return
// byte-identical results. Each solve draws its scratch from the pooled
// workspaces and reuses the instance's memoized tracer, so any state
// leaking from one solve into the next shows up as drift.
func TestRepeatedSolvesByteIdentical(t *testing.T) {
	for _, n := range []int{8, 16} {
		rng := rand.New(rand.NewSource(6000 + int64(n)))
		for trial := 0; trial < 8; trial++ {
			in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
			for _, name := range Names() {
				o := Options{Budget: Budget{MaxNodes: 3000}}
				first, errFirst := Solve(name, in, o)
				for rep := 1; rep < 3; rep++ {
					res, err := Solve(name, in, o)
					if (err == nil) != (errFirst == nil) {
						t.Fatalf("n=%d trial=%d %s: error drift on solve %d: first=%v now=%v", n, trial, name, rep+1, errFirst, err)
					}
					if err != nil {
						if !errors.Is(err, ErrInfeasible) && !errors.Is(err, ErrUnsupported) {
							t.Fatalf("n=%d trial=%d %s: %v", n, trial, name, err)
						}
						continue
					}
					if want, got := canonical(t, first), canonical(t, res); got != want {
						t.Fatalf("n=%d trial=%d %s: solve %d differs from solve 1:\nfirst: %s\nnow:   %s", n, trial, name, rep+1, want, got)
					}
				}
			}
		}
	}
}

// TestSolveSeesTopologyEdit: editing a link's capacity or delay after a
// solve must invalidate the instance's memoized tracer, so the next solve
// matches a solve of a freshly built instance carrying the same edit.
func TestSolveSeesTopologyEdit(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*dynflow.Instance) error
	}{
		{"capacity", func(in *dynflow.Instance) error {
			for _, l := range in.G.Links() {
				if err := in.G.SetCapacity(l.From, l.To, 2*l.Cap); err != nil {
					return err
				}
			}
			return nil
		}},
		{"delay", func(in *dynflow.Instance) error {
			l := in.G.Links()[1] // v1→v5, the final path's first hop
			return in.G.SetDelay(l.From, l.To, l.Delay+3)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := topo.Fig1Example()
			before, err := Solve("chronus", in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.edit(in); err != nil {
				t.Fatal(err)
			}
			after, err := Solve("chronus", in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fresh := topo.Fig1Example()
			if err := tc.edit(fresh); err != nil {
				t.Fatal(err)
			}
			want, err := Solve("chronus", fresh, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := canonical(t, after); got != canonical(t, want) {
				t.Fatalf("solve after the edit differs from a fresh instance's:\nedited: %s\nfresh:  %s", got, canonical(t, want))
			}
			if canonical(t, after) == canonical(t, before) {
				t.Fatalf("the %s edit left the result unchanged; it does not exercise invalidation", tc.name)
			}
		})
	}
}

// TestGreedyBudgetKnobIgnoredDiagnostics: the greedy engines honor only
// Budget.MaxTicks; setting Timeout or MaxNodes on chronus/chronus-fast
// must be flagged in Diagnostics instead of silently dropped.
func TestGreedyBudgetKnobIgnoredDiagnostics(t *testing.T) {
	in := topo.Fig1Example()
	for _, name := range []string{"chronus", "chronus-fast"} {
		res, err := Solve(name, in, Options{Budget: Budget{Timeout: time.Second, MaxNodes: 5}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Diagnostics["budget_knob_ignored:timeout"] != 1 {
			t.Errorf("%s: timeout not flagged as ignored: %v", name, res.Diagnostics)
		}
		if res.Diagnostics["budget_knob_ignored:max_nodes"] != 1 {
			t.Errorf("%s: max_nodes not flagged as ignored: %v", name, res.Diagnostics)
		}

		res, err = Solve(name, in, Options{Budget: Budget{MaxTicks: 1000}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range []string{"budget_knob_ignored:timeout", "budget_knob_ignored:max_nodes"} {
			if _, present := res.Diagnostics[k]; present {
				t.Errorf("%s: %s flagged although the knob was unset", name, k)
			}
		}
	}
}

// TestConcurrentPooledSolves drives concurrent solves that share the
// pooled workspaces; it exists to be run under -race (the CI pins
// `go test -race -count=2 -run 'Pool|Repeated'`).
func TestConcurrentPooledSolves(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		// Paired goroutines (g/2) build identical instances, so equal
		// workloads run side by side on workspaces from the one pool.
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(7000 + seed))
			for trial := 0; trial < 6; trial++ {
				in := topo.RandomInstance(rng, topo.DefaultRandomParams(12))
				for _, name := range []string{"chronus", "chronus-fast"} {
					res, err := Solve(name, in, Options{})
					if err != nil && !errors.Is(err, ErrInfeasible) {
						t.Errorf("%s: %v", name, err)
						return
					}
					if err == nil && res.Schedule == nil {
						t.Errorf("%s: no schedule", name)
						return
					}
				}
			}
		}(int64(g / 2))
	}
	wg.Wait()
}
