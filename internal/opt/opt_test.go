package opt

import (
	"math/rand"
	"testing"
	"time"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

func catchUp(t testing.TB, sharedCap graph.Capacity) *dynflow.Instance {
	t.Helper()
	g := graph.New()
	v := g.AddNodes("s", "a", "m", "d")
	g.MustAddLink(v[0], v[1], 1, 1)
	g.MustAddLink(v[1], v[2], 1, 1)
	g.MustAddLink(v[2], v[3], sharedCap, 1)
	g.MustAddLink(v[0], v[2], 1, 1)
	in := &dynflow.Instance{
		G:      g,
		Demand: 1,
		Init:   graph.Path{v[0], v[1], v[2], v[3]},
		Fin:    graph.Path{v[0], v[2], v[3]},
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("catchUp invalid: %v", err)
	}
	return in
}

func TestExactFig1Optimal(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Exact(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Schedule.Makespan() != 3 {
		t.Fatalf("makespan = %d, want 3", res.Schedule.Makespan())
	}
	if r := dynflow.Validate(in, res.Schedule); !r.OK() {
		t.Fatalf("optimal schedule violates: %s", r.Summary())
	}
}

func TestExactInfeasible(t *testing.T) {
	res, err := Exact(catchUp(t, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	ok, status, err := Feasible(catchUp(t, 1), Options{})
	if err != nil || ok || status != StatusInfeasible {
		t.Fatalf("Feasible = %v %v %v", ok, status, err)
	}
}

func TestExactSlackImmediate(t *testing.T) {
	res, err := Exact(catchUp(t, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Schedule.Makespan() != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestExactBudget(t *testing.T) {
	in := topo.Fig1Example()
	res, err := Exact(in, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudget {
		t.Fatalf("status = %v, want budget", res.Status)
	}
	// The greedy incumbent is still available.
	if res.Schedule == nil {
		t.Fatal("no incumbent on budget exhaustion")
	}
}

// TestExactTimeoutCoversSeeding: the timeout is armed before seeding, so a
// budget spent by the time the fast seed returns skips the exact-greedy
// seed and comes back with the fast incumbent. The instance has few
// pending switches (the exact seed runs without a timeout) and an exact
// greedy schedule shorter than the fast one, which tells the seeds apart.
func TestExactTimeoutCoversSeeding(t *testing.T) {
	in := topo.RandomInstance(rand.New(rand.NewSource(2)), topo.DefaultRandomParams(6))
	fast, err := core.Greedy(in, core.Options{Mode: core.ModeFast})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.Greedy(in, core.Options{Mode: core.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.UpdateSet()) > 64 || exact.Schedule.Makespan() >= fast.Schedule.Makespan() {
		t.Fatalf("precondition: want <= 64 pending and exact makespan %d < fast %d",
			exact.Schedule.Makespan(), fast.Schedule.Makespan())
	}
	if res, err := Exact(in, Options{}); err != nil || res.Schedule.Makespan() > exact.Schedule.Makespan() {
		t.Fatalf("unbudgeted Exact = %+v, %v; want makespan <= %d", res, err, exact.Schedule.Makespan())
	}
	res, err := Exact(in, Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusBudget {
		t.Fatalf("status = %v, want budget", res.Status)
	}
	if res.Schedule == nil || res.Schedule.String() != fast.Schedule.String() {
		t.Fatalf("incumbent %v, want the fast seed %s", res.Schedule, fast.Schedule)
	}
}

func TestExactLargeInstanceBudget(t *testing.T) {
	// Large update sets are searched under the node budget and come back
	// with the greedy incumbent rather than an error.
	rng := rand.New(rand.NewSource(5))
	p := topo.DefaultRandomParams(90)
	p.FinalInclude = 1
	in := topo.RandomInstance(rng, p)
	res, err := Exact(in, Options{MaxNodes: 50})
	if err != nil {
		t.Fatalf("Exact on large instance: %v", err)
	}
	if res.Status == StatusOptimal && res.Schedule == nil {
		t.Fatalf("inconsistent result: %+v", res)
	}
}

// TestExactNeverWorseThanGreedy: OPT's makespan is a lower bound on exact
// greedy's, and OPT succeeds whenever greedy does.
func TestExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for i := 0; i < 25; i++ {
		n := 4 + rng.Intn(5)
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
		gr, gErr := core.Greedy(in, core.Options{Mode: core.ModeExact})
		res, err := Exact(in, Options{MaxNodes: 15000})
		if err != nil {
			t.Fatal(err)
		}
		if gErr == nil {
			if res.Schedule == nil {
				t.Fatalf("instance %d: greedy solved but OPT found nothing", i)
			}
			if res.Status == StatusOptimal && res.Schedule.Makespan() > gr.Schedule.Makespan() {
				t.Fatalf("instance %d: OPT makespan %d > greedy %d", i, res.Schedule.Makespan(), gr.Schedule.Makespan())
			}
			checked++
		}
		if res.Status == StatusOptimal && res.Schedule != nil {
			if r := dynflow.Validate(in, res.Schedule); !r.OK() {
				t.Fatalf("instance %d: OPT schedule violates: %s", i, r.Summary())
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d greedy-solved instances; generator drifted", checked)
	}
}

func TestILPCatchUp(t *testing.T) {
	res, err := SolveILP(catchUp(t, 1), ILPOptions{MaxMakespan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	res, err = SolveILP(catchUp(t, 2), ILPOptions{MaxMakespan: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || res.Schedule.Makespan() != 0 {
		t.Fatalf("res = %+v", res)
	}
	if r := dynflow.Validate(catchUp(t, 2), res.Schedule); !r.OK() {
		t.Fatalf("ILP schedule violates: %s", r.Summary())
	}
}

// TestILPMatchesExact cross-validates the two solvers on small random
// instances: same feasibility verdict and same optimal makespan.
func TestILPMatchesExact(t *testing.T) {
	if testing.Short() {
		t.Skip("ILP cross-check is slow")
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		p := topo.DefaultRandomParams(4 + rng.Intn(2))
		p.MaxDelay = 2
		in := topo.RandomInstance(rng, p)
		ex, err := Exact(in, Options{MaxNodes: 200000})
		if err != nil {
			t.Fatal(err)
		}
		il, err := SolveILP(in, ILPOptions{MaxMakespan: 8})
		if err != nil {
			t.Fatal(err)
		}
		if ex.Status == StatusBudget || il.Status == StatusBudget {
			continue
		}
		if (ex.Status == StatusOptimal) != (il.Status == StatusOptimal) {
			// Exact searches an unbounded horizon; the ILP is capped at 8.
			if ex.Status == StatusOptimal && ex.Schedule.Makespan() > 8 {
				continue
			}
			t.Fatalf("instance %d: exact=%v ilp=%v", i, ex.Status, il.Status)
		}
		if ex.Status == StatusOptimal && ex.Schedule.Makespan() != il.Schedule.Makespan() {
			t.Fatalf("instance %d: exact makespan %d != ilp %d", i, ex.Schedule.Makespan(), il.Schedule.Makespan())
		}
		if il.Schedule != nil {
			if r := dynflow.Validate(in, il.Schedule); !r.OK() {
				t.Fatalf("instance %d: ILP schedule violates: %s", i, r.Summary())
			}
		}
	}
}
