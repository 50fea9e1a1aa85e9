package dynflow_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// deltaDriver replays a sequence of Try / Commit / Rollback operations on a
// Delta and checks every trial against a full Validate of the trial
// schedule.
type deltaDriver struct {
	t   *testing.T
	in  *dynflow.Instance
	s   *dynflow.Schedule
	d   *dynflow.Delta
	upd []graph.NodeID
}

func newDeltaDriver(t *testing.T, in *dynflow.Instance, start dynflow.Tick) *deltaDriver {
	t.Helper()
	s := dynflow.NewSchedule(start)
	d := new(dynflow.Delta)
	if !d.Reset(in, s) {
		t.Fatalf("empty schedule is not clean: %s", dynflow.Validate(in, s).Summary())
	}
	if r := dynflow.Validate(in, s); d.LatestArrival() != r.LatestArrival {
		t.Fatalf("base LatestArrival %d, Validate %d", d.LatestArrival(), r.LatestArrival)
	}
	return &deltaDriver{t: t, in: in, s: s, d: d, upd: in.UpdateSet()}
}

// try moves v to tick at, checks the verdict against Validate, and keeps
// the trial when commit is set and the trial is clean. It reports the
// verdict.
func (dd *deltaDriver) try(v graph.NodeID, at dynflow.Tick, commit bool) bool {
	dd.t.Helper()
	trial := dd.s.Clone()
	trial.Set(v, at)
	want := dynflow.Validate(dd.in, trial)
	ok, latest := dd.d.Try(v, at)
	if ok != want.OK() || latest != want.LatestArrival {
		dd.t.Fatalf("Try(%s, %d) on %s = (%v, %d), Validate = (%v, %d): %s",
			dd.in.G.Name(v), at, dd.s.Format(dd.in), ok, latest, want.OK(), want.LatestArrival, want.Summary())
	}
	if ok && commit {
		dd.d.Commit()
		dd.s = trial
		if got := dd.d.LatestArrival(); got != want.LatestArrival {
			dd.t.Fatalf("committed LatestArrival %d, Validate %d", got, want.LatestArrival)
		}
	} else {
		dd.d.Rollback()
	}
	return ok
}

// greedyShaped probes every pending switch tick by tick, the way the exact
// greedy does, committing a random share of the clean trials; every few
// ticks it also moves an already scheduled switch, earlier or later.
func (dd *deltaDriver) greedyShaped(rng *rand.Rand, ticks int) {
	pending := append([]graph.NodeID(nil), dd.upd...)
	for t := dd.s.Start; t < dd.s.Start+dynflow.Tick(ticks) && len(pending) > 0; t++ {
		rng.Shuffle(len(pending), func(i, j int) { pending[i], pending[j] = pending[j], pending[i] })
		kept := pending[:0]
		for _, v := range pending {
			if !dd.try(v, t, rng.Intn(4) > 0) || dd.s.Times[v] != t {
				kept = append(kept, v)
			}
		}
		pending = kept
		if rng.Intn(3) == 0 {
			v := dd.upd[rng.Intn(len(dd.upd))]
			if at, ok := dd.s.Times[v]; ok {
				dd.try(v, at+dynflow.Tick(rng.Intn(9)-4), rng.Intn(2) == 0)
			}
		}
	}
}

func TestDeltaFig1MatchesValidate(t *testing.T) {
	in := topo.Fig1Example()
	for seed := int64(0); seed < 20; seed++ {
		newDeltaDriver(t, in, 0).greedyShaped(rand.New(rand.NewSource(seed)), 40)
	}
}

// TestDeltaMatchesValidateProperty: on random instances of 4 to 40
// switches, feasible and infeasible alike, every trial of a greedy-shaped
// probe sequence gets Validate's verdict and LatestArrival, before both
// Commit and Rollback. The exact greedy built on the delta, with and
// without BestEffort, returns reports equal to a fresh Validate.
func TestDeltaMatchesValidateProperty(t *testing.T) {
	var feasible, infeasible, bestEffort int
	f := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw%37)
		rng := rand.New(rand.NewSource(seed))
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(n))
		newDeltaDriver(t, in, dynflow.Tick(rng.Intn(5))).greedyShaped(rng, 50)

		res, err := core.Greedy(in, core.Options{Mode: core.ModeExact})
		switch {
		case errors.Is(err, core.ErrInfeasible):
			infeasible++
		case err != nil:
			return false
		default:
			feasible++
			if !sameReport(res.Report, dynflow.Validate(in, res.Schedule)) || !res.Report.OK() {
				return false
			}
		}
		be, err := core.Greedy(in, core.Options{Mode: core.ModeExact, BestEffort: true})
		if err != nil || !be.Schedule.Complete(in) {
			return false
		}
		if be.BestEffort {
			bestEffort++
		}
		return sameReport(be.Report, dynflow.Validate(in, be.Schedule))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if feasible == 0 || infeasible == 0 || bestEffort == 0 {
		t.Fatalf("instance mix drifted: %d feasible, %d infeasible, %d best-effort", feasible, infeasible, bestEffort)
	}
}

func sameReport(a, b *dynflow.Report) bool {
	return a.Summary() == b.Summary() && a.LatestArrival == b.LatestArrival &&
		a.PeakOverload() == b.PeakOverload()
}

// TestDeltaRejectsDirtyBase: a schedule that does not validate clean
// cannot seed a Delta.
func TestDeltaRejectsDirtyBase(t *testing.T) {
	in := topo.Fig1Example()
	s := dynflow.NewSchedule(0)
	for _, v := range in.UpdateSet() {
		s.Set(v, 0)
	}
	if dynflow.Validate(in, s).OK() {
		t.Fatal("fig1 one-shot should violate (precondition)")
	}
	if new(dynflow.Delta).Reset(in, s) {
		t.Fatal("Reset accepted a violating base")
	}
}

// FuzzDeltaMatchesValidate drives random Try / Commit / Rollback sequences
// on random instances against the full validator. Each op byte picks a
// switch of the update set (high bits), a tick offset (low bits) and
// whether a clean trial is committed.
func FuzzDeltaMatchesValidate(f *testing.F) {
	f.Add(int64(1), uint8(6), []byte{0x00, 0x13, 0x27, 0x41, 0x90})
	f.Add(int64(7), uint8(30), []byte{0x05, 0x15, 0x25, 0x35, 0x45, 0x55, 0x65, 0x75, 0x85})
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		in := topo.RandomInstance(rng, topo.DefaultRandomParams(4+int(nRaw%37)))
		dd := newDeltaDriver(t, in, 0)
		if len(dd.upd) == 0 {
			return
		}
		for _, op := range ops {
			v := dd.upd[int(op>>4)%len(dd.upd)]
			dd.try(v, dynflow.Tick(op&0x7)*dynflow.Tick(1+op>>7), op&0x8 != 0)
		}
	})
}
