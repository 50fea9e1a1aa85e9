package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// plan-n40: one caller solves distinct paper-random 40-switch instances
// (the size of Fig. 11) back to back with the exact Chronus greedy.
const (
	planN      = 40
	planWarmup = 5
	planPrefix = 300
	// planPool bounds the inputs generated in set-up: several times what
	// a 50 s run solves today.
	planPool = 2000
)

// instanceKey identifies an instance's topology and migration pair.
type instanceKey struct {
	g, init, fin uint64
	demand       graph.Capacity
}

func keyOf(in *dynflow.Instance) instanceKey {
	return instanceKey{in.G.Fingerprint(), graph.PathFingerprint(in.Init), graph.PathFingerprint(in.Fin), in.Demand}
}

// countRepeats marks, for every instance, whether an earlier one had
// the same key.
func countRepeats(ins []*dynflow.Instance) []bool {
	seen := make(map[instanceKey]bool, len(ins))
	out := make([]bool, len(ins))
	for i, in := range ins {
		k := keyOf(in)
		out[i] = seen[k]
		seen[k] = true
	}
	return out
}

func runPlan(cfg config, sp *spans) (*result, error) {
	prefix := planPrefix
	if cfg.prefix > 0 {
		prefix = cfg.prefix
	}
	res := &result{}
	var ins []*dynflow.Instance
	res.setup = setupTimed(func() {
		rng := rand.New(rand.NewSource(cfg.seed))
		ins = topo.RandomInstances(rng, topo.DefaultRandomParams(planN), planWarmup+planPool)
	})
	repeated := countRepeats(ins)
	reg := newRegistry()
	// The validator reports on the instance's registry, the way the
	// daemon wires its instance.
	for _, in := range ins {
		in.Obs = reg
	}

	for _, in := range ins[:planWarmup] {
		if _, err := scheme.Solve("chronus", in, scheme.Options{Obs: reg}); err != nil && !errors.Is(err, scheme.ErrInfeasible) {
			return nil, fmt.Errorf("warm-up solve: %w", err)
		}
	}
	timed := ins[planWarmup:]
	repeated = repeated[planWarmup:]

	res.regFrom = snapRegistry(reg)
	w := openWindow(sp)
	dl := deadline{start: time.Now(), length: cfg.seconds, prefix: prefix}
	for i := 0; i < len(timed) && !dl.done(i); i++ {
		in := timed[i]
		sp.next(cfg.trace && i%2 == 0)
		var out *scheme.Result
		var err error
		t0 := time.Now()
		sp.do("update", int64(i+1), func() {
			sp.do("scheme.solve", int64(i+1), func() {
				out, err = scheme.Solve("chronus", in, scheme.Options{Obs: reg})
			})
		})
		res.lat = append(res.lat, ms(time.Since(t0)))
		res.traced = append(res.traced, sp.on)

		failed := err != nil
		switch {
		case errors.Is(err, scheme.ErrInfeasible):
		case err != nil:
			res.fail("update %d: solve: %v", i+1, err)
		case out.Schedule == nil:
			failed = true
			res.fail("update %d: solve returned no schedule", i+1)
		default:
			// Output check, outside the update's span: the schedule is a
			// certificate the validator accepts. It reports to no registry,
			// so the prefix's counts hold the solve alone.
			in.Obs = nil
			var rep *dynflow.Report
			sp.do("dynflow.validate", int64(i+1), func() { rep = dynflow.Validate(in, out.Schedule) })
			if !rep.OK() {
				res.fail("update %d: schedule fails validation: %s", i+1, rep.Summary())
			}
		}
		// Drop the solved instance, and the validator state it carries,
		// as the daemon does once an update is over.
		timed[i] = nil
		if i < prefix {
			res.prefixUpdates++
			if failed {
				res.prefixFailed++
			} else {
				res.makespans = append(res.makespans, float64(out.Schedule.Makespan()))
			}
			if repeated[i] {
				res.repeats++
			}
			if i == prefix-1 {
				res.regTo = snapRegistry(reg)
			}
		}
	}
	res.loop = closeWindow(sp, w)
	res.peakRSS = peakRSSMB()
	if len(res.lat) < prefix {
		return nil, fmt.Errorf("input pool of %d exhausted before the %d-update prefix", len(timed), prefix)
	}
	return res, nil
}
