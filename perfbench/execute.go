package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/chronus-sdn/chronus/internal/audit"
	"github.com/chronus-sdn/chronus/internal/clock"
	"github.com/chronus-sdn/chronus/internal/controller"
	"github.com/chronus-sdn/chronus/internal/core"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/emu"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/health"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/scheme"
	"github.com/chronus-sdn/chronus/internal/sim"
	"github.com/chronus-sdn/chronus/internal/state"
	"github.com/chronus-sdn/chronus/internal/timesync"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// execute-n10: one caller runs the daemon's executed-update path over
// distinct paper-random 10-switch instances (the scale of the daemon's
// emulation topology), each on a freshly built emulated testbed.
const (
	execN      = 10
	execWarmup = 10
	execPrefix = 600
	// execHeadroom is how far in the virtual future the schedule starts,
	// the daemon's default.
	execHeadroom = 50
	// execPool bounds the inputs generated in set-up: several times what
	// a 50 s run executes today.
	execPool = 6000
)

// testbed is one update's emulated network and the daemon components
// that watch it.
type testbed struct {
	tb     *controller.Harness
	ctl    *controller.Controller
	tracer *obs.Tracer
	health *health.Engine
	flow   controller.FlowSpec
}

// newTestbed boots a fresh testbed for in the way the daemon does in
// virtual mode: seeded control latency, the default clock ensemble, the
// flow provisioned on its initial path.
func newTestbed(in *dynflow.Instance, reg *obs.Registry, seed int64) (*testbed, error) {
	b := &testbed{tb: controller.NewHarness(in.G), tracer: obs.NewTracer(obs.TracerOptions{})}
	b.tb.Net.SetObs(reg, b.tracer)
	b.ctl = controller.New(b.tb, controller.Options{Seed: seed, Obs: reg, Trace: b.tracer})
	b.ctl.AttachAll(timesync.New(timesync.DefaultParams(seed), in.G.Nodes()))
	b.flow = controller.FlowSpec{Name: "agg", Tag: 0, Path: in.Init, Rate: emu.Rate(in.Demand)}
	b.health = health.New(reg)
	return b, b.ctl.Provision(b.flow)
}

// verdicts are the folds' judgements on one executed update.
type verdicts struct {
	audit    *audit.Report
	drift    state.DriftReport
	health   health.Verdict
	overload sim.Time
}

// executeOne runs the executed-update path on b, the way the daemon's
// executeUpdate does: plan with the scheme registry (passing the
// program's tracer, so the plan cache is bypassed), arm health with the
// schedule's slack, record the intent, send the timed FlowMods 50 ticks
// out, run the emulation past the last apply and its drain, then fold
// the trace through audit, state, clock and health.
func executeOne(sp *spans, id int64, in *dynflow.Instance, reg *obs.Registry, b *testbed) (*dynflow.Schedule, *verdicts, error) {
	now := int64(b.tb.Now())
	root := b.tracer.StartSpan(now, "update", 0, obs.A("method", "chronus"))
	b.ctl.SetSpan(root.SpanID())
	s, err := executePlanned(sp, id, in, reg, b, root.SpanID())
	b.ctl.SetSpan(0)
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	root.End(int64(b.tb.Now()), obs.A("outcome", outcome))
	if err != nil {
		return nil, nil, err
	}

	v := &verdicts{}
	evs := b.tracer.Events(0)
	sp.do("audit.fold", id, func() {
		a := audit.New()
		a.Feed(evs...)
		v.audit = a.Report()
	})
	sp.do("state.fold", id, func() {
		st := state.New(state.Options{Obs: reg})
		st.Observe(evs)
		v.drift = st.DriftBody()
	})
	var ck *clock.Estimator
	sp.do("clock.fold", id, func() {
		ck = clock.New(reg)
		ck.Observe(evs)
	})
	sp.do("health.fold", id, func() {
		b.health.SetClock(ck)
		b.health.Observe(evs)
		v.health = b.health.Verdict()
	})
	b.tb.Do(func() { v.overload = b.tb.Net.TotalOverloadTicks() })
	return s, v, nil
}

func executePlanned(sp *spans, id int64, in *dynflow.Instance, reg *obs.Registry, b *testbed, root obs.SpanID) (*dynflow.Schedule, error) {
	now := int64(b.tb.Now())
	var res *scheme.Result
	var err error
	sp.do("scheme.solve", id, func() {
		res, err = scheme.Solve("chronus", in, scheme.Options{Obs: reg, Trace: b.tracer, VT: now, Span: root})
	})
	if err != nil {
		return nil, err
	}
	if res.Schedule == nil {
		return nil, errors.New("solve returned no schedule")
	}
	report := res.Report
	if report == nil {
		sp.do("dynflow.validate", id, func() { report = dynflow.Validate(in, res.Schedule) })
	}
	start := dynflow.Tick(now) + execHeadroom
	sched := dynflow.NewSchedule(start)
	for v, tv := range res.Schedule.Times {
		sched.Set(v, start+(tv-res.Schedule.Start))
	}
	var slack []core.SwitchSlack
	sp.do("core.slack", id, func() { slack = core.ScheduleSlack(in, res.Schedule) })
	plan := health.Plan{Kind: "timed", Valid: report.OK(), StartTick: now}
	for _, sl := range slack {
		plan.Switches = append(plan.Switches, health.PlanSwitch{
			Switch:     in.G.Name(sl.V),
			SlackTicks: int64(sl.Slack),
			ApplyTick:  int64(start + (sl.Time - res.Schedule.Start)),
			Critical:   sl.Critical,
		})
	}
	sp.do("health.arm", id, func() { b.health.SetPlan(plan) })
	sp.do("obs.emit", id, func() {
		b.tracer.EmitSpan("plan", root, now, now,
			obs.A("kind", "timed"), obs.A("switches", len(sched.Times)),
			obs.A("start", int64(start)), obs.A("valid", report.OK()))
		var minSlack int64
		sws := make([]state.IntentSwitch, 0, len(sched.Times))
		for i, ps := range plan.Switches {
			if i == 0 || ps.SlackTicks < minSlack {
				minSlack = ps.SlackTicks
			}
		}
		for v, tv := range sched.Times {
			next := "host"
			if nh := in.Fin.NextHop(v); nh != graph.Invalid {
				next = in.G.Name(nh)
			}
			sws = append(sws, state.IntentSwitch{Switch: in.G.Name(v), Next: next, At: int64(tv)})
		}
		b.tracer.Point(now, "state.intent",
			obs.A("id", id), obs.A("tenant", "bench"), obs.A("flow", b.flow.Name),
			obs.A("key", fmt.Sprintf("%s/%d", b.flow.Name, b.flow.Tag)), obs.A("kind", "execute"),
			obs.A("method", "chronus"), obs.A("slack", minSlack),
			obs.A("switches", state.EncodeIntentSwitches(sws)))
	})
	sp.do("controller.execute", id, func() { err = b.ctl.ExecuteTimed(in, sched, b.flow) })
	if err != nil {
		return nil, err
	}
	drain := sim.Time(in.Init.Delay(in.G)+in.Fin.Delay(in.G)) + 10
	sp.do("emu.advance", id, func() { b.tb.AdvanceTo(sim.Time(sched.End()) + drain) })
	return res.Schedule, nil
}

// check reports why an executed update's verdicts are not clean.
func (v *verdicts) check() error {
	switch {
	case !v.audit.OK():
		return fmt.Errorf("audit found %d violations", v.audit.Violations())
	case v.overload != 0:
		return fmt.Errorf("emulator reports %d overload ticks", v.overload)
	case v.health.Level == health.Crit.String():
		return fmt.Errorf("health is CRIT: %v", v.health.Reasons)
	case len(v.drift.Updates) != 1 || v.drift.Updates[0].Status != "converged":
		return fmt.Errorf("drift is not converged: %v", v.drift.Counts)
	}
	return nil
}

func runExecute(cfg config, sp *spans) (*result, error) {
	prefix := execPrefix
	if cfg.prefix > 0 {
		prefix = cfg.prefix
	}
	res := &result{}
	var ins []*dynflow.Instance
	res.setup = setupTimed(func() {
		rng := rand.New(rand.NewSource(cfg.seed))
		ins = topo.RandomInstances(rng, topo.DefaultRandomParams(execN), execWarmup+execPool)
	})
	repeated := countRepeats(ins)
	reg := newRegistry()
	for _, in := range ins {
		in.Obs = reg
	}

	// one runs update i (0-based over all inputs); the testbed is built
	// before the update's clock starts.
	one := func(i int) (lat time.Duration, s *dynflow.Schedule, v *verdicts, events int, err error) {
		id := int64(i + 1)
		var b *testbed
		sp.do("controller.testbed", id, func() { b, err = newTestbed(ins[i], reg, cfg.seed+id) })
		if err != nil {
			return 0, nil, nil, 0, fmt.Errorf("testbed: %w", err)
		}
		t0 := time.Now()
		s, v, err = executeOne(sp, id, ins[i], reg, b)
		lat = time.Since(t0)
		return lat, s, v, len(b.tracer.Events(0)), err
	}

	for i := 0; i < execWarmup; i++ {
		if _, _, _, _, err := one(i); err != nil && !errors.Is(err, scheme.ErrInfeasible) {
			return nil, fmt.Errorf("warm-up update %d: %w", i+1, err)
		}
	}
	res.regFrom = snapRegistry(reg)
	w := openWindow(sp)
	dl := deadline{start: time.Now(), length: cfg.seconds, prefix: prefix}
	n := 0
	for ; execWarmup+n < len(ins) && !dl.done(n); n++ {
		i := execWarmup + n
		sp.next(cfg.trace && n%2 == 0)
		var (
			lat    time.Duration
			s      *dynflow.Schedule
			v      *verdicts
			events int
			err    error
		)
		sp.do("update", int64(i+1), func() { lat, s, v, events, err = one(i) })
		ins[i] = nil // the daemon drops an update's instance once it is over
		res.lat = append(res.lat, ms(lat))
		res.traced = append(res.traced, sp.on)

		failed := err != nil
		if err != nil && !errors.Is(err, scheme.ErrInfeasible) {
			res.fail("update %d: %v", i+1, err)
		}
		if v != nil {
			if cerr := v.check(); cerr != nil {
				failed = true
				res.fail("update %d: %v", i+1, cerr)
			}
		}
		if n < prefix {
			res.prefixUpdates++
			res.events += events
			if failed {
				res.prefixFailed++
			} else {
				res.makespans = append(res.makespans, float64(s.Makespan()))
			}
			if repeated[i] {
				res.repeats++
			}
			if n == prefix-1 {
				res.regTo = snapRegistry(reg)
			}
		}
	}
	res.loop = closeWindow(sp, w)
	res.peakRSS = peakRSSMB()
	if n < prefix {
		return nil, fmt.Errorf("input pool of %d exhausted before the %d-update prefix", execPool, prefix)
	}
	return res, nil
}
