package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/chronus-sdn/chronus/internal/admit"
	"github.com/chronus-sdn/chronus/internal/dynflow"
	"github.com/chronus-sdn/chronus/internal/graph"
	"github.com/chronus-sdn/chronus/internal/obs"
	"github.com/chronus-sdn/chronus/internal/topo"
)

// admit-pods: tenant churn into the admission engine on 16
// link-disjoint 8-switch pods merged into one 128-switch graph, with
// the soak generator's pod parameters and request distribution.
// Arrivals come 16 per virtual tick; the benchmark submits a tick's
// arrivals at the tick's virtual time and then drains waves until the
// queue is empty, so every run makes the same admission decisions.
const (
	podCount        = 16
	podSize         = 8
	arrivalsPerTick = 16
	admitWarmTicks  = 4
	admitPrefix     = 200 // ticks
	// admitPool bounds the arrival ticks generated in set-up: several
	// times what a 50 s run drains today.
	admitPool = 6000
)

// pod is one link-disjoint region of the shared graph and the two paths
// its updates migrate between, in either direction.
type pod struct {
	init, fin graph.Path
	demand    graph.Capacity
}

// podParams shapes each pod like the soak generator does: mostly slack
// capacities so several small updates can share a pod, short delays.
func podParams() topo.RandomParams {
	p := topo.DefaultRandomParams(podSize)
	p.Demand = 4
	p.TightFraction = 0.25
	p.MaxDelay = 3
	return p
}

// podTopology merges podCount random instances into one graph; pods
// share no links, so cross-pod updates are disjoint.
func podTopology(rng *rand.Rand) (*graph.Graph, []pod) {
	g := graph.New()
	pods := make([]pod, podCount)
	for p := range pods {
		in := topo.RandomInstance(rng, podParams())
		remap := make([]graph.NodeID, in.G.NumNodes())
		for _, id := range in.G.Nodes() {
			remap[id] = g.AddNode(fmt.Sprintf("p%d.%s", p, in.G.Name(id)))
		}
		for _, l := range in.G.Links() {
			g.MustAddLink(remap[l.From], remap[l.To], l.Cap, l.Delay)
		}
		rePath := func(path graph.Path) graph.Path {
			out := make(graph.Path, len(path))
			for i, id := range path {
				out[i] = remap[id]
			}
			return out
		}
		pods[p] = pod{init: rePath(in.Init), fin: rePath(in.Fin), demand: in.Demand}
	}
	return g, pods
}

// arrival is one generated request and whether its pod, direction and
// demand appeared earlier in the stream.
type arrival struct {
	req      admit.Request
	repeated bool
}

// arrivals draws ticks×arrivalsPerTick requests the way the soak does:
// a random pod, either direction, a demand up to the pod's, priority
// 0–2, and every fifth update holding its reservation.
func arrivals(rng *rand.Rand, pods []pod, ticks int) [][]arrival {
	type key struct {
		pod, dir int
		demand   graph.Capacity
	}
	seen := map[key]bool{}
	out := make([][]arrival, ticks)
	i := 0
	for t := range out {
		out[t] = make([]arrival, arrivalsPerTick)
		for j := range out[t] {
			p := rng.Intn(len(pods))
			init, fin := pods[p].init, pods[p].fin
			dir := rng.Intn(2)
			if dir == 0 {
				init, fin = fin, init
			}
			k := key{p, dir, 1 + graph.Capacity(rng.Intn(int(pods[p].demand)))}
			out[t][j] = arrival{
				req: admit.Request{
					Tenant:   fmt.Sprintf("tenant-%d", p%4),
					Flow:     fmt.Sprintf("u%d", i),
					Demand:   k.demand,
					Init:     init,
					Fin:      fin,
					Priority: rng.Intn(3),
					Hold:     i%5 == 0,
				},
				repeated: seen[k],
			}
			seen[k] = true
			i++
		}
	}
	return out
}

// hold is an open capacity hold and the wave that opened it.
type hold struct {
	id   uint64
	wave int
	req  admit.Request
}

func runAdmit(cfg config, sp *spans) (*result, error) {
	prefix := admitPrefix
	if cfg.prefix > 0 {
		prefix = cfg.prefix
	}
	res := &result{}
	var (
		g    *graph.Graph
		pool [][]arrival
		reg  *obs.Registry
		e    *admit.Engine
		vt   int64
	)
	res.setup = setupTimed(func() {
		rng := rand.New(rand.NewSource(cfg.seed))
		var pods []pod
		g, pods = podTopology(rng)
		pool = arrivals(rng, pods, admitWarmTicks+admitPool)
		reg = newRegistry()
		e = admit.New(g, admit.Options{
			QueueCap:      256,
			Window:        64,
			HeadroomTicks: 50,
			Procs:         runtime.GOMAXPROCS(0),
			Obs:           reg,
			Now:           func() int64 { return vt },
		})
	})

	var (
		holds   []hold
		waves   int
		heldSet [][]hold // open holds after every timed wave
		heldOn  []bool   // whether that wave's tick was traced
	)
	// tick submits one tick's arrivals and drains waves until the queue
	// is empty. Timed ticks record each update's latency — from its
	// Submit call until the wave that resolves it returns — and its
	// outcome; holds complete two waves after they open.
	tick := func(t int, timed bool) {
		type pending struct {
			id  uint64
			t0  time.Time
			req admit.Request
			idx int
		}
		var pend []pending
		vt++
		for j, a := range pool[t] {
			idx := t*arrivalsPerTick + j + 1
			t0 := time.Now()
			var id uint64
			var err error
			sp.do("admit.submit", int64(idx), func() { id, err = e.Submit(a.req) })
			if err != nil {
				res.fail("update %d: submit: %v", idx, err)
				continue
			}
			pend = append(pend, pending{id, t0, a.req, idx})
		}
		for w := 0; len(pend) > 0; w++ {
			if w > 0 {
				vt++ // a further wave of the same arrivals runs a tick later
			}
			var progressed bool
			sp.do("admit.wave", 0, func() { progressed = e.DrainOne() })
			if !progressed {
				break
			}
			waves++
			end := time.Now()
			sp.do("admit.record", 0, func() {
				keep := pend[:0]
				for _, p := range pend {
					v, _ := e.View(p.id)
					switch admit.State(v.State) {
					case admit.StateQueued, admit.StatePlanning:
						keep = append(keep, p)
						continue
					case admit.StateExecuting:
						if !p.req.Hold {
							keep = append(keep, p)
							continue
						}
						holds = append(holds, hold{id: p.id, wave: waves, req: p.req})
					}
					if !timed {
						continue
					}
					res.lat = append(res.lat, ms(end.Sub(p.t0)))
					res.traced = append(res.traced, sp.on)
					if t-admitWarmTicks >= prefix {
						continue
					}
					res.prefixUpdates++
					res.queueWaits = append(res.queueWaits, float64(v.QueueWaitTicks))
					if pool[t][(p.idx-1)%arrivalsPerTick].repeated {
						res.repeats++
					}
					s, ok := e.ScheduleOf(p.id)
					if admit.State(v.State) == admit.StateRefused || !ok {
						res.prefixFailed++
						continue
					}
					res.makespans = append(res.makespans, float64(s.Makespan()))
				}
				pend = keep
				if timed {
					heldSet = append(heldSet, append([]hold(nil), holds...))
					heldOn = append(heldOn, sp.on)
				}
			})
			keep := holds[:0]
			for _, h := range holds {
				if waves-h.wave < 2 {
					keep = append(keep, h)
					continue
				}
				sp.do("admit.complete", 0, func() { e.Complete(h.id) })
			}
			holds = keep
		}
		for _, p := range pend {
			res.fail("update %d unresolved after the queue drained", p.idx)
		}
	}

	for t := 0; t < admitWarmTicks; t++ {
		tick(t, false)
	}
	res.regFrom = snapRegistry(reg)
	w := openWindow(sp)
	dl := deadline{start: time.Now(), length: cfg.seconds, prefix: prefix}
	n := 0
	for ; admitWarmTicks+n < len(pool) && !dl.done(n); n++ {
		t := admitWarmTicks + n
		sp.next(cfg.trace && n%2 == 0)
		sp.do("tick", 0, func() { tick(t, true) })
		if n == prefix-1 {
			res.regTo = snapRegistry(reg)
		}
	}
	res.loop = closeWindow(sp, w)
	res.peakRSS = peakRSSMB()
	if n < prefix {
		return nil, fmt.Errorf("input pool of %d ticks exhausted before the %d-tick prefix", admitPool, prefix)
	}

	// Output checks, outside the timed loop: every held set was jointly
	// valid on the real graph, the ledger never over-committed, and it
	// is empty once every hold has completed.
	sp.on = false
	for _, h := range holds {
		e.Complete(h.id)
	}
	e.Drain()
	for i, set := range heldSet {
		if len(set) == 0 {
			continue
		}
		joint := make([]dynflow.FlowUpdate, 0, len(set))
		for _, h := range set {
			s, ok := e.ScheduleOf(h.id)
			if !ok {
				res.fail("held update %d has no schedule", h.id)
				continue
			}
			joint = append(joint, dynflow.FlowUpdate{
				Name: fmt.Sprintf("h%d", h.id),
				In:   &dynflow.Instance{G: g, Demand: h.req.Demand, Init: h.req.Init, Fin: h.req.Fin},
				S:    s,
			})
		}
		sp.on = cfg.trace && heldOn[i]
		var rep *dynflow.JointReport
		var err error
		sp.do("dynflow.validate_joint", 0, func() { rep, err = dynflow.ValidateJoint(joint) })
		switch {
		case err != nil:
			res.fail("wave %d: joint validation: %v", i+1, err)
		case !rep.OK():
			c := rep.Congestion[0]
			res.fail("wave %d: held set of %d fails joint validation (%s); first: link %s>%s departing at tick %d carries %d > capacity %d",
				i+1, len(joint), rep.Summary(), g.Name(c.Link.From), g.Name(c.Link.To), c.Link.Depart, c.Load, c.Cap)
		}
	}
	sp.on = false
	if oc := reg.Counter("chronus_admit_ledger_overcommit_total").Value(); oc != 0 {
		res.fail("ledger over-committed %d times", oc)
	}
	if u := e.Ledger().Utilization(); u.Holds != 0 || u.ReservedUnits != 0 {
		res.fail("ledger not empty after the final drain: %+v", u)
	}
	return res, nil
}
