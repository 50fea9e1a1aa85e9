package dynflow

import (
	"math"

	"github.com/chronus-sdn/chronus/internal/graph"
)

// tracer is the allocation-light engine behind Validate and TraceEmission:
// the graph's adjacency resolved into dense per-node slices with link
// ordinals (the skeleton of the time-expanded network G_T), per-trace
// visited sets via stamping, and load accounting keyed by (link ordinal,
// departure tick) packed into one integer.
type tracer struct {
	in *Instance
	// out[v] lists v's outgoing links with their ordinals.
	out   [][]tracerLink
	caps  []graph.Capacity  // by ordinal
	pairs [][2]graph.NodeID // ordinal -> (from, to)
	// maxDelay is the largest link delay (at least 1): it bounds how far
	// past the window a trace can depart.
	maxDelay Tick
	// fingerprint detects graph mutations that invalidate a memoized tracer.
	nodes, links int
	fp           uint64
	// visit stamps detect revisits without a per-trace map.
	visit []uint64
	stamp uint64

	// times holds the schedule under validation as per-node activation
	// ticks (noTime when unscheduled), and oldNext/newNext the instance's
	// per-node next hops; loadSchedule fills all three once per Validate
	// so the trace loop reads flat slices only.
	times            []Tick
	oldNext, newNext []graph.NodeID

	// Load accounting scratch, reused across Validate calls. When the
	// (links × window) product is small the dense epoch-stamped array is
	// used; otherwise loads fall back to a map.
	loadVal   []graph.Capacity
	loadEpoch []uint32
	epoch     uint32
	touched   []int64
	span      int64
	loadMap   map[int64]graph.Capacity
	dense     bool
}

// denseLoadLimit caps the dense scratch size (entries).
const denseLoadLimit = 1 << 22

// beginLoads prepares load accounting for a window of the given span.
func (tr *tracer) beginLoads(span int64) {
	tr.span = span
	tr.touched = tr.touched[:0]
	need := int64(len(tr.caps)) * span
	if need > 0 && need <= denseLoadLimit {
		tr.dense = true
		if int64(len(tr.loadVal)) < need {
			tr.loadVal = make([]graph.Capacity, need)
			tr.loadEpoch = make([]uint32, need)
		}
		tr.epoch++
		if tr.epoch == 0 { // wrapped: clear stamps
			for i := range tr.loadEpoch {
				tr.loadEpoch[i] = 0
			}
			tr.epoch = 1
		}
		return
	}
	tr.dense = false
	tr.loadMap = make(map[int64]graph.Capacity, 1024)
}

// addLoad accounts one unit of demand departing on ordinal at offset ticks
// past the window start.
func (tr *tracer) addLoad(ordinal int32, offset int64) {
	if offset < 0 || offset >= tr.span {
		return // outside the accounted window (cannot happen by window construction)
	}
	key := int64(ordinal)*tr.span + offset
	if tr.dense {
		if tr.loadEpoch[key] != tr.epoch {
			tr.loadEpoch[key] = tr.epoch
			tr.loadVal[key] = 0
			tr.touched = append(tr.touched, key)
		}
		tr.loadVal[key] += tr.in.Demand
		return
	}
	if _, ok := tr.loadMap[key]; !ok {
		tr.touched = append(tr.touched, key)
	}
	tr.loadMap[key] += tr.in.Demand
}

// loadAt reads an accounted load by key.
func (tr *tracer) loadAt(key int64) graph.Capacity {
	if tr.dense {
		return tr.loadVal[key]
	}
	return tr.loadMap[key]
}

type tracerLink struct {
	to      graph.NodeID
	delay   Tick
	ordinal int32
}

// newTracer builds the tracer for in's graph, whose fingerprint is fp:
// the delay-annotated adjacency with stable link ordinals plus fresh
// scratch, O(V+E).
func newTracer(in *Instance, fp uint64) *tracer {
	g := in.G
	n := g.NumNodes()
	tr := &tracer{
		in:       in,
		out:      make([][]tracerLink, n),
		maxDelay: 1,
		nodes:    n,
		links:    g.NumLinks(),
		fp:       fp,
		visit:    make([]uint64, n),
		times:    make([]Tick, n),
	}
	ord := int32(0)
	for _, id := range g.Nodes() {
		for _, l := range g.Out(id) {
			if Tick(l.Delay) > tr.maxDelay {
				tr.maxDelay = Tick(l.Delay)
			}
			tr.out[id] = append(tr.out[id], tracerLink{to: l.To, delay: Tick(l.Delay), ordinal: ord})
			tr.caps = append(tr.caps, l.Cap)
			tr.pairs = append(tr.pairs, [2]graph.NodeID{id, l.To})
			ord++
		}
	}
	for i := range tr.times {
		tr.times[i] = noTime
	}
	return tr
}

// noTime marks a switch without an activation tick: no tick reaches it.
const noTime = Tick(math.MaxInt64)

// loadSchedule points the tracer at schedule s: its activation ticks go
// into the flat times slice and the next hops come from the instance's
// path index. unloadSchedule must follow before the tracer is reused.
func (tr *tracer) loadSchedule(s *Schedule) {
	idx := tr.in.ensureIndex()
	tr.oldNext, tr.newNext = idx.oldNext, idx.newNext
	for v, t := range s.Times {
		if v >= 0 && int(v) < len(tr.times) {
			tr.times[v] = t
		}
	}
}

// unloadSchedule resets the entries loadSchedule set.
func (tr *tracer) unloadSchedule(s *Schedule) {
	for v := range s.Times {
		if v >= 0 && int(v) < len(tr.times) {
			tr.times[v] = noTime
		}
	}
}

// nextHop is NextHopAt over the loaded schedule.
func (tr *tracer) nextHop(v graph.NodeID, t Tick) graph.NodeID {
	if v < 0 || int(v) >= len(tr.newNext) {
		return graph.Invalid
	}
	if nn := tr.newNext[v]; nn != graph.Invalid && t >= tr.times[v] {
		return nn
	}
	return tr.oldNext[v]
}

// tracerFor returns the instance's memoized tracer, rebuilding it when
// the graph changed.
func tracerFor(in *Instance) *tracer {
	fp := in.G.Fingerprint()
	if in.trc != nil && in.trc.nodes == in.G.NumNodes() && in.trc.links == in.G.NumLinks() &&
		in.trc.fp == fp {
		return in.trc
	}
	in.trc = newTracer(in, fp)
	return in.trc
}

func (tr *tracer) link(from, to graph.NodeID) (tracerLink, bool) {
	if int(from) >= len(tr.out) {
		return tracerLink{}, false
	}
	for _, l := range tr.out[from] {
		if l.to == to {
			return l, true
		}
	}
	return tracerLink{}, false
}

// trace follows one emission through the loaded schedule, accumulating
// loads and returning the terminal status with its location and tick.
func (tr *tracer) trace(emit Tick, base Tick) (status TraceStatus, at graph.NodeID, end Tick) {
	in := tr.in
	cur := in.Source()
	t := emit
	dest := in.Dest()
	tr.stamp++
	tr.visit[cur] = tr.stamp
	for step := 0; step <= len(tr.visit); step++ {
		if cur == dest {
			return Delivered, graph.Invalid, t
		}
		nh := tr.nextHop(cur, t)
		if nh == graph.Invalid {
			return Blackholed, cur, t
		}
		l, ok := tr.link(cur, nh)
		if !ok {
			return Blackholed, cur, t
		}
		tr.addLoad(l.ordinal, int64(t-base))
		t += l.delay
		cur = nh
		if int(cur) < len(tr.visit) && tr.visit[cur] == tr.stamp {
			return Looped, cur, t
		}
		tr.visit[cur] = tr.stamp
	}
	return Looped, cur, t
}
