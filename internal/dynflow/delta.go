package dynflow

import (
	"github.com/chronus-sdn/chronus/internal/graph"
)

// Delta is the incremental form of Validate for schedules that change one
// activation at a time. It is built from a clean schedule and keeps, in
// flat reusable slices, what a full validation of that schedule computes:
// every emission's hops, the per-(link, tick) loads and every arrival over
// the exact Validate window [Start − φ(p_init), LatestArrival].
//
// Moving switch v's activation from tick a to tick b changes only the
// forwarding decisions v makes for units arriving in [min(a,b), max(a,b)):
// every other decision, and so every trace up to its visit of v, stays as
// it was. Try therefore re-traces only the suffixes of the emissions that
// decide at v inside that range, traces the emissions that enter the
// window whole, drops those that leave it, and checks capacity only on the
// load keys whose load grew: the base state was clean, so no other key can
// be over capacity. Its verdict and LatestArrival equal a full Validate of
// the trial schedule; Commit keeps the trial (so the state stays clean)
// and Rollback discards it.
//
// A Delta is not safe for concurrent use.
type Delta struct {
	demand     graph.Capacity
	schedStart Tick // Schedule.Start
	start      Tick // window start: Schedule.Start − φ(p_init)

	// Columns are the switches on the initial or final path, the only
	// ones a trace can reach. Each column has its old and new rule.
	colOf     []int32 // node -> column, -1 off the paths
	node      []graph.NodeID
	old, new  []deltaRule
	src, dest int32
	caps      []graph.Capacity // by load column (one per rule link)

	// times is the schedule as per-node activation ticks (noTime when
	// unscheduled); extra holds entries outside the graph's node range,
	// which matter only to End. end is the committed End.
	times []Tick
	extra map[graph.NodeID]Tick
	end   Tick

	// Committed emissions, indexed by e − start over [start, latest]:
	// all delivered (the state is clean). hops holds one row of m slots
	// per emission; dec[c][i] is the tick emission i decides at column c
	// (noTime when it does not visit c).
	m      int
	nhop   []int32
	arrive []Tick
	hops   []deltaHop
	dec    [][]Tick
	latest Tick
	// loads is keyed (departure − start) × links + load column.
	loads []graph.Capacity

	// The pending trial.
	trying     bool
	trialOK    bool
	trialV     graph.NodeID
	trialPrev  Tick
	trialEnd   Tick
	trialLast  Tick
	changes    []deltaChange
	shops      []deltaHop
	bad        bool
	dload      []deltaLoad
	dgen       uint32
	dkeys      []int
	visit      []uint32
	visitStamp uint32

	vm validatorMetrics
}

// deltaRule is one forwarding rule of a column: the next hop's column and
// the link's load column and delay. to < 0 means no rule; link < 0 means
// the rule names a link the graph lacks (Validate counts both as
// blackholes).
type deltaRule struct {
	to, link int32
	delay    Tick
}

// deltaHop is one link traversal: from column col at tick depart on load
// column link.
type deltaHop struct {
	col, link int32
	depart    Tick
}

// deltaLoad is a trial's load change on one key, live when gen is the
// trial's generation.
type deltaLoad struct {
	val graph.Capacity
	gen uint32
}

// deltaChange is one re-traced emission of a trial: hops k0.. of row i
// are replaced by n hops starting at off in the trial arena.
type deltaChange struct {
	i, k0, n, off int32
	arrive        Tick
}

// Reset builds d for instance in (which must pass in.Validate) and
// schedule s, reusing d's slices, and reports whether s validates clean:
// the delta rule needs a clean base, so after a false result d must be
// Reset again before use. The zero Delta is ready for Reset. d keeps no
// reference to in or s.
func (d *Delta) Reset(in *Instance, s *Schedule) bool {
	tr := tracerFor(in)
	idx := in.ensureIndex()
	n := tr.nodes
	d.demand = in.Demand
	d.schedStart = s.Start
	d.start = s.Start - Tick(in.Init.Delay(in.G))
	d.vm = validatorMetrics{}
	if in.Obs != nil {
		d.vm = newValidatorMetrics(in.Obs)
	}

	// Columns: every node on either path, in path order.
	d.colOf = fill(d.colOf[:0], n, int32(-1))
	d.node = d.node[:0]
	for _, p := range []graph.Path{in.Init, in.Fin} {
		for _, v := range p {
			if v >= 0 && int(v) < n && d.colOf[v] < 0 {
				d.colOf[v] = int32(len(d.node))
				d.node = append(d.node, v)
			}
		}
	}
	d.m = len(d.node)
	d.src, d.dest = d.colOf[in.Source()], d.colOf[in.Dest()]
	// Rules, with one load column per distinct (switch, next hop) link.
	d.old, d.new, d.caps = d.old[:0], d.new[:0], d.caps[:0]
	rule := func(u, to graph.NodeID, same *deltaRule) deltaRule {
		if to == graph.Invalid {
			return deltaRule{to: -1, link: -1}
		}
		l, ok := tr.link(u, to)
		if !ok || to < 0 || int(to) >= n {
			return deltaRule{to: 0, link: -1}
		}
		if same != nil && same.to == d.colOf[to] && same.link >= 0 {
			return *same
		}
		d.caps = append(d.caps, tr.caps[l.ordinal])
		return deltaRule{to: d.colOf[to], link: int32(len(d.caps) - 1), delay: l.delay}
	}
	for _, u := range d.node {
		o := rule(u, idx.oldNext[u], nil)
		d.old = append(d.old, o)
		d.new = append(d.new, rule(u, idx.newNext[u], &o))
	}

	d.times = fill(d.times[:0], n, noTime)
	for k := range d.extra {
		delete(d.extra, k)
	}
	for v, t := range s.Times {
		if v >= 0 && int(v) < n {
			d.times[v] = t
		} else {
			if d.extra == nil {
				d.extra = make(map[graph.NodeID]Tick)
			}
			d.extra[v] = t
		}
	}
	d.end = s.End()

	d.nhop, d.arrive, d.hops = d.nhop[:0], d.arrive[:0], d.hops[:0]
	for len(d.dec) < d.m {
		d.dec = append(d.dec, nil)
	}
	for c := range d.dec {
		d.dec[c] = d.dec[c][:0]
	}
	d.loads = d.loads[:0]
	d.latest = d.start - 1
	d.visit = fill(d.visit[:0], d.m, 0)
	d.visitStamp = 0

	// The base is a trial from the empty window.
	d.evaluate(-1, 0, 0, d.end)
	if !d.trialOK {
		d.trying = false
		return false
	}
	d.Commit()
	return true
}

func fill[T any](s []T, n int, v T) []T {
	for len(s) < n {
		s = append(s, v)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// Bytes reports the capacity of d's slices, for pooled-memory gauges.
func (d *Delta) Bytes() int64 {
	b := int64(cap(d.hops)+cap(d.shops)) * 16
	b += int64(cap(d.arrive)+cap(d.times)+cap(d.loads))*8 + int64(cap(d.dload))*16
	for _, dec := range d.dec {
		b += int64(cap(dec)) * 8
	}
	b += int64(cap(d.nhop)+cap(d.colOf)+cap(d.visit)) * 4
	b += int64(cap(d.changes))*24 + int64(cap(d.dkeys))*8
	return b
}

// LatestArrival is the committed schedule's Report.LatestArrival.
func (d *Delta) LatestArrival() Tick { return d.latest }

// Try tentatively moves switch v's activation to tick t (scheduling it if
// it had none) and reports whether the resulting schedule validates clean,
// with its LatestArrival: both equal Validate's on that schedule. Commit
// or Rollback must follow before the next Try.
func (d *Delta) Try(v graph.NodeID, t Tick) (ok bool, latestArrival Tick) {
	if d.trying {
		panic("dynflow: Delta.Try with a trial pending")
	}
	prev := d.timeOf(v)
	d.setTime(v, t)
	newEnd := d.end
	switch {
	case t >= d.end:
		newEnd = t
	case prev == d.end:
		newEnd = d.recomputeEnd()
	}
	lo, hi := prev, t
	if t < prev {
		lo, hi = t, prev
	}
	c := int32(-1)
	if v >= 0 && int(v) < len(d.colOf) {
		c = d.colOf[v]
	}
	d.trialV, d.trialPrev = v, prev
	d.evaluate(c, lo, hi, newEnd)
	return d.trialOK, d.trialLast
}

// Commit keeps the pending trial, which must have validated clean.
func (d *Delta) Commit() {
	if !d.trying || !d.trialOK {
		panic("dynflow: Delta.Commit without a clean pending trial")
	}
	d.trying = false
	keep := int(d.trialLast - d.start + 1)
	// Emissions leaving the window.
	for i := keep; i < len(d.nhop); i++ {
		d.clearRow(i, 0)
	}
	if keep < len(d.nhop) {
		d.nhop, d.arrive = d.nhop[:keep], d.arrive[:keep]
		d.hops = d.hops[:keep*d.m]
		for c := range d.dec[:d.m] {
			d.dec[c] = d.dec[c][:keep]
		}
	}
	for _, ch := range d.changes {
		i := int(ch.i)
		for i >= len(d.nhop) {
			d.nhop = append(d.nhop, 0)
			d.arrive = append(d.arrive, 0)
			for k := 0; k < d.m; k++ {
				d.hops = append(d.hops, deltaHop{})
			}
			for c := range d.dec[:d.m] {
				d.dec[c] = append(d.dec[c], noTime)
			}
		}
		d.clearRow(i, int(ch.k0))
		row := d.hops[i*d.m : (i+1)*d.m]
		copy(row[ch.k0:], d.shops[ch.off:ch.off+ch.n])
		for _, h := range row[ch.k0 : ch.k0+ch.n] {
			d.dec[h.col][i] = h.depart
		}
		d.nhop[i] = ch.k0 + ch.n
		d.arrive[i] = ch.arrive
	}
	for _, key := range d.dkeys {
		for key >= len(d.loads) {
			d.loads = append(d.loads, 0)
		}
		d.loads[key] += d.dload[key].val
	}
	d.end = d.trialEnd
	d.latest = d.trialLast
}

// Rollback discards the pending trial.
func (d *Delta) Rollback() {
	if !d.trying {
		panic("dynflow: Delta.Rollback without a pending trial")
	}
	d.trying = false
	d.setTime(d.trialV, d.trialPrev)
}

// clearRow forgets the decisions of emission i's hops from k0 on.
func (d *Delta) clearRow(i, k0 int) {
	row := d.hops[i*d.m : i*d.m+int(d.nhop[i])]
	for _, h := range row[k0:] {
		d.dec[h.col][i] = noTime
	}
}

func (d *Delta) timeOf(v graph.NodeID) Tick {
	if v >= 0 && int(v) < len(d.times) {
		return d.times[v]
	}
	if t, ok := d.extra[v]; ok {
		return t
	}
	return noTime
}

func (d *Delta) setTime(v graph.NodeID, t Tick) {
	if v >= 0 && int(v) < len(d.times) {
		d.times[v] = t
		return
	}
	if t == noTime {
		delete(d.extra, v)
		return
	}
	if d.extra == nil {
		d.extra = make(map[graph.NodeID]Tick)
	}
	d.extra[v] = t
}

// recomputeEnd is Schedule.End over the current times.
func (d *Delta) recomputeEnd() Tick {
	end := d.schedStart
	for _, t := range d.times {
		if t != noTime && t > end {
			end = t
		}
	}
	for _, t := range d.extra {
		if t > end {
			end = t
		}
	}
	return end
}

// evaluate computes the trial for a flip at column c (-1: none) that
// changes c's decisions in [lo, hi), with trial End newEnd. It follows
// Validate's window rule: the window ends at the latest arrival of the
// emissions in [start, newEnd], and every emission up to it is traced.
func (d *Delta) evaluate(c int32, lo, hi, newEnd Tick) {
	d.trying = true
	d.bad = false
	d.changes, d.shops, d.dkeys = d.changes[:0], d.shops[:0], d.dkeys[:0]
	d.dgen++
	if d.dgen == 0 {
		for i := range d.dload {
			d.dload[i].gen = 0
		}
		d.dgen = 1
	}
	var dec []Tick
	if c >= 0 {
		dec = d.dec[c]
	}
	traced := int64(0)
	w := len(d.nhop) // committed emissions: [start, start+w)
	affected := func(i int) bool {
		return dec != nil && dec[i] >= lo && dec[i] < hi
	}

	last := newEnd
	i := 0
	for ; i < w && d.start+Tick(i) <= newEnd; i++ {
		a := d.arrive[i]
		if affected(i) {
			a = d.retrace(i, c)
			traced++
		}
		if a > last {
			last = a
		}
	}
	for e := d.start + Tick(w); e <= newEnd; e++ {
		if a := d.traceFrom(int(e-d.start), 0, -1, e); a > last {
			last = a
		}
		traced++
	}
	for ; i < w && d.start+Tick(i) <= last; i++ {
		if affected(i) {
			d.retrace(i, c)
			traced++
		}
	}
	for e := max(d.start+Tick(w), newEnd+1); e <= last; e++ {
		d.traceFrom(int(e-d.start), 0, -1, e)
		traced++
	}
	// Emissions leaving the window take their loads with them.
	for ; i < w; i++ {
		for _, h := range d.hops[i*d.m : i*d.m+int(d.nhop[i])] {
			d.addLoad(h, -d.demand)
		}
	}

	ok := !d.bad
	for _, key := range d.dkeys {
		if dv := d.dload[key].val; dv > 0 {
			var base graph.Capacity
			if key < len(d.loads) {
				base = d.loads[key]
			}
			if base+dv > d.caps[key%len(d.caps)] {
				ok = false
				break
			}
		}
	}
	d.trialOK, d.trialEnd, d.trialLast = ok, newEnd, last
	if d.vm.runs != nil {
		d.vm.runs.Inc()
		d.vm.traces.Add(traced)
		d.vm.window.Observe(float64(last - d.start + 1))
	}
}

// retrace re-traces committed emission i from its decision at column c
// and returns the new arrival.
func (d *Delta) retrace(i int, c int32) Tick {
	row := d.hops[i*d.m : i*d.m+int(d.nhop[i])]
	k := 0
	for row[k].col != c {
		k++
	}
	d.newStamp()
	for _, h := range row[:k] {
		d.visit[h.col] = d.visitStamp
	}
	for _, h := range row[k:] {
		d.addLoad(h, -d.demand)
	}
	return d.traceFrom(i, k, c, row[k].depart)
}

// traceFrom traces emission i from hop k: at column c at tick t, or from
// the source at the emission tick when c < 0. The caller has stamped the
// columns visited before hop k. It records the new hops in the trial
// arena, adds their loads and returns the terminal tick.
func (d *Delta) traceFrom(i, k int, c int32, t Tick) Tick {
	if c < 0 {
		d.newStamp()
		c = d.src
	}
	d.visit[c] = d.visitStamp
	off := len(d.shops)
	ch := deltaChange{i: int32(i), k0: int32(k), off: int32(off)}
	for {
		if c == d.dest {
			break
		}
		r := d.old[c]
		if nr := d.new[c]; nr.to >= 0 && t >= d.times[d.node[c]] {
			r = nr
		}
		if r.to < 0 || r.link < 0 {
			d.bad = true // blackhole
			break
		}
		h := deltaHop{col: c, link: r.link, depart: t}
		d.shops = append(d.shops, h)
		d.addLoad(h, d.demand)
		t += r.delay
		c = r.to
		if d.visit[c] == d.visitStamp {
			d.bad = true // loop
			break
		}
		d.visit[c] = d.visitStamp
	}
	ch.n = int32(len(d.shops) - off)
	ch.arrive = t
	d.changes = append(d.changes, ch)
	return t
}

// newStamp opens a fresh visited set for one trace.
func (d *Delta) newStamp() {
	d.visitStamp++
	if d.visitStamp == 0 { // wrapped: clear stale stamps
		for i := range d.visit {
			d.visit[i] = 0
		}
		d.visitStamp = 1
	}
}

// addLoad accounts q units on hop h's link instance in the trial.
func (d *Delta) addLoad(h deltaHop, q graph.Capacity) {
	key := int(h.depart-d.start)*len(d.caps) + int(h.link)
	if key >= len(d.dload) {
		n := 2*len(d.dload) + 64
		for n <= key {
			n *= 2
		}
		d.dload = append(d.dload, make([]deltaLoad, n-len(d.dload))...)
	}
	c := &d.dload[key]
	if c.gen != d.dgen {
		*c = deltaLoad{val: q, gen: d.dgen}
		d.dkeys = append(d.dkeys, key)
		return
	}
	c.val += q
}
