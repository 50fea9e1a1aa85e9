package graph

// Fingerprint is a canonical hash of a graph's structure: node count plus
// every link's endpoints, capacity and delay, folded in adjacency order.
// Two graphs with the same fingerprint have (up to a hash collision) the
// same topology, capacities and delays — what the validator's memoized
// tracer depends on. Node names are deliberately excluded: renaming
// switches changes no scheduling decision.
//
// The fold is FNV-1a over a fixed traversal (per node, per out-link), so
// the value is stable across processes and runs and any capacity or delay
// edit — including SetCapacity/SetDelay in place — changes it.
func (g *Graph) Fingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211 // FNV prime
	}
	mix(int64(g.NumNodes()))
	for i := 0; i < g.NumNodes(); i++ {
		for _, l := range g.Out(NodeID(i)) {
			mix(int64(l.From))
			mix(int64(l.To))
			mix(int64(l.Cap))
			mix(int64(l.Delay))
		}
	}
	return h
}

// PathFingerprint folds a node sequence into a canonical hash, seeded so
// that an empty path hashes differently from an absent one. It extends a
// graph fingerprint into a full instance key (topology + migration pair).
func PathFingerprint(p Path) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	mix(int64(len(p)))
	for _, v := range p {
		mix(int64(v))
	}
	return h
}
