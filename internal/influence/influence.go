// Package influence implements the paper's influence-spread oracle:
//
//	f_t(S) = |{v : v reachable from S in G_t}|   (Definition 3)
//
// f_t is normalized, monotone and submodular (Theorem 1), which is what
// every algorithm in this module exploits. An "oracle call" — the paper's
// efficiency unit — is one evaluation of f_t; each exported evaluation
// method increments the shared metrics.Counter exactly once.
//
// Three implementation ideas keep millions of evaluations affordable:
//
//  1. Generation-stamped visited slices indexed by dense NodeID, so a BFS
//     allocates nothing in steady state.
//  2. Reach-set closure: R(S) is closed under reachability, so the
//     marginal gain f(S∪{v})−f(S) equals the size of a BFS from v that
//     never expands nodes already in R(S) — exact, and proportional to
//     the *new* region only. Sieve candidates cache R(S) and keep it
//     current incrementally as edges arrive.
//  3. Dense containers: ReachSet is a growable bitset ([]uint64 + count),
//     so the per-visited-edge membership probe is a shift+mask instead of
//     a map lookup and Clone is a single word-array copy; graphs that
//     expose slice-backed adjacency (SliceGraph, e.g. graph.ADN) are
//     traversed by ranging over the neighbor slice directly, with no
//     per-node callback.
package influence

import (
	"math/bits"

	"tdnstream/internal/ids"
	"tdnstream/internal/metrics"
)

// Graph is the adjacency view the oracle traverses. Both graph.ADN and
// graph.TDN implement it.
type Graph interface {
	// OutNeighbors visits the distinct out-neighbors of u.
	OutNeighbors(u ids.NodeID, visit func(v ids.NodeID))
	// InNeighbors visits the distinct in-neighbors of u.
	InNeighbors(u ids.NodeID, visit func(v ids.NodeID))
	// NodeCap returns an exclusive upper bound on node ids present.
	NodeCap() int
}

// SliceGraph is an optional fast path: graphs whose adjacency is
// slice-backed expose it directly so the BFS inner loop ranges over a
// []NodeID instead of paying an interface call plus closure per node.
// Returned slices must stay valid and immutable for the duration of the
// traversal (graph.ADN satisfies this; its slices are append-only).
type SliceGraph interface {
	Graph
	// OutSlice returns the distinct out-neighbors of u (nil if none).
	OutSlice(u ids.NodeID) []ids.NodeID
	// InSlice returns the distinct in-neighbors of u (nil if none).
	InSlice(u ids.NodeID) []ids.NodeID
}

// ReachSet is a materialized R(S): the set of nodes reachable from a seed
// set, including the seeds. It is closed under reachability by
// construction, which is the invariant MarginalGain depends on.
//
// Representation: a growable bitset indexed by dense NodeID plus a member
// count, so Contains is a shift+mask, Clone is one []uint64 copy, and
// Reset keeps the capacity for reuse.
type ReachSet struct {
	words []uint64
	count int
}

// NewReachSet returns an empty reach set.
func NewReachSet() *ReachSet { return &ReachSet{} }

// Contains reports membership.
func (r *ReachSet) Contains(n ids.NodeID) bool {
	w := int(n >> 6)
	return w < len(r.words) && r.words[w]&(1<<(n&63)) != 0
}

// Len returns |R(S)| = f(S).
func (r *ReachSet) Len() int { return r.count }

// add inserts a node (package-private: only the oracle may grow a reach
// set, preserving closure).
func (r *ReachSet) add(n ids.NodeID) {
	w := int(n >> 6)
	if w >= len(r.words) {
		grown := make([]uint64, w+w/2+1)
		copy(grown, r.words)
		r.words = grown
	}
	mask := uint64(1) << (n & 63)
	if r.words[w]&mask == 0 {
		r.words[w] |= mask
		r.count++
	}
}

// Clone deep-copies the set: one word-array copy, O(NodeCap/64).
func (r *ReachSet) Clone() *ReachSet {
	return &ReachSet{words: append([]uint64(nil), r.words...), count: r.count}
}

// Reset empties the set in place, keeping its capacity.
func (r *ReachSet) Reset() {
	clear(r.words)
	r.count = 0
}

// SizeBytes returns the heap bytes held by the bitset's backing array —
// the unit the engine-introspection memory accountant sums bottom-up.
func (r *ReachSet) SizeBytes() int64 { return int64(cap(r.words)) * 8 }

// ForEach visits every member in ascending NodeID order.
func (r *ReachSet) ForEach(visit func(n ids.NodeID)) {
	for w, word := range r.words {
		base := ids.NodeID(w) << 6
		for word != 0 {
			visit(base + ids.NodeID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Endpoints is a bare directed pair, the edge shape Update consumes.
type Endpoints struct {
	Src, Dst ids.NodeID
}

// Oracle evaluates f_t over one Graph. It is not safe for concurrent use;
// shard.Engine's partitions, stepped in concurrent goroutines, each own
// their Oracles and share one counter (Counter is atomic).
type Oracle struct {
	g       Graph
	sg      SliceGraph // non-nil when g exposes slice-backed adjacency
	calls   *metrics.Counter
	visited []uint32
	gen     uint32
	queue   []ids.NodeID
	delta   []ids.NodeID
	// affected is the reusable output buffer of Affected.
	affected []ids.NodeID
}

// New returns an oracle over g counting calls into c (c may be nil, in
// which case a private counter is used).
func New(g Graph, c *metrics.Counter) *Oracle {
	if c == nil {
		c = &metrics.Counter{}
	}
	o := &Oracle{g: g, calls: c}
	o.sg, _ = g.(SliceGraph)
	return o
}

// Calls returns the shared oracle-call counter.
func (o *Oracle) Calls() *metrics.Counter { return o.calls }

// ScratchBytes returns the heap bytes held by the oracle's reusable BFS
// scratch (generation-stamped visited stamps plus the queue/delta/affected
// buffers). The graph itself is accounted separately by its owner.
func (o *Oracle) ScratchBytes() int64 {
	return int64(cap(o.visited))*4 +
		int64(cap(o.queue)+cap(o.delta)+cap(o.affected))*4
}

// Graph returns the underlying graph view.
func (o *Oracle) Graph() Graph { return o.g }

// Retarget points the oracle at a different graph (used after cloning an
// instance, whose oracle must traverse the cloned graph).
func (o *Oracle) Retarget(g Graph) {
	o.g = g
	o.sg, _ = g.(SliceGraph)
}

func (o *Oracle) nextGen() uint32 {
	if o.gen == ^uint32(0) {
		for i := range o.visited {
			o.visited[i] = 0
		}
		o.gen = 0
	}
	o.gen++
	o.grow(o.g.NodeCap())
	return o.gen
}

// grow widens the visited scratch to cover node ids < n. Queries may name
// seeds the graph has never seen (f of an absent node is just 1), so entry
// points also grow for their explicit seeds.
func (o *Oracle) grow(n int) {
	if n > len(o.visited) {
		grown := make([]uint32, n+n/2+8)
		copy(grown, o.visited)
		o.visited = grown
	}
}

// Spread evaluates f_t(seeds) with a forward BFS. One oracle call.
func (o *Oracle) Spread(seeds ...ids.NodeID) int {
	o.calls.Inc()
	gen := o.nextGen()
	q := o.queue[:0]
	count := 0
	for _, s := range seeds {
		o.grow(int(s) + 1)
		if o.visited[s] != gen {
			o.visited[s] = gen
			count++
			q = append(q, s)
		}
	}
	if o.sg != nil {
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, v := range o.sg.OutSlice(u) {
				if o.visited[v] != gen {
					o.visited[v] = gen
					count++
					q = append(q, v)
				}
			}
		}
	} else {
		visit := func(v ids.NodeID) {
			if o.visited[v] != gen {
				o.visited[v] = gen
				count++
				q = append(q, v)
			}
		}
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			o.g.OutNeighbors(u, visit)
		}
	}
	o.queue = q[:0]
	return count
}

// FillReachSet evaluates f_t(seeds), materializing R(seeds) into dst
// (which is reset first). One oracle call. Returns |R(seeds)|.
func (o *Oracle) FillReachSet(dst *ReachSet, seeds ...ids.NodeID) int {
	o.calls.Inc()
	dst.Reset()
	gen := o.nextGen()
	q := o.queue[:0]
	for _, s := range seeds {
		o.grow(int(s) + 1)
		if o.visited[s] != gen {
			o.visited[s] = gen
			dst.add(s)
			q = append(q, s)
		}
	}
	if o.sg != nil {
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, v := range o.sg.OutSlice(u) {
				if o.visited[v] != gen {
					o.visited[v] = gen
					dst.add(v)
					q = append(q, v)
				}
			}
		}
	} else {
		visit := func(v ids.NodeID) {
			if o.visited[v] != gen {
				o.visited[v] = gen
				dst.add(v)
				q = append(q, v)
			}
		}
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			o.g.OutNeighbors(u, visit)
		}
	}
	o.queue = q[:0]
	return dst.Len()
}

// expand runs a BFS from the queued frontier, skipping nodes in rs, and
// returns the newly discovered nodes (including the frontier itself).
// Assumes frontier nodes are stamped with gen and not in rs.
func (o *Oracle) expand(q []ids.NodeID, gen uint32, rs *ReachSet) []ids.NodeID {
	delta := o.delta[:0]
	delta = append(delta, q...)
	if o.sg != nil {
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, w := range o.sg.OutSlice(u) {
				if o.visited[w] == gen || rs.Contains(w) {
					continue
				}
				o.visited[w] = gen
				delta = append(delta, w)
				q = append(q, w)
			}
		}
	} else {
		visit := func(w ids.NodeID) {
			if o.visited[w] == gen || rs.Contains(w) {
				return
			}
			o.visited[w] = gen
			delta = append(delta, w)
			q = append(q, w)
		}
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			o.g.OutNeighbors(u, visit)
		}
	}
	o.queue = q[:0]
	o.delta = delta
	return delta
}

// MarginalGain evaluates f(S∪{v}) − f(S) given the materialized, current
// R(S). Because R(S) is closed under reachability, the BFS from v never
// needs to expand a node already in rs. One oracle call.
//
// When merge is true the newly reached nodes are added to rs, turning it
// into R(S∪{v}) — callers use this when the sieve accepts v.
func (o *Oracle) MarginalGain(rs *ReachSet, v ids.NodeID, merge bool) int {
	o.calls.Inc()
	if rs.Contains(v) {
		return 0
	}
	gen := o.nextGen()
	o.grow(int(v) + 1)
	q := append(o.queue[:0], v)
	o.visited[v] = gen
	delta := o.expand(q, gen, rs)
	if merge {
		for _, n := range delta {
			rs.add(n)
		}
	}
	return len(delta)
}

// Update re-evaluates R(S) in place after new edges were added to the
// graph: for each edge (u,w) whose source u is already in R(S),
// everything reachable from w joins R(S). Counted as one oracle call if a
// re-evaluation was needed, zero otherwise — matching the paper's
// "number of evaluations of f_t". Returns true if the set grew.
func (o *Oracle) Update(rs *ReachSet, edges []Endpoints) bool {
	gen := o.nextGen()
	q := o.queue[:0]
	for _, e := range edges {
		if rs.Contains(e.Src) && !rs.Contains(e.Dst) && o.visited[e.Dst] != gen {
			o.visited[e.Dst] = gen
			q = append(q, e.Dst)
		}
	}
	if len(q) == 0 {
		o.queue = q
		return false
	}
	o.calls.Inc()
	delta := o.expand(q, gen, rs)
	for _, n := range delta {
		rs.add(n)
	}
	return len(delta) > 0
}

// Affected returns every node whose influence spread may have changed
// after edges with the given source endpoints were inserted: all nodes
// that can reach any source (the paper's V̄_t, Alg. 1 line 3). Computed
// with one multi-source reverse BFS; it is graph bookkeeping, not an f_t
// evaluation, so it does not count as an oracle call.
//
// The returned slice is scratch owned by the oracle: it is valid until
// the next Affected call and must not be retained or mutated.
func (o *Oracle) Affected(sources []ids.NodeID) []ids.NodeID {
	gen := o.nextGen()
	q := o.queue[:0]
	out := o.affected[:0]
	for _, s := range sources {
		o.grow(int(s) + 1)
		if o.visited[s] != gen {
			o.visited[s] = gen
			out = append(out, s)
			q = append(q, s)
		}
	}
	if o.sg != nil {
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			for _, v := range o.sg.InSlice(u) {
				if o.visited[v] != gen {
					o.visited[v] = gen
					out = append(out, v)
					q = append(q, v)
				}
			}
		}
	} else {
		visit := func(v ids.NodeID) {
			if o.visited[v] != gen {
				o.visited[v] = gen
				out = append(out, v)
				q = append(q, v)
			}
		}
		for len(q) > 0 {
			u := q[len(q)-1]
			q = q[:len(q)-1]
			o.g.InNeighbors(u, visit)
		}
	}
	o.queue = q[:0]
	o.affected = out
	return out
}
