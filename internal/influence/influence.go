// Package influence implements the paper's influence-spread oracle:
//
//	f_t(S) = |{v : v reachable from S in G_t}|   (Definition 3)
//
// f_t is normalized, monotone and submodular (Theorem 1), which is what
// every algorithm in this module exploits. An "oracle call" — the paper's
// efficiency unit — is one evaluation of f_t; each exported evaluation
// method increments the shared metrics.Counter exactly once. Singletons
// is the exception that keeps the unit honest: it charges one call per
// BFS it actually runs, and a singleton spread it derives from the
// strongly connected component structure costs none.
//
// Four implementation ideas keep millions of evaluations affordable:
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
//     a map lookup and Clone is a single word-array copy. Every BFS
//     ranges over neighbor slices: graph.ADN exposes its slice-backed
//     adjacency (SliceGraph) directly, and any other Graph has each
//     node's neighbors copied into one reused buffer, so no evaluation
//     builds a closure.
//  4. Singleton spreads in bulk: Singletons condenses the affected
//     subgraph into its strongly connected components and derives most
//     f({v}) from the components they reach, instead of running one BFS
//     per node.
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
// slice-backed expose it directly, so the BFS inner loop ranges over the
// graph's own []NodeID instead of a copy filled by one callback per
// neighbor. Returned slices must stay valid and immutable for the
// duration of the traversal (graph.ADN satisfies this; its slices are
// append-only). Singletons requires one.
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
		if w < cap(r.words) {
			// Reused words past the length may hold stale bits.
			l := len(r.words)
			r.words = r.words[:w+1]
			clear(r.words[l:])
		} else {
			grown := make([]uint64, w+1, w+w/2+1)
			copy(grown, r.words)
			r.words = grown
		}
	}
	mask := uint64(1) << (n & 63)
	if r.words[w]&mask == 0 {
		r.words[w] |= mask
		r.count++
	}
}

// Clone deep-copies the set: one word-array copy, O(NodeCap/64).
func (r *ReachSet) Clone() *ReachSet {
	c := new(ReachSet)
	c.CopyFrom(r)
	return c
}

// CopyFrom makes r a copy of src, reusing r's word array when it is
// large enough.
func (r *ReachSet) CopyFrom(src *ReachSet) {
	if cap(r.words) < len(src.words) {
		r.words = make([]uint64, len(src.words))
	}
	r.words = r.words[:len(src.words)]
	copy(r.words, src.words)
	r.count = src.count
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
	g Graph
	// sg is g itself when g exposes slice-backed adjacency, else a
	// neighborCopy of it: every BFS ranges over neighbor slices.
	sg    SliceGraph
	calls *metrics.Counter
	*Scratch
}

// Scratch is the BFS working memory behind an Oracle: generation-stamped
// visited marks, the queue, the nodes a MarginalGain or Update newly
// reached, and Affected's result. Only that result outlives an
// evaluation, until the next Affected call, so oracles that never
// evaluate at the same time may share one Scratch: a tracker's sieve
// instances are fed one at a time and all use the tracker's. New gives
// each oracle its own.
type Scratch struct {
	visited  []uint32
	gen      uint32
	queue    []ids.NodeID
	delta    []ids.NodeID
	affected []ids.NodeID
}

// SizeBytes returns the heap bytes the scratch holds.
func (sc *Scratch) SizeBytes() int64 {
	return int64(cap(sc.visited))*4 + int64(cap(sc.queue)+cap(sc.delta)+cap(sc.affected))*4
}

// neighborCopy adapts a Graph without slice-backed adjacency to
// SliceGraph by copying one node's neighbor visits into a reused buffer,
// so the oracle builds no closure per call. A returned slice is valid only
// until the next OutSlice or InSlice call; each BFS loop ranges over one
// node's slice before it asks for the next.
type neighborCopy struct {
	Graph
	buf     []ids.NodeID
	collect func(v ids.NodeID)
}

func newNeighborCopy(g Graph) *neighborCopy {
	c := &neighborCopy{Graph: g}
	c.collect = func(v ids.NodeID) { c.buf = append(c.buf, v) }
	return c
}

func (c *neighborCopy) OutSlice(u ids.NodeID) []ids.NodeID {
	c.buf = c.buf[:0]
	c.OutNeighbors(u, c.collect)
	return c.buf
}

func (c *neighborCopy) InSlice(u ids.NodeID) []ids.NodeID {
	c.buf = c.buf[:0]
	c.InNeighbors(u, c.collect)
	return c.buf
}

// New returns an oracle over g counting calls into c (c may be nil, in
// which case a private counter is used).
func New(g Graph, c *metrics.Counter) *Oracle {
	return NewShared(g, c, new(Scratch))
}

// NewShared is New with the BFS scratch supplied, for oracles that share
// one (see Scratch).
func NewShared(g Graph, c *metrics.Counter, sc *Scratch) *Oracle {
	if c == nil {
		c = &metrics.Counter{}
	}
	o := &Oracle{calls: c, Scratch: sc}
	o.Retarget(g)
	return o
}

// Calls returns the shared oracle-call counter.
func (o *Oracle) Calls() *metrics.Counter { return o.calls }

// ScratchBytes returns the heap bytes held by the oracle's reusable BFS
// scratch (generation-stamped visited stamps plus the queue/delta/affected
// buffers). The graph itself is accounted separately by its owner.
func (o *Oracle) ScratchBytes() int64 {
	n := o.Scratch.SizeBytes()
	if c, ok := o.sg.(*neighborCopy); ok {
		n += int64(cap(c.buf)) * 4
	}
	return n
}

// Graph returns the underlying graph view.
func (o *Oracle) Graph() Graph { return o.g }

// Retarget points the oracle at a different graph (used after cloning an
// instance, whose oracle must traverse the cloned graph).
func (o *Oracle) Retarget(g Graph) {
	o.g = g
	if sg, ok := g.(SliceGraph); ok {
		o.sg = sg
	} else {
		o.sg = newNeighborCopy(g)
	}
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
	visited := o.visited
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, v := range o.sg.OutSlice(u) {
			if visited[v] != gen {
				visited[v] = gen
				count++
				q = append(q, v)
			}
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
	visited := o.visited
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, v := range o.sg.OutSlice(u) {
			if visited[v] != gen {
				visited[v] = gen
				dst.add(v)
				q = append(q, v)
			}
		}
	}
	o.queue = q[:0]
	return dst.Len()
}

// expand runs a BFS from the queued frontier, skipping nodes in rs, and
// returns the newly discovered nodes (including the frontier itself).
// Assumes frontier nodes are stamped with gen and not in rs.
func (o *Oracle) expand(q []ids.NodeID, gen uint32, rs *ReachSet) []ids.NodeID {
	delta := append(o.delta[:0], q...)
	visited := o.visited
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, w := range o.sg.OutSlice(u) {
			if visited[w] == gen || rs.Contains(w) {
				continue
			}
			visited[w] = gen
			delta = append(delta, w)
			q = append(q, w)
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
	visited := o.visited
	for _, e := range edges {
		if rs.Contains(e.Src) && !rs.Contains(e.Dst) && visited[e.Dst] != gen {
			visited[e.Dst] = gen
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
	visited := o.visited
	for len(q) > 0 {
		u := q[len(q)-1]
		q = q[:len(q)-1]
		for _, v := range o.sg.InSlice(u) {
			if visited[v] != gen {
				visited[v] = gen
				out = append(out, v)
				q = append(q, v)
			}
		}
	}
	o.queue = q[:0]
	o.affected = out
	return out
}

// SingletonScratch is the reusable working memory of Singletons, grown
// geometrically and kept between calls. It carries no state from one
// call to the next, so oracles that never run Singletons at the same time
// (the instances of one tracker, fed one at a time) may share one.
type SingletonScratch struct {
	pos            []int32 // NodeID → index into the affected slice
	num, low, comp []int32 // per affected node: Tarjan number, low link, SCC
	frames         []sccFrame
	stack          []int32
	members        []int32 // affected indices grouped by SCC, sinks last
	start          []int32 // SCC c holds members[start[c]:start[c+1]]
	cross          []int32 // per SCC: edges into other affected SCCs
	succ           []int32 // per SCC: the one SCC those edges enter, or none/many
	toHub          []bool  // per SCC: it reaches the hub
	out            []int   // per affected node: f({v})
	hub            ReachSet
}

// sccFrame is one level of the iterative Tarjan walk: an affected node
// and the in-neighbors it has yet to visit.
type sccFrame struct {
	u    int32
	rest []ids.NodeID
}

// SizeBytes returns the heap bytes the scratch holds.
func (sc *SingletonScratch) SizeBytes() int64 {
	n := cap(sc.pos) + cap(sc.num) + cap(sc.low) + cap(sc.comp) + cap(sc.stack) +
		cap(sc.members) + cap(sc.start) + cap(sc.cross) + cap(sc.succ)
	return int64(n)*4 + int64(cap(sc.frames))*32 + int64(cap(sc.toHub)) +
		int64(cap(sc.out))*8 + sc.hub.SizeBytes()
}

// fit returns s with length n, reallocating geometrically when its
// capacity is short; a reallocation does not keep the contents.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, n+n/2+8)
	}
	return s[:n]
}

// Successor markers for SingletonScratch.succ.
const (
	noSucc   = -1
	manySucc = -2
)

// Singletons returns f({v}) for every node v of affected, index for index,
// from one iterative Tarjan pass over the subgraph affected induces. The
// graph must be a SliceGraph, and affected must be closed under
// predecessors, as Affected's result is, so the pass walks in-edges and
// never leaves that subgraph. The result lives in sc and is valid until
// sc is used again.
//
// Nodes of one strongly connected component (SCC) share f. The pass
// handles each SCC C once, sinks first, so every SCC C reaches is done
// before C, by the first rule that fits. The hub H is the largest SCC
// (the first one emitted among equals); its rules are skipped when H is a
// single node. rep(C) is any member of C.
//
//   - C is H: fill R(H). One oracle call.
//   - No edge leaves C: f(C) = |C|.
//   - Every edge leaving C enters one SCC D: f(C) = |C| + f(D), since
//     R(C) is C plus R(D), disjoint.
//   - C reaches H: f(C) = |R(H)| + δ_{R(H)}(rep(C)), a BFS that stops at
//     R(H). One call.
//   - Otherwise: Spread(rep(C)). One call.
//
// A derived spread costs no call; every call is one BFS actually run.
func (o *Oracle) Singletons(affected []ids.NodeID, sc *SingletonScratch) []int {
	if _, ok := o.sg.(*neighborCopy); ok {
		panic("influence: Singletons needs a SliceGraph")
	}
	n := len(affected)
	need := o.g.NodeCap()
	for _, v := range affected {
		need = max(need, int(v)+1)
	}
	if len(sc.pos) < need {
		sc.pos = fit(sc.pos, need)
	}
	for i, v := range affected {
		sc.pos[v] = int32(i)
	}

	// Tarjan over in-edges. An SCC is emitted after every SCC that reaches
	// it, so the emission order puts sources first and sinks last.
	num, low, comp := fit(sc.num, n), fit(sc.low, n), fit(sc.comp, n)
	clear(num)
	for i := range comp {
		comp[i] = -1
	}
	frames, stack := sc.frames[:0], sc.stack[:0]
	members, start := sc.members[:0], sc.start[:0]
	next := int32(0)
	for r := range affected {
		if num[r] != 0 {
			continue
		}
		next++
		num[r], low[r] = next, next
		stack = append(stack, int32(r))
		frames = append(frames, sccFrame{u: int32(r), rest: o.sg.InSlice(affected[r])})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.u
			if len(f.rest) > 0 {
				v := f.rest[0]
				f.rest = f.rest[1:]
				w := sc.pos[v]
				if int(w) >= n || affected[w] != v {
					panic("influence: Singletons needs a predecessor-closed node set")
				}
				switch {
				case num[w] == 0:
					next++
					num[w], low[w] = next, next
					stack = append(stack, w)
					frames = append(frames, sccFrame{u: w, rest: o.sg.InSlice(v)})
				case comp[w] < 0: // on the stack: w shares u's SCC
					low[u] = min(low[u], num[w])
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].u
				low[p] = min(low[p], low[u])
			}
			if low[u] == num[u] {
				c := int32(len(start))
				start = append(start, int32(len(members)))
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = c
					members = append(members, w)
					if w == u {
						break
					}
				}
			}
		}
	}
	nc := len(start)
	start = append(start, int32(n))
	sc.frames, sc.stack, sc.members, sc.start = frames, stack, members, start

	hub := int32(-1)
	for c := int32(0); c < int32(nc); c++ {
		if size := start[c+1] - start[c]; size > 1 && (hub < 0 || size > start[hub+1]-start[hub]) {
			hub = c
		}
	}

	// Sinks first. Handling C pushes what its in-edges say about each
	// predecessor SCC, so C's own cross, succ and toHub are complete by
	// the time C comes up.
	cross, succ, toHub, out := fit(sc.cross, nc), fit(sc.succ, nc), fit(sc.toHub, nc), fit(sc.out, n)
	clear(cross)
	clear(toHub)
	for c := range succ {
		succ[c] = noSucc
	}
	for c := int32(nc) - 1; c >= 0; c-- {
		ms := members[start[c]:start[c+1]]
		toHub[c] = toHub[c] || c == hub
		// leave counts C's out-edges to nodes outside the affected set:
		// out-degree, less edges inside C, less edges into other SCCs.
		leave := -int(cross[c])
		for _, i := range ms {
			v := affected[i]
			leave += len(o.sg.OutSlice(v))
			for _, w := range o.sg.InSlice(v) {
				cw := comp[sc.pos[w]]
				if cw == c {
					leave--
					continue
				}
				cross[cw]++
				if succ[cw] == noSucc {
					succ[cw] = c
				} else if succ[cw] != c {
					succ[cw] = manySucc
				}
				toHub[cw] = toHub[cw] || toHub[c]
			}
		}
		rep := affected[ms[0]]
		var f int
		switch {
		case c == hub:
			f = o.FillReachSet(&sc.hub, rep)
		case leave == 0 && succ[c] == noSucc:
			f = len(ms)
		case leave == 0 && succ[c] >= 0:
			f = len(ms) + out[members[start[succ[c]]]]
		case toHub[c]:
			f = sc.hub.Len() + o.MarginalGain(&sc.hub, rep, false)
		default:
			f = o.Spread(rep)
		}
		for _, i := range ms {
			out[i] = f
		}
	}
	sc.cross, sc.succ, sc.toHub, sc.out = cross, succ, toHub, out
	sc.num, sc.low, sc.comp = num, low, comp
	return out
}
