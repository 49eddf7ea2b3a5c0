// Package graph provides the two dynamic-graph representations the
// reproduction is built on:
//
//   - ADN: an addition-only dynamic interaction network (paper Example 3).
//     Each SIEVEADN instance owns one; edges only accumulate, which is the
//     property (f_t(S) never decreases) that the sieve's approximation
//     proof relies on. Adjacency is dense and paged — fixed-size blocks of
//     []NodeID neighbor lists indexed by NodeID (ids are dense via
//     ids.Dict) — and Clone is copy-on-write at page granularity, so
//     cloning costs O(nodes/pageSize) and divergence is paid lazily, one
//     small page copy per touched node block. Each page counts the graphs
//     that reference it, and a write copies a page only while another
//     live graph still references it. Release hands a graph's pages back:
//     a page no other graph references returns to the family's PagePool,
//     where the next page copy takes it from. A clone that is never
//     released stays correct; it only keeps its pages counted, so its
//     partner copies each of them on its next write there.
//   - TDN: the general time-decaying dynamic interaction network
//     (paper §II-B) with per-edge lifetimes and smooth expiry, used as the
//     global graph view by the baselines (Greedy, Random, RIS family) and
//     as the backlog store HISTAPPROX feeds new instances from.
//
// Both store directed multigraphs without self-loops; for reachability
// queries parallel edges collapse, so ADN dedups pairs while TDN keeps
// multiplicity counts (needed both for expiry and for the IC edge
// probabilities p_uv = 2/(1+e^{-0.2x})-1).
package graph

import (
	"math/bits"

	"tdnstream/internal/ids"
)

// dedupScanLimit is the out-degree above which AddEdge stops linear-
// scanning out[u] for duplicates and builds a per-node hash set instead.
// The build is O(deg) but happens at most once per node per ADN lifetime
// (clones drop the cache and rebuild lazily, which costs the same order
// as their first copy-on-write divergence on that node anyway).
const dedupScanLimit = 32

const (
	pageBits = 6 // 64 neighbor lists per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// adjPage is one fixed-size block of per-node neighbor lists with the
// header that lets clones share it: refs counts the page tables holding
// the page, and walk is the last memory walk that counted it (see Walk).
type adjPage struct {
	refs  int32
	walk  uint64
	lists [pageSize][]ids.NodeID
}

// PagePool keeps the adjacency pages released by one family of graphs —
// an ADN, its clones and theirs — for the family's next page copies.
// Like the graphs it serves it is not safe for concurrent use: one
// goroutine at a time writes, clones or releases the family (a tracker
// and its sieve instances). A nil pool recycles nothing.
type PagePool struct {
	free []*adjPage
}

// get returns an empty page referenced once.
func (p *PagePool) get() *adjPage {
	if p != nil {
		if n := len(p.free); n > 0 {
			pg := p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
			pg.refs = 1
			return pg
		}
	}
	return &adjPage{refs: 1}
}

// put takes a page no graph references any more. Its neighbor lists are
// dropped, not kept: their backing arrays may still be shared with pages
// copied from this one (see adjacency.writable).
func (p *PagePool) put(pg *adjPage) {
	if p == nil {
		return
	}
	clear(pg.lists[:])
	p.free = append(p.free, pg)
}

// adjacency is a paged dense map NodeID → []NodeID with copy-on-write
// sharing. A page whose refs exceed one is immutable; writable() copies
// it — capacity-clamping every neighbor slice header in the copy so later
// appends reallocate privately instead of colliding in a shared backing
// array — before the first mutation.
type adjacency struct {
	pages []*adjPage
}

// slice returns n's neighbor list (nil if none).
func (a *adjacency) slice(n ids.NodeID) []ids.NodeID {
	pi := int(n) >> pageBits
	if pi >= len(a.pages) {
		return nil
	}
	p := a.pages[pi]
	if p == nil {
		return nil
	}
	return p.lists[int(n)&pageMask]
}

// writable returns a pointer to n's slot inside a page this adjacency
// alone references, growing the page table and copying a shared page as
// needed. New pages and copies come from pool.
func (a *adjacency) writable(n ids.NodeID, pool *PagePool) *[]ids.NodeID {
	pi := int(n) >> pageBits
	if pi >= len(a.pages) {
		grown := make([]*adjPage, pi+pi/2+2)
		copy(grown, a.pages)
		a.pages = grown
	}
	p := a.pages[pi]
	switch {
	case p == nil:
		p = pool.get()
		a.pages[pi] = p
	case p.refs > 1:
		cp := pool.get()
		for i, s := range p.lists {
			cp.lists[i] = s[:len(s):len(s)]
		}
		p.refs--
		p = cp
		a.pages[pi] = p
	}
	return &p.lists[int(n)&pageMask]
}

// shareFrom points a at src's pages, counting the new references, and
// reuses a's page table: after it both sides copy a page before mutating
// it, so neither can publish writes into the other's view.
func (a *adjacency) shareFrom(src *adjacency) {
	for _, p := range src.pages {
		if p != nil {
			p.refs++
		}
	}
	a.pages = append(a.pages[:0], src.pages...)
}

// release drops a's references, handing every page no other adjacency
// holds to pool. The page table keeps its length and capacity.
func (a *adjacency) release(pool *PagePool) {
	for i, p := range a.pages {
		if p == nil {
			continue
		}
		a.pages[i] = nil
		if p.refs--; p.refs == 0 {
			pool.put(p)
		}
	}
}

// ADN is an append-only directed graph. The zero value is ready to use;
// NewADN exists for symmetry with NewTDN.
type ADN struct {
	out adjacency
	in  adjacency
	// pool supplies and takes back the pages of this graph's clone family.
	pool *PagePool
	// present is a bitset of node ids touched by any edge.
	present  []uint64
	numNodes int
	numPairs int
	// dedup holds lazily built out-neighbor hash sets for high-degree
	// nodes. It is private to one ADN — never handed to a Clone — and
	// purely an accelerator: the out slices stay the source of truth.
	dedup map[ids.NodeID]map[ids.NodeID]struct{}
	// nodeCap is an exclusive upper bound on node ids seen, used by the
	// influence oracle to size its generation-stamped scratch slices.
	nodeCap int
	// interactions counts every fed edge including duplicates of the same
	// directed pair (multi-edges in the paper's model).
	interactions int
}

// NewADN returns an empty addition-only graph. Its pages come from the
// heap and are never recycled.
func NewADN() *ADN { return &ADN{} }

// NewPooledADN returns an empty addition-only graph whose clone family
// takes its pages from pool and gives released pages back to it.
func NewPooledADN(pool *PagePool) *ADN { return &ADN{pool: pool} }

// AddEdge inserts the directed edge u→v, reporting whether the pair was
// new (parallel edges are recorded in the interaction count only).
// Self-loops are ignored, matching the TDN model's no-self-influence rule.
func (g *ADN) AddEdge(u, v ids.NodeID) bool {
	if u == v {
		return false
	}
	g.interactions++
	g.touch(u)
	g.touch(v)
	if g.hasOut(u, v) {
		return false
	}
	outU := g.out.writable(u, g.pool)
	*outU = append(*outU, v)
	inV := g.in.writable(v, g.pool)
	*inV = append(*inV, u)
	if d := g.dedup[u]; d != nil {
		d[v] = struct{}{}
	}
	g.numPairs++
	return true
}

// containsOut reports whether v is an out-neighbor of u without mutating
// the graph: the per-node hash set when one exists, a linear scan
// otherwise. Safe for concurrent readers.
func (g *ADN) containsOut(u, v ids.NodeID) bool {
	if d := g.dedup[u]; d != nil {
		_, dup := d[v]
		return dup
	}
	for _, w := range g.out.slice(u) {
		if w == v {
			return true
		}
	}
	return false
}

// hasOut is the AddEdge-path variant of containsOut: once u's out-degree
// crosses dedupScanLimit it builds the per-node hash set so subsequent
// insertions probe in O(1). Mutates g.dedup — writers only.
func (g *ADN) hasOut(u, v ids.NodeID) bool {
	if d := g.dedup[u]; d != nil {
		_, dup := d[v]
		return dup
	}
	ns := g.out.slice(u)
	if len(ns) <= dedupScanLimit {
		for _, w := range ns {
			if w == v {
				return true
			}
		}
		return false
	}
	d := make(map[ids.NodeID]struct{}, 2*len(ns))
	for _, w := range ns {
		d[w] = struct{}{}
	}
	if g.dedup == nil {
		g.dedup = make(map[ids.NodeID]map[ids.NodeID]struct{})
	}
	g.dedup[u] = d
	_, dup := d[v]
	return dup
}

// touch records node n in the presence bitset and the id bound.
func (g *ADN) touch(n ids.NodeID) {
	i := int(n)
	if i >= g.nodeCap {
		g.nodeCap = i + 1
	}
	w := i >> 6
	if w >= len(g.present) {
		grown := make([]uint64, w+w/2+1)
		copy(grown, g.present)
		g.present = grown
	}
	if mask := uint64(1) << (n & 63); g.present[w]&mask == 0 {
		g.present[w] |= mask
		g.numNodes++
	}
}

// OutNeighbors visits the distinct out-neighbors of u.
func (g *ADN) OutNeighbors(u ids.NodeID, visit func(v ids.NodeID)) {
	for _, v := range g.out.slice(u) {
		visit(v)
	}
}

// InNeighbors visits the distinct in-neighbors of u.
func (g *ADN) InNeighbors(u ids.NodeID, visit func(v ids.NodeID)) {
	for _, v := range g.in.slice(u) {
		visit(v)
	}
}

// OutSlice returns the distinct out-neighbors of u (influence.SliceGraph
// fast path). The slice is append-only; callers must not mutate it.
func (g *ADN) OutSlice(u ids.NodeID) []ids.NodeID { return g.out.slice(u) }

// InSlice returns the distinct in-neighbors of u (influence.SliceGraph
// fast path). The slice is append-only; callers must not mutate it.
func (g *ADN) InSlice(u ids.NodeID) []ids.NodeID { return g.in.slice(u) }

// NodeCap returns an exclusive upper bound on node ids present.
func (g *ADN) NodeCap() int { return g.nodeCap }

// NumNodes reports the number of distinct nodes touched by any edge.
func (g *ADN) NumNodes() int { return g.numNodes }

// NumEdges reports the number of distinct directed pairs.
func (g *ADN) NumEdges() int { return g.numPairs }

// NumInteractions reports all fed edges including parallel duplicates.
func (g *ADN) NumInteractions() int { return g.interactions }

// RestoreInteractions overrides the interaction count after a snapshot
// restore, which replays only distinct pairs and would otherwise lose the
// multi-edge total. It never lowers the count below what replay recorded.
func (g *ADN) RestoreInteractions(total int) {
	if total > g.interactions {
		g.interactions = total
	}
}

// HasEdge reports whether the directed pair u→v is present. It never
// mutates the graph, so concurrent readers are safe.
func (g *ADN) HasEdge(u, v ids.NodeID) bool {
	if u == v {
		return false
	}
	return g.containsOut(u, v)
}

// Nodes visits every node present in the graph, in ascending id order.
func (g *ADN) Nodes(visit func(n ids.NodeID)) {
	for w, word := range g.present {
		base := ids.NodeID(w) << 6
		for word != 0 {
			visit(base + ids.NodeID(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// Pairs visits every distinct directed pair, grouped by source in
// ascending id order (insertion order within one source).
func (g *ADN) Pairs(visit func(u, v ids.NodeID)) {
	for pi, p := range g.out.pages {
		if p == nil {
			continue
		}
		base := ids.NodeID(pi) << pageBits
		for off, vs := range p.lists {
			for _, v := range vs {
				visit(base+ids.NodeID(off), v)
			}
		}
	}
}

// Clone returns a copy-on-write copy of the graph in O(nodes/pageSize);
// HISTAPPROX uses this when a new instance is created from its successor
// (paper Fig. 6c, Alg. 3 lines 9-16). Original and clone share adjacency
// pages; whichever side first mutates a shared page copies it (see
// adjacency.writable), so divergence cost is proportional to the node
// blocks actually touched afterwards, never to total edges.
func (g *ADN) Clone() *ADN {
	c := new(ADN)
	g.CloneInto(c)
	return c
}

// CloneInto makes dst what Clone would return, reusing dst's page tables
// and bitset. dst's own pages are released first, and dst joins g's
// pool.
func (g *ADN) CloneInto(dst *ADN) {
	if dst == g {
		panic("graph: CloneInto onto itself")
	}
	dst.Release()
	dst.pool = g.pool
	dst.out.shareFrom(&g.out)
	dst.in.shareFrom(&g.in)
	dst.present = append(dst.present[:0], g.present...)
	dst.numNodes = g.numNodes
	dst.numPairs = g.numPairs
	dst.nodeCap = g.nodeCap
	dst.interactions = g.interactions
}

// Release empties the graph and drops its page references: every page
// no other graph of the family still references goes back to the pool.
// The graph stays usable, as an empty graph that keeps its page tables
// and bitset for a later CloneInto. Releasing a graph is optional; one
// that is dropped instead only leaves its pages counted, so the graphs
// sharing them copy each on their next write there.
func (g *ADN) Release() {
	g.out.release(g.pool)
	g.in.release(g.pool)
	clear(g.present)
	g.numNodes, g.numPairs, g.nodeCap, g.interactions = 0, 0, 0, 0
	clear(g.dedup)
}
