package graph

import "sync/atomic"

// Memory accounting for the two graph representations. Sizes are walked
// bottom-up from the actual backing arrays (slice capacities, bitset
// words) so the totals track runtime.MemStats growth; map footprints are
// estimated from entry counts and the runtime's bucket layout, which is
// the best a portable accountant can do.

const (
	sliceHeaderBytes = 24 // ptr + len + cap
	nodeIDBytes      = 4  // ids.NodeID is uint32
	edgeBytes        = 24 // stream.Edge: two uint32 + int64 + int, aligned
)

// mapBytes estimates the heap footprint of a Go map with n entries whose
// key+value pair occupies kv bytes: 8-entry buckets each carrying eight
// tophash bytes and an overflow pointer, at roughly 6.5 live entries per
// bucket under the default load factor, plus the map header.
func mapBytes(n, kv int) int64 {
	if n == 0 {
		return 48
	}
	buckets := int64(n)*2/13 + 1
	return 48 + buckets*(16+8*int64(kv))
}

// pageBytes is the heap size of one adjacency page: its header and 64
// slice headers, rounded up to the runtime size class an adjPage takes.
const pageBytes = 1792

// walks numbers memory walks across every graph family in the process.
var walks atomic.Uint64

// Walk is one memory walk over a family of graphs: a page shared by
// several of them is counted by the first SizeBytes call of the walk that
// reaches it, so a HISTAPPROX instance family's shared pages are counted
// once, not once per instance. The walk's number is stamped into each
// page it counts, so SizeBytes writes to the graph: call it only where a
// write would be safe.
type Walk uint64

// NewWalk starts a walk. Pass it to every SizeBytes call of one family.
func NewWalk() Walk { return Walk(walks.Add(1)) }

// sizeBytes sums the page table plus every page this walk has not yet
// counted: the page itself and the capacity of each neighbor list.
func (a *adjacency) sizeBytes(w Walk) int64 {
	total := int64(cap(a.pages)) * 8
	for _, p := range a.pages {
		if p == nil || p.walk == uint64(w) {
			continue
		}
		p.walk = uint64(w)
		total += pageBytes
		for _, s := range p.lists {
			total += int64(cap(s)) * nodeIDBytes
		}
	}
	return total
}

// SizeBytes returns the heap bytes held by the graph's adjacency pages,
// presence bitset and dedup accelerator, counting pages w has already
// counted in another graph of the family as zero.
func (g *ADN) SizeBytes(w Walk) int64 {
	total := g.out.sizeBytes(w) + g.in.sizeBytes(w)
	total += int64(cap(g.present)) * 8
	total += mapBytes(len(g.dedup), nodeIDBytes+8)
	for _, d := range g.dedup {
		total += mapBytes(len(d), nodeIDBytes)
	}
	return total
}

// SizeBytes returns the heap bytes the pool holds: its idle pages and
// their list.
func (p *PagePool) SizeBytes() int64 {
	if p == nil {
		return 0
	}
	return int64(len(p.free))*pageBytes + int64(cap(p.free))*8
}

// NumExpirySlots reports the number of distinct expiry times currently
// holding live edges — the bucket count behind AdvanceTo.
func (g *TDN) NumExpirySlots() int { return len(g.buckets) }

// SizeBytes returns the estimated heap bytes held by the TDN: both
// adjacency maps with their per-node multiplicity maps, the node refcount
// map, and the expiry buckets with their edge payloads.
func (g *TDN) SizeBytes() int64 {
	total := mapBytes(len(g.out), nodeIDBytes+8) + mapBytes(len(g.in), nodeIDBytes+8)
	for _, m := range g.out {
		total += mapBytes(len(m), nodeIDBytes+8)
	}
	for _, m := range g.in {
		total += mapBytes(len(m), nodeIDBytes+8)
	}
	total += mapBytes(len(g.refs), nodeIDBytes+8)
	total += mapBytes(len(g.buckets), 8+sliceHeaderBytes)
	for _, bucket := range g.buckets {
		total += int64(cap(bucket)) * edgeBytes
	}
	return total
}
