package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"tdnstream/internal/ids"
)

// FuzzADNCloneRelease runs random AddEdge, Clone, CloneInto, Release and
// drop operations on a family of graphs that share one page pool, each
// graph in lockstep with a deep-copying refADN. After every operation
// every graph of the family must equal its reference, every page's
// reference count must equal the number of page tables holding it, and
// no pooled page may still sit in a page table. A page handed to the pool
// while some graph still references it would be cleared and rewritten
// under that graph, which is the bug this guards against.
//
// Each operation reads three bytes: a selector and two operands. Node ids
// span three pages, and half the sources fall on a handful of nodes, so
// some out-degrees pass dedupScanLimit.
func FuzzADNCloneRelease(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 0, 0, 0, 3, 70, 9, 1, 0, 0, 3, 1, 2})
	f.Add([]byte{3, 5, 6, 0, 0, 0, 0, 0, 0, 2, 1, 0, 5, 200, 7, 1, 1, 0, 4, 9, 130})
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 4; n++ {
		ops := make([]byte, 3*400)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		type pair struct {
			g   *ADN
			ref *refADN
		}
		pool := new(PagePool)
		family := []pair{{NewPooledADN(pool), newRefADN()}}
		// dropped graphs are no longer written or checked, but they still
		// hold their page references, as a clone nobody releases does.
		var dropped []*ADN
		for i := 0; i+2 < len(ops); i += 3 {
			sel, a, b := ops[i], int(ops[i+1]), int(ops[i+2])
			p := family[a%len(family)]
			switch sel % 8 {
			case 0:
				if len(family) < 8 {
					family = append(family, pair{p.g.Clone(), p.ref.clone()})
				}
			case 1:
				p.g.Release()
				*p.ref = *newRefADN()
			case 2:
				q := family[b%len(family)]
				if q.g != p.g {
					p.g.CloneInto(q.g)
					*q.ref = *p.ref.clone()
				}
			case 3:
				if len(family) > 1 {
					j := a % len(family)
					dropped = append(dropped, family[j].g)
					family = append(family[:j], family[j+1:]...)
				}
			default:
				u := ids.NodeID(a % 160)
				if a&1 == 0 {
					u = ids.NodeID(a % 5)
				}
				v := ids.NodeID(b % 160)
				if got, want := p.g.AddEdge(u, v), p.ref.addEdge(u, v); got != want {
					t.Fatalf("op %d: AddEdge(%d,%d) = %v, want %v", i/3, u, v, got, want)
				}
			}
			graphs := append([]*ADN(nil), dropped...)
			for _, q := range family {
				graphs = append(graphs, q.g)
			}
			checkPageRefs(t, i/3, pool, graphs)
			for j, q := range family {
				checkSameGraph(t, fmt.Sprintf("op %d graph %d", i/3, j), q.g, q.ref)
			}
		}
	})
}

// checkPageRefs asserts that each page's count equals the number of page
// tables among graphs that hold it and that no pooled page is held.
func checkPageRefs(t *testing.T, op int, pool *PagePool, graphs []*ADN) {
	t.Helper()
	held := make(map[*adjPage]int32)
	for _, g := range graphs {
		for _, a := range [2]*adjacency{&g.out, &g.in} {
			for _, p := range a.pages {
				if p != nil {
					held[p]++
				}
			}
		}
	}
	for p, n := range held {
		if p.refs != n {
			t.Fatalf("op %d: page counts %d references, %d page tables hold it", op, p.refs, n)
		}
	}
	for _, p := range pool.free {
		if held[p] != 0 {
			t.Fatalf("op %d: a pooled page is still held by %d page tables", op, held[p])
		}
	}
}

// TestPageBytesMatchesHeap checks pageBytes, the accountant's size of one
// adjacency page, against what the runtime allocates for one. The next
// size class is 256 bytes up, so a stray allocation elsewhere in the
// process cannot pass for a different class.
func TestPageBytesMatchesHeap(t *testing.T) {
	const n = 1024
	pages := make([]*adjPage, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range pages {
		pages[i] = new(adjPage)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(pages)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got < pageBytes || got >= pageBytes+256 {
		t.Fatalf("an adjPage (%d bytes) takes %d heap bytes, pageBytes says %d",
			unsafe.Sizeof(adjPage{}), got, pageBytes)
	}
}

// A page shared by two graphs is copied by the first writer only; once
// the other releases it, the writer's next write needs no copy, and the
// page the releaser dropped comes back from the pool.
func TestReleaseEndsSharing(t *testing.T) {
	pool := new(PagePool)
	g := NewPooledADN(pool)
	g.AddEdge(1, 2)
	c := g.Clone()
	p := g.out.pages[0]
	if p.refs != 2 {
		t.Fatalf("shared page counts %d references, want 2", p.refs)
	}
	c.Release()
	if p.refs != 1 || len(pool.free) != 0 {
		t.Fatalf("after release: refs %d, pooled %d; want 1 and 0", p.refs, len(pool.free))
	}
	g.AddEdge(1, 3)
	if g.out.pages[0] != p {
		t.Fatal("a page no other graph references was copied on write")
	}
	c2 := g.Clone()
	c2.AddEdge(1, 4) // copies both pages the edge touches
	if g.out.pages[0] != p || p.refs != 1 {
		t.Fatal("the clone's write did not leave the original its own page")
	}
	c2.Release()
	if len(pool.free) != 2 {
		t.Fatalf("%d pages pooled after releasing the clone's two copies, want 2", len(pool.free))
	}
	c3 := g.Clone()
	c3.AddEdge(5, 6)
	if len(pool.free) != 0 {
		t.Fatalf("%d pages left in the pool after two page copies, want 0", len(pool.free))
	}
}
