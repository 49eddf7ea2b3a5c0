package core

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tdnstream/internal/stream"
	"tdnstream/internal/testutil"
)

// A snapshot lists its instances and their candidates in any order; the
// restored tracker sorts them into its deadline list and exponent window
// and answers as the original does. Candidates that do not form one
// window, and a deadline listed twice, are rejected as corrupt.
func TestHistApproxRestoreOrdersAndValidates(t *testing.T) {
	d := &tdnDriver{rng: rand.New(rand.NewSource(17)), naive: &testutil.NaiveTDN{}, n: 25, maxL: 12, rate: 4}
	orig := NewHistApprox(3, 0.2, 12, nil)
	for tt := int64(1); tt <= 60; tt++ {
		if err := orig.Step(tt, d.batch(tt)); err != nil {
			t.Fatal(err)
		}
	}
	snap := histSnap{K: orig.k, Eps: orig.eps, L: orig.L, T: orig.t, Begun: true}
	for _, dl := range orig.xs {
		snap.Deadlines = append(snap.Deadlines, dl)
		snap.Instances = append(snap.Instances, orig.insts[dl].snapshot())
	}
	if len(snap.Deadlines) < 2 {
		t.Fatalf("only %d instances; the stream should keep several", len(snap.Deadlines))
	}
	orig.store.ForEachLiveEdge(func(e stream.Edge) { snap.Store = append(snap.Store, e) })
	read := func(s histSnap) (*HistApprox, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s); err != nil {
			t.Fatal(err)
		}
		return ReadHistApproxSnapshot(&buf, nil)
	}

	shuffled := snap
	shuffled.Deadlines = slices.Clone(snap.Deadlines)
	shuffled.Instances = slices.Clone(snap.Instances)
	slices.Reverse(shuffled.Deadlines)
	slices.Reverse(shuffled.Instances)
	for i := range shuffled.Instances {
		shuffled.Instances[i].Cands = slices.Clone(shuffled.Instances[i].Cands)
		slices.Reverse(shuffled.Instances[i].Cands)
	}
	h, err := read(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(h.xs, orig.xs) {
		t.Fatalf("restored deadlines %v, want %v", h.xs, orig.xs)
	}
	for _, dl := range h.xs {
		got, want := h.insts[dl], orig.insts[dl]
		if got.Value() != want.Value() || got.lo != want.lo || len(got.cands) != len(want.cands) {
			t.Fatalf("deadline %d: value %d window %d+%d, want %d and %d+%d",
				dl, got.Value(), got.lo, len(got.cands), want.Value(), want.lo, len(want.cands))
		}
		for i, c := range got.cands {
			if c.exp != got.lo+i {
				t.Fatalf("deadline %d: candidate %d has exponent %d, window starts at %d", dl, i, c.exp, got.lo)
			}
		}
	}
	for tt := int64(61); tt <= 100; tt++ {
		batch := d.batch(tt)
		if err := orig.Step(tt, batch); err != nil {
			t.Fatal(err)
		}
		if err := h.Step(tt, batch); err != nil {
			t.Fatal(err)
		}
		if a, b := solutionKey(orig.Solution()), solutionKey(h.Solution()); a != b {
			t.Fatalf("t=%d: restored %s, original %s", tt, b, a)
		}
	}

	if len(snap.Instances[0].Cands) < 2 {
		t.Fatalf("the head instance has %d candidates; the stream should give it several", len(snap.Instances[0].Cands))
	}
	gap := snap
	gap.Instances = slices.Clone(snap.Instances)
	gap.Instances[0].Cands = slices.Clone(gap.Instances[0].Cands)
	gap.Instances[0].Cands[0].Exp -= 2
	if _, err := read(gap); err == nil || !strings.Contains(err.Error(), "not adjacent") {
		t.Fatalf("a candidate outside the window restored with error %v", err)
	}
	twice := snap
	twice.Deadlines = slices.Clone(snap.Deadlines)
	twice.Deadlines[1] = twice.Deadlines[0]
	if _, err := read(twice); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("a repeated deadline restored with error %v", err)
	}
}
