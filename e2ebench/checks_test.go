package main

import (
	"strings"
	"testing"

	"repro/internal/cds"
	"repro/internal/graph"
	"repro/internal/stp"
)

// cycle returns the edge list of the n-cycle (κ = λ = 2).
func cycle(n int) [][2]int {
	edges := make([][2]int, n)
	for v := range edges {
		edges[v] = [2]int{v, (v + 1) % n}
	}
	return edges
}

// pathTree returns the tree whose vertices are path[0..] linked in
// order and rooted at path[0], over a host with n vertices.
func pathTree(n int, w float64, path ...int) wtree {
	p := make([]int, n)
	for v := range p {
		p[v] = -1
	}
	p[path[0]] = path[0]
	for i := 1; i < len(path); i++ {
		p[path[i]] = path[i-1]
	}
	return wtree{parent: p, weight: w}
}

func edgeList(g *graph.Graph) [][2]int {
	out := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		out = append(out, [2]int{int(e.U), int(e.V)})
	}
	return out
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("checker accepted the output, want an error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}

func TestPackerOutputsPass(t *testing.T) {
	g := graph.Hypercube(5)
	h := newHost(g.N(), edgeList(g))
	dp, err := cds.Pack(g, cds.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var dom []wtree
	for _, tr := range dp.Trees {
		dom = append(dom, fromTree(tr.Tree, g.N(), tr.Weight))
	}
	if _, err := checkDominating(h, dom, 5); err != nil {
		t.Fatalf("dominating packing of Q5 rejected: %v", err)
	}
	sp, err := stp.Pack(g, stp.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var span []wtree
	for _, tr := range sp.Trees {
		span = append(span, fromTree(tr.Tree, g.N(), tr.Weight))
	}
	if _, err := checkSpanning(h, span, 5, 0.1); err != nil {
		t.Fatalf("spanning packing of Q5 rejected: %v", err)
	}
}

func TestRejectsNonDominatingTree(t *testing.T) {
	h := newHost(6, cycle(6))
	// {0,1} dominates 5, 0, 1, 2 but not 3 or 4.
	_, err := checkDominating(h, []wtree{pathTree(6, 1, 0, 1)}, 2)
	wantErr(t, err, "undominated")
}

func TestRejectsVertexLoadPastOne(t *testing.T) {
	h := newHost(6, cycle(6))
	a := pathTree(6, 0.6, 0, 1, 2, 3)
	b := pathTree(6, 0.6, 3, 4, 5, 0)
	_, err := checkDominating(h, []wtree{a, b}, 2)
	wantErr(t, err, "load")
}

func TestRejectsEdgeLoadPastOne(t *testing.T) {
	h := newHost(4, cycle(4))
	// Both spanning paths use edge {1,2}.
	a := pathTree(4, 0.6, 0, 1, 2, 3)
	b := pathTree(4, 0.6, 1, 2, 3, 0)
	_, err := checkSpanning(h, []wtree{a, b}, 2, 0.1)
	wantErr(t, err, "edge")
}

func TestRejectsSizeUnderFloor(t *testing.T) {
	k5 := graph.Complete(5)
	h := newHost(5, edgeList(k5))
	// λ(K5) = 4 gives the floor ⌊3/2⌋·(1-0.6) = 0.4.
	_, err := checkSpanning(h, []wtree{pathTree(5, 0.3, 0, 1, 2, 3, 4)}, 4, 0.1)
	wantErr(t, err, "below floor")

	q3 := graph.Hypercube(3)
	hq := newHost(8, edgeList(q3))
	// κ(Q3) = 3 gives the floor 3/(8·log2 10) ≈ 0.113; a spanning tree
	// dominates, so only the size is wrong.
	var span wtree
	for _, tr := range mustSpanning(t, q3) {
		span = tr
		break
	}
	span.weight = 0.1
	_, err = checkDominating(hq, []wtree{span}, 3)
	wantErr(t, err, "below floor")
}

func mustSpanning(t *testing.T, g *graph.Graph) []wtree {
	t.Helper()
	sp, err := stp.Pack(g, stp.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var out []wtree
	for _, tr := range sp.Trees {
		out = append(out, fromTree(tr.Tree, g.N(), tr.Weight))
	}
	return out
}

func TestRejectsBrokenTrees(t *testing.T) {
	h := newHost(4, cycle(4))
	notEdge := pathTree(4, 1, 0, 2, 1, 3) // {0,2} is a chord C4 lacks
	_, err := checkSpanning(h, []wtree{notEdge}, 2, 0.1)
	wantErr(t, err, "not a graph edge")

	loop := pathTree(4, 1, 0, 1, 2, 3)
	loop.parent[1] = 2 // 1 -> 2 -> 1
	_, err = checkSpanning(h, []wtree{loop}, 2, 0.1)
	wantErr(t, err, "cycle")

	partial := pathTree(4, 1, 0, 1, 2)
	_, err = checkSpanning(h, []wtree{partial}, 2, 0.1)
	wantErr(t, err, "has 3 vertices")
}

func TestReceiveBound(t *testing.T) {
	deg := []int{2, 2, 2, 2}
	// 5 messages, 3 of them from vertex 0: vertex 1 must receive all 5
	// at 2 per round.
	sources := []int{0, 0, 0, 2, 2}
	if got := receiveBound(deg, sources); got != 3 {
		t.Fatalf("receiveBound = %d, want 3", got)
	}
	ok := broadcastOutcome{Messages: 5, Rounds: 3, Throughput: 5.0 / 3}
	if err := checkBroadcast(ok, 5, 3); err != nil {
		t.Fatalf("valid broadcast rejected: %v", err)
	}
}

func TestRejectsBroadcastBelowReceiveBound(t *testing.T) {
	tooFast := broadcastOutcome{Messages: 5, Rounds: 2, Throughput: 2.5}
	wantErr(t, checkBroadcast(tooFast, 5, 3), "receive-capacity bound")

	wrongRate := broadcastOutcome{Messages: 5, Rounds: 4, Throughput: 1}
	wantErr(t, checkBroadcast(wrongRate, 5, 3), "throughput")
}

func TestRejectsFaultAccounting(t *testing.T) {
	if err := checkFaulted(faultOutcome{PairsExpected: 8, PairsDelivered: 6, DeliveredFraction: 0.75}); err != nil {
		t.Fatalf("valid fault accounting rejected: %v", err)
	}
	wantErr(t, checkFaulted(faultOutcome{PairsExpected: 8, PairsDelivered: 9, DeliveredFraction: 1.125}), "expected pairs")
	wantErr(t, checkFaulted(faultOutcome{PairsExpected: 8, PairsDelivered: 6, DeliveredFraction: 1}), "fraction")
}
