package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// The checkers below test the program's outputs against properties the
// paper's method guarantees, computed from the benchmark's own copy of
// each input graph and the connectivity its family has by construction.
// They share no code with the repository's internal/check oracles.

// tol absorbs floating-point accumulation in load and size sums.
const tol = 1e-9

// spanningEpsilon is the ε of every spanning packing the benchmark
// checks: the spanning-tree packer's default, which cmd/serve and the
// public API use when no ε is given.
const spanningEpsilon = 0.1

// host is the checkers' view of an input graph: sorted adjacency rows
// with a dense edge index per adjacency entry.
type host struct {
	n   int
	m   int
	nbr [][]int32
	eid [][]int32
}

func newHost(n int, edges [][2]int) *host {
	h := &host{n: n, nbr: make([][]int32, n), eid: make([][]int32, n)}
	type arc struct{ to, id int32 }
	rows := make([][]arc, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		id := int32(h.m)
		h.m++
		rows[u] = append(rows[u], arc{int32(v), id})
		rows[v] = append(rows[v], arc{int32(u), id})
	}
	for v, row := range rows {
		slices.SortFunc(row, func(a, b arc) int { return int(a.to - b.to) })
		for _, a := range row {
			h.nbr[v] = append(h.nbr[v], a.to)
			h.eid[v] = append(h.eid[v], a.id)
		}
	}
	return h
}

// edge returns the id of edge {u, v}, or -1 when it is not in the graph.
func (h *host) edge(u, v int) int {
	row := h.nbr[u]
	i, ok := slices.BinarySearch(row, int32(v))
	if !ok {
		return -1
	}
	return int(h.eid[u][i])
}

// wtree is a weighted tree as the checkers see it: parent[v] is v's
// parent, v itself for the root, and -1 when v is not in the tree.
type wtree struct {
	parent []int
	weight float64
}

// fromTree converts a packed tree to the checkers' form.
func fromTree(t *graph.Tree, n int, w float64) wtree {
	p := make([]int, n)
	for v := range p {
		switch par, ok := t.Parent(v); {
		case ok:
			p[v] = par
		case t.Contains(v):
			p[v] = v
		default:
			p[v] = -1
		}
	}
	return wtree{parent: p, weight: w}
}

// validTree checks that t's vertices form one tree of the host graph:
// exactly one root, every parent link a graph edge, and every vertex's
// parent chain ending at the root (so the tree is connected and has no
// cycle). It returns the ids of the tree's edges.
func validTree(h *host, t wtree) ([]int, error) {
	if len(t.parent) != h.n {
		return nil, fmt.Errorf("tree covers %d vertices, graph has %d", len(t.parent), h.n)
	}
	if !(t.weight > 0) || t.weight > 1+tol {
		return nil, fmt.Errorf("tree weight %g outside (0, 1]", t.weight)
	}
	root := -1
	var edges []int
	for v, p := range t.parent {
		switch {
		case p == -1:
		case p == v:
			if root >= 0 {
				return nil, fmt.Errorf("two roots %d and %d", root, v)
			}
			root = v
		case p < 0 || p >= h.n || t.parent[p] == -1:
			return nil, fmt.Errorf("vertex %d has parent %d outside the tree", v, p)
		default:
			id := h.edge(v, p)
			if id < 0 {
				return nil, fmt.Errorf("tree edge {%d,%d} is not a graph edge", v, p)
			}
			edges = append(edges, id)
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("tree has no root")
	}
	// state: 0 unvisited, 1 on the current chain, 2 reaches the root.
	state := make([]uint8, h.n)
	state[root] = 2
	var chain []int
	for v, p := range t.parent {
		if p == -1 || state[v] == 2 {
			continue
		}
		chain = chain[:0]
		u := v
		for state[u] == 0 {
			state[u] = 1
			chain = append(chain, u)
			u = t.parent[u]
		}
		if state[u] == 1 {
			return nil, fmt.Errorf("parent links of vertex %d form a cycle", v)
		}
		for _, c := range chain {
			state[c] = 2
		}
	}
	return edges, nil
}

// dominatingFloor is the Theorem 1.1/1.2 size guarantee Ω(κ/log n) with
// the explicit constant κ/(8·log2(n+2)).
func dominatingFloor(kappa, n int) float64 {
	return float64(kappa) / (8 * math.Log2(float64(n)+2))
}

// spanningFloor is the Theorem 1.3 size guarantee
// ⌊(λ-1)/2⌋·(1-6ε).
func spanningFloor(lambda int, eps float64) float64 {
	return float64((lambda-1)/2) * (1 - 6*eps)
}

// checkDominating verifies a fractional dominating-tree packing: each
// tree is a connected subtree that dominates every vertex, no vertex
// carries more than weight 1, and the size clears the κ floor. It
// returns the packing size.
func checkDominating(h *host, trees []wtree, kappa int) (float64, error) {
	if len(trees) == 0 {
		return 0, fmt.Errorf("dominating packing is empty")
	}
	load := make([]float64, h.n)
	size := 0.0
	for i, t := range trees {
		if _, err := validTree(h, t); err != nil {
			return 0, fmt.Errorf("dominating tree %d: %w", i, err)
		}
		for v, p := range t.parent {
			if p >= 0 {
				load[v] += t.weight
				continue
			}
			dominated := false
			for _, u := range h.nbr[v] {
				if t.parent[u] >= 0 {
					dominated = true
					break
				}
			}
			if !dominated {
				return 0, fmt.Errorf("dominating tree %d leaves vertex %d undominated", i, v)
			}
		}
		size += t.weight
	}
	for v, l := range load {
		if l > 1+tol {
			return 0, fmt.Errorf("vertex %d carries load %g > 1", v, l)
		}
	}
	if floor := dominatingFloor(kappa, h.n); size < floor-tol {
		return 0, fmt.Errorf("dominating packing size %g below floor κ/(8·log2(n+2)) = %g (κ=%d, n=%d)", size, floor, kappa, h.n)
	}
	return size, nil
}

// checkSpanning verifies a fractional spanning-tree packing: each tree
// spans the graph, no edge carries more than weight 1, and the size
// clears the λ floor. It returns the packing size.
func checkSpanning(h *host, trees []wtree, lambda int, eps float64) (float64, error) {
	if len(trees) == 0 {
		return 0, fmt.Errorf("spanning packing is empty")
	}
	load := make([]float64, h.m)
	size := 0.0
	for i, t := range trees {
		edges, err := validTree(h, t)
		if err != nil {
			return 0, fmt.Errorf("spanning tree %d: %w", i, err)
		}
		if len(edges) != h.n-1 {
			return 0, fmt.Errorf("spanning tree %d has %d vertices, graph has %d", i, len(edges)+1, h.n)
		}
		for _, id := range edges {
			load[id] += t.weight
		}
		size += t.weight
	}
	for id, l := range load {
		if l > 1+tol {
			return 0, fmt.Errorf("edge %d carries load %g > 1", id, l)
		}
	}
	if floor := spanningFloor(lambda, eps); size < floor-tol {
		return 0, fmt.Errorf("spanning packing size %g below floor ⌊(λ-1)/2⌋(1-6ε) = %g (λ=%d)", size, floor, lambda)
	}
	return size, nil
}

// checkInstance checks one packing of a generated input graph with the
// checker for its kind, against the graph family's κ or λ.
func checkInstance(in *instance, spanning bool, trees []wtree) (float64, error) {
	h := newHost(in.N, in.Edges)
	if spanning {
		return checkSpanning(h, trees, in.Lambda, spanningEpsilon)
	}
	return checkDominating(h, trees, in.Kappa)
}

// receiveBound is the fewest rounds any schedule needs to deliver every
// message to every vertex: vertex v must receive the M - M_v messages
// that do not start at v, and it can receive at most deg(v) per round in
// both congestion models.
func receiveBound(deg []int, sources []int) int {
	perVertex := make([]int, len(deg))
	for _, s := range sources {
		perVertex[s]++
	}
	m := len(sources)
	bound := 0
	for v, d := range deg {
		need := m - perVertex[v]
		if need <= 0 {
			continue
		}
		if d == 0 {
			return math.MaxInt
		}
		if r := (need + d - 1) / d; r > bound {
			bound = r
		}
	}
	return bound
}

// broadcastOutcome is the part of a broadcast response the checker
// reads.
type broadcastOutcome struct {
	Messages   int
	Rounds     int
	Throughput float64
}

// checkBroadcast verifies a healthy broadcast result: it reports every
// message, its throughput is messages/rounds, and it took at least the
// receive-capacity bound in rounds.
func checkBroadcast(out broadcastOutcome, messages, bound int) error {
	if out.Messages != messages {
		return fmt.Errorf("response reports %d messages, demand had %d", out.Messages, messages)
	}
	if out.Rounds < bound {
		return fmt.Errorf("broadcast finished in %d rounds, below the receive-capacity bound %d", out.Rounds, bound)
	}
	if out.Rounds <= 0 || out.Throughput != float64(messages)/float64(out.Rounds) {
		return fmt.Errorf("throughput %g is not messages/rounds = %d/%d", out.Throughput, messages, out.Rounds)
	}
	return nil
}

// faultOutcome is the fault accounting of a faulted broadcast.
type faultOutcome struct {
	PairsExpected     int
	PairsDelivered    int
	DeliveredFraction float64
}

// checkFaulted verifies a faulted broadcast's accounting: it delivers no
// more (message, vertex) pairs than it expected, and the delivered
// fraction is exactly their ratio.
func checkFaulted(f faultOutcome) error {
	if f.PairsExpected <= 0 || f.PairsDelivered < 0 || f.PairsDelivered > f.PairsExpected {
		return fmt.Errorf("delivered %d of %d expected pairs", f.PairsDelivered, f.PairsExpected)
	}
	if want := float64(f.PairsDelivered) / float64(f.PairsExpected); math.Abs(f.DeliveredFraction-want) > tol {
		return fmt.Errorf("delivered fraction %g, pairs give %g", f.DeliveredFraction, want)
	}
	return nil
}
