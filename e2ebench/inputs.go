package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"repro/internal/graph"
)

// instance is one generated input graph together with the connectivity
// its family has by construction. Every workload draws its graphs from
// four families whose vertex connectivity κ and edge connectivity λ are
// known exactly, so the checkers never have to trust the program to
// compute them:
//
//	hypercube Q_d      κ = λ = d
//	Harary H(k, n)     κ = λ = k
//	torus r×c (r,c≥3)  κ = λ = 4
//	complete K_n       κ = λ = n-1
//
// A seeded random relabeling (and edge-order shuffle) makes every
// instance a graph the server has not seen under another seed, while
// keeping κ and λ.
type instance struct {
	Name   string
	N      int
	Edges  [][2]int
	Kappa  int
	Lambda int
	G      *graph.Graph
}

// shape names a family member; build returns its canonical labeling.
type shape struct {
	name   string
	kappa  int
	lambda int
	build  func() (*graph.Graph, error)
}

func hypercube(d int) shape {
	return shape{fmt.Sprintf("Q%d", d), d, d, func() (*graph.Graph, error) { return graph.Hypercube(d), nil }}
}

func harary(k, n int) shape {
	return shape{fmt.Sprintf("H%d_%d", k, n), k, k, func() (*graph.Graph, error) { return graph.Harary(k, n) }}
}

func torus(r, c int) shape {
	return shape{fmt.Sprintf("T%dx%d", r, c), 4, 4, func() (*graph.Graph, error) { return graph.Torus(r, c), nil }}
}

func complete(n int) shape {
	return shape{fmt.Sprintf("K%d", n), n - 1, n - 1, func() (*graph.Graph, error) { return graph.Complete(n), nil }}
}

// times repeats shapes n times; each repeat is relabeled separately.
func times(n int, shapes ...shape) []shape {
	var out []shape
	for i := 0; i < n; i++ {
		out = append(out, shapes...)
	}
	return out
}

// Workload compositions. The mix of families and sizes is fixed per
// workload, so a pass has the same shape under every seed; the seed
// picks the relabelings, the demands, the fault plans, the packer
// seeds, and the order of operations. Each shape appears at least
// twice, so a pass averages over several relabelings of it.
var (
	// broadcastRegistry is the set of graphs broadcast_http serves,
	// 32 to 256 vertices.
	// Relabeling leaves a complete graph unchanged, so each complete
	// graph appears once.
	broadcastRegistry = append(times(2,
		hypercube(5), hypercube(6), hypercube(7), hypercube(8),
		harary(6, 48), harary(4, 96), harary(8, 128), harary(10, 200),
		torus(8, 8), torus(12, 16), torus(16, 16)),
		complete(32), complete(40))
	// decomposeMix is one pass of decompose_cold, 40 to 512 vertices,
	// in blocks of similar cost: the median operation falls inside the
	// 128-vertex block and the 90th percentile inside the 512-vertex
	// block, so neither sits on a step between two graph classes.
	decomposeMix = slices.Concat(
		times(4, hypercube(6), harary(6, 64), torus(8, 8)),
		times(5, hypercube(7)), times(4, harary(6, 128)),
		[]shape{torus(16, 16), hypercube(8), complete(40)},
		times(6, harary(6, 512)))
	// simulateMix is one pass of simulate_dist, 64 to 128 vertices;
	// each graph is packed once per kind.
	simulateMix = times(2,
		hypercube(6), harary(6, 64), torus(8, 8), harary(4, 80),
		torus(8, 12), harary(5, 96), hypercube(7), torus(10, 12))
)

// newRand returns the PCG stream for one (seed, purpose) pair, so the
// streams a workload draws from never overlap.
func newRand(seed uint64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^purpose))
}

// Stream purposes.
const (
	streamRelabel uint64 = iota + 1
	streamDemands
	streamOrder
	streamFaults
	streamPackSeeds
	streamReplay
)

// generate builds the relabeled instances of shapes from rng.
func generate(shapes []shape, rng *rand.Rand) ([]*instance, error) {
	out := make([]*instance, len(shapes))
	for i, s := range shapes {
		inst, err := relabeled(s, rng)
		if err != nil {
			return nil, err
		}
		out[i] = inst
	}
	return out, nil
}

func relabeled(s shape, rng *rand.Rand) (*instance, error) {
	g, err := s.build()
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", s.name, err)
	}
	n := g.N()
	perm := rng.Perm(n)
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges() {
		edges = append(edges, [2]int{perm[e.U], perm[e.V]})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return &instance{
		Name:   s.name,
		N:      n,
		Edges:  edges,
		Kappa:  s.kappa,
		Lambda: s.lambda,
		G:      graph.FromEdgeList(n, edges),
	}, nil
}

// degrees returns the vertex degrees of the instance's edge list.
func (in *instance) degrees() []int {
	deg := make([]int, in.N)
	for _, e := range in.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

// uniformSources draws m message sources uniformly from 0..n-1.
func uniformSources(n, m int, rng *rand.Rand) []int {
	src := make([]int, m)
	for i := range src {
		src[i] = rng.IntN(n)
	}
	return src
}
