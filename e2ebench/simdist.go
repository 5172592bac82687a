package main

import (
	"fmt"
	"math"
	"syscall"
	"time"

	decomp "repro"
	"repro/internal/sim"
)

// simulate_dist: distributed packings through the library's public API,
// one after another in process, at the simulator's default worker
// count. A pass packs every graph of the workload's mix once per kind,
// in a seeded order, each with its own seeded packer seed.

const simSetups = 3 // timed set-ups per run; setup_s is their median

// simOp is one distributed packing of a pass.
type simOp struct {
	inst     *instance
	spanning bool
	seed     uint64
}

func (r *run) simulateOps() ([]*instance, []simOp, error) {
	insts, err := generate(simulateMix, newRand(r.seed, streamRelabel))
	if err != nil {
		return nil, nil, err
	}
	prng := newRand(r.seed, streamPackSeeds)
	var ops []simOp
	for _, in := range insts {
		for _, spanning := range []bool{false, true} {
			ops = append(ops, simOp{inst: in, spanning: spanning, seed: prng.Uint64()})
		}
	}
	orng := newRand(r.seed, streamOrder)
	orng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return insts, ops, nil
}

// distPack runs one distributed packing through the public API and
// returns its trees as the checkers see them, its size, and its round
// meter.
func distPack(op simOp) ([]wtree, float64, sim.Meter, error) {
	g, n := op.inst.G, op.inst.N
	var trees []wtree
	if op.spanning {
		res, err := decomp.PackSpanningTreesDistributed(g, decomp.WithSeed(op.seed))
		if err != nil {
			return nil, 0, sim.Meter{}, err
		}
		for _, t := range res.Packing.Trees {
			trees = append(trees, fromTree(t.Tree, n, t.Weight))
		}
		return trees, res.Packing.Size(), res.Meter, nil
	}
	res, err := decomp.PackDominatingTreesDistributed(g, decomp.WithSeed(op.seed))
	if err != nil {
		return nil, 0, sim.Meter{}, err
	}
	for _, t := range res.Packing.Trees {
		trees = append(trees, fromTree(t.Tree, n, t.Weight))
	}
	return trees, res.Packing.Size(), res.Meter, nil
}

func selfCPU() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Maxrss
}

func (r *run) simulateDist() error {
	var e endToEnd
	var ops []simOp
	// Set-up: generate the seeded graphs (CSR builds included) and warm
	// the simulator with one packing of each kind on the smallest graph.
	for i := 0; i < simSetups; i++ {
		t0 := time.Now()
		insts, o, err := r.simulateOps()
		if err != nil {
			return err
		}
		small := insts[0]
		for _, in := range insts {
			if in.G.M() < small.G.M() {
				small = in
			}
		}
		for _, spanning := range []bool{false, true} {
			if _, _, _, err := distPack(simOp{inst: small, spanning: spanning, seed: 1}); err != nil {
				return fmt.Errorf("warm-up packing of %s: %w", small.Name, err)
			}
		}
		e.setups = append(e.setups, time.Since(t0))
		ops = o
	}

	start := time.Now()
	var rounds []float64
	passes := 0
	for passes == 0 || time.Since(start) < r.seconds {
		for _, op := range ops {
			r.attempt()
			c0, _ := selfCPU()
			t0 := time.Now()
			trees, size, meter, err := distPack(op)
			lat := time.Since(t0)
			c1, _ := selfCPU()
			e.measured += lat
			e.cpu += c1 - c0
			if err != nil {
				r.opFailed("%s: %v", op.inst.Name, err)
				continue
			}
			e.latencies = append(e.latencies, ms(lat))
			rounds = append(rounds, float64(meter.TotalRounds()))
			checked, err := checkInstance(op.inst, op.spanning, trees)
			if err != nil {
				r.checkFailed("%s distributed packing (spanning=%v): %v", op.inst.Name, op.spanning, err)
				continue
			}
			if math.Abs(checked-size) > 1e-9*max(1, size) {
				r.checkFailed("%s: trees weigh %g, packing reports size %g", op.inst.Name, checked, size)
			}
			if op.spanning {
				e.spanSizes = append(e.spanSizes, size)
			} else {
				e.domSizes = append(e.domSizes, size)
			}
		}
		passes++
	}
	_, e.peakRSSk = selfCPU()
	r.note("passes=%d of %d distributed packings over %d graphs; sim_rounds=%.2f mean metered rounds per packing",
		passes, len(ops), len(ops)/2, mean(rounds))
	r.report(&e)
	return nil
}
