package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// decompose_cold: a closed loop of graphs new to the server, each
// registered over HTTP and decomposed in both kinds, with the snapshot
// store on. A pass is the workload's fixed graph mix, largest first;
// each pass runs against a freshly started server over an empty store,
// so every graph of every pass is a cache miss that runs the packers
// and a write-behind save.

func (r *run) decomposeCold() error {
	insts, err := generate(decomposeMix, newRand(r.seed, streamRelabel))
	if err != nil {
		return err
	}
	// Seeded order, then largest graphs first (by edge count), so a pass
	// does not end with one connection idle behind a 512-vertex graph.
	order := newRand(r.seed, streamOrder).Perm(len(insts))
	slices.SortStableFunc(order, func(a, b int) int { return len(insts[b].Edges) - len(insts[a].Edges) })
	bodies := make([][]byte, len(insts))
	for i, in := range insts {
		if bodies[i], err = json.Marshal(serve.RegisterRequest{N: in.N, Edges: in.Edges}); err != nil {
			return err
		}
	}

	var e endToEnd
	var rss []float64 // peak RSS of each pass's server, KiB
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < r.seconds; pass++ {
		if err := r.coldPass(pass, insts, order, bodies, &e, &rss); err != nil {
			return err
		}
	}
	e.peakRSSk = int64(median(rss))
	r.note("passes=%d of %d graphs, each on a fresh server over an empty store; peak_rss_mb is the median of the servers' peaks",
		len(e.setups), len(insts))
	r.report(&e)
	return nil
}

// coldPass starts a server over an empty store (one set-up sample),
// sends every graph once, stops the server, and checks the packings it
// persisted.
func (r *run) coldPass(pass int, insts []*instance, order []int, bodies [][]byte, e *endToEnd, rss *[]float64) error {
	store := filepath.Join(r.work, fmt.Sprintf("cold%d", pass))
	t0 := time.Now()
	s, err := startServer(r.serveBin, store, filepath.Join(r.work, fmt.Sprintf("cold%d.log", pass)), r.conns)
	if err != nil {
		return err
	}
	e.setups = append(e.setups, time.Since(t0))
	cpu0, err := s.procCPU()
	if err != nil {
		s.stop()
		return err
	}

	sizes := make([][2]float64, len(insts))
	lat := make([]float64, len(insts))
	errs := make([]error, len(insts))
	var next atomic.Int64
	var wg sync.WaitGroup
	opsStart := time.Now()
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				t := time.Now()
				sizes[i], errs[i] = r.coldOp(s, insts[i], bodies[i])
				lat[i] = ms(time.Since(t))
			}
		}()
	}
	wg.Wait()
	e.measured += time.Since(opsStart)
	stopErr := s.stop()
	if stopErr != nil {
		return fmt.Errorf("stopping the server: %w", stopErr)
	}
	e.cpu += s.cpu - cpu0
	*rss = append(*rss, float64(s.maxRSSk))
	for i, in := range insts {
		r.attempt()
		if errs[i] != nil {
			r.opFailed("%s: %v", in.Name, errs[i])
			continue
		}
		e.latencies = append(e.latencies, lat[i])
		e.domSizes = append(e.domSizes, sizes[i][0])
		e.spanSizes = append(e.spanSizes, sizes[i][1])
	}
	if err := r.checkStore(store, insts, sizes); err != nil {
		return err
	}
	return os.RemoveAll(store)
}

// coldOp registers one graph and decomposes it in both kinds, checking
// that the server saw it for the first time and that the reported sizes
// clear the method's floors.
func (r *run) coldOp(s *server, in *instance, body []byte) ([2]float64, error) {
	var sizes [2]float64
	var info serve.GraphInfo
	if err := s.postBody("/v1/graphs", body, &info); err != nil {
		return sizes, err
	}
	if info.N != in.N || info.M != len(in.Edges) {
		r.checkFailed("register %s: got n=%d m=%d, want n=%d m=%d", in.Name, info.N, info.M, in.N, len(in.Edges))
	}
	for ki, k := range kinds {
		var d serve.DecompInfo
		if err := s.postBody("/v1/graphs/"+info.ID+"/decomposition", []byte(`{"kind":"`+k+`"}`), &d); err != nil {
			return sizes, err
		}
		if d.Cached || d.Trees < 1 {
			r.checkFailed("%s %s decomposition of a new graph: cached=%v trees=%d", in.Name, k, d.Cached, d.Trees)
		}
		sizes[ki] = d.Size
	}
	return sizes, nil
}
