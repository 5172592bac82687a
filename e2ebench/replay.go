package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/cast"
	"repro/internal/cds"
	"repro/internal/check"
	"repro/internal/flow"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/snap"
	"repro/internal/stp"
)

// The traced replay (--trace 1) runs a workload's seeded inputs in
// process and brackets each public layer call with wall time and
// runtime.MemStats deltas, recording spans from the benchmark's side of
// each layer boundary; the program itself is not instrumented further.
// Every workload replays the whole layer stack on its own inputs, so the
// per-layer figures of two workloads show how the same layer behaves
// under different input mixes:
//
//	graph       CSR build from the edge list
//	flow, cds,  the centralized packers (stp.Pack including its λ
//	stp         estimate) on every graph
//	cast        scheduler construction and Run/RunFaulted per demand
//	snap        Capture+Encode, Store.Save, Store.Load, Verify
//	serve       register, decompose and broadcast over an in-process
//	            loopback HTTP server, Service.BroadcastContext called
//	            directly, the JSON codec, and the server's own phase
//	            histograms read from /metrics
//	sim, dist   the distributed packers on the graphs of at most
//	            maxDistN vertices, at the default worker count and at 1
//
// Replay passes repeat until --seconds have passed; every sample of
// every pass feeds the medians.

// maxDistN bounds the graphs the distributed layers are replayed on
// outside simulate_dist, whose own graphs all qualify.
const maxDistN = 128

// packSeed and packEpsilon mirror cmd/serve's packing options, so the
// replayed packers compute what the server computes.
const (
	packSeed    = 1
	packEpsilon = 0
)

// demand is one broadcast of a replay.
type demand struct {
	graph   int
	kind    serve.Kind
	sources []int
	seed    uint64
	fault   *cast.FaultPlan
}

// replayInput is what a workload hands the replay: its graphs, its
// demands, and the distributed packings to run.
type replayInput struct {
	insts   []*instance
	demands []demand
	dist    []simOp
	// op names the workload's own operation, which is timed with and
	// without the per-call brackets to measure the tracing overhead and
	// the runtime's allocation and GC cost per operation.
	op string
}

// spans collects the per-layer samples of a replay.
type spans struct {
	samples map[string][]float64
	sums    map[string]float64
	calls   int // bracketed layer calls: the traced run's operations
}

func newSpans() *spans {
	return &spans{samples: map[string][]float64{}, sums: map[string]float64{}}
}

func (s *spans) add(name string, v float64) { s.samples[name] = append(s.samples[name], v) }
func (s *spans) sum(name string, v float64) { s.sums[name] += v }

// bracket runs fn between two MemStats reads and returns its wall time
// and the allocations it made. The MemStats reads stay outside the
// timed interval.
func (s *spans) bracket(fn func()) (time.Duration, uint64) {
	s.calls++
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

func (r *run) replayBroadcast() error {
	reg, err := r.broadcastRegistry()
	if err != nil {
		return err
	}
	reqs, err := broadcastPass(reg, r.seed)
	if err != nil {
		return err
	}
	in := replayInput{insts: reg.insts, op: "broadcast"}
	for _, q := range reqs {
		if q.dupOf >= 0 {
			continue
		}
		var body serve.BroadcastRequest
		if err := json.Unmarshal(q.body, &body); err != nil {
			return err
		}
		in.demands = append(in.demands, demand{graph: q.graph, kind: q.kind, sources: body.Sources, seed: body.Seed, fault: body.Fault})
	}
	in.dist = distSubset(reg.insts, 1)
	return r.replay(&in)
}

func (r *run) replayDecompose() error {
	insts, err := generate(decomposeMix, newRand(r.seed, streamRelabel))
	if err != nil {
		return err
	}
	in := replayInput{insts: insts, demands: sampleDemands(insts, r.seed), dist: distSubset(insts, 1), op: "decompose"}
	return r.replay(&in)
}

func (r *run) replaySimulate() error {
	insts, ops, err := r.simulateOps()
	if err != nil {
		return err
	}
	in := replayInput{insts: insts, demands: sampleDemands(insts, r.seed), dist: ops, op: "simulate"}
	return r.replay(&in)
}

// distSubset is one distributed packing of each kind per graph of at
// most maxDistN vertices.
func distSubset(insts []*instance, seed uint64) []simOp {
	var ops []simOp
	for _, in := range insts {
		if in.N <= maxDistN {
			ops = append(ops, simOp{inst: in, seed: seed}, simOp{inst: in, spanning: true, seed: seed})
		}
	}
	return ops
}

// sampleDemands gives workloads without broadcast traffic of their own
// a few seeded demands per graph and kind for the serve and cast
// layers: one message, n/2 and 2n messages, and one faulted n-message
// demand.
func sampleDemands(insts []*instance, seed uint64) []demand {
	rng := newRand(seed, streamDemands)
	var out []demand
	for gi, in := range insts {
		for _, k := range kinds {
			for _, m := range []int{1, max(1, in.N/2), 2 * in.N} {
				out = append(out, demand{graph: gi, kind: k, sources: uniformSources(in.N, m, rng), seed: rng.Uint64()})
			}
			out = append(out, demand{graph: gi, kind: k, sources: uniformSources(in.N, in.N, rng), seed: rng.Uint64(),
				fault: &cast.FaultPlan{Round: rng.IntN(3), RandomEdges: max(1, in.Lambda/3), Seed: rng.Uint64()}})
		}
	}
	return out
}

// replay runs passes of the layer ledger until --seconds have passed
// and reports every per-layer metric.
func (r *run) replay(in *replayInput) error {
	sp := newSpans()
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < r.seconds {
		dir := filepath.Join(r.work, "replay"+strconv.Itoa(passes))
		if err := r.replayPass(in, sp, dir); err != nil {
			return err
		}
		passes++
	}
	r.mu.Lock()
	r.attempted = sp.calls
	r.mu.Unlock()
	r.note("replay passes=%d over %d graphs, %d demands, %d distributed packings; workload operation: %s",
		passes, len(in.insts), len(in.demands), len(in.dist), in.op)
	return r.reportLayers(sp)
}

// packed is one graph's centralized packings and schedulers.
type packed struct {
	trees  [2][]cast.WeightedTree
	sizes  [2]float64
	scheds [2]*cast.Scheduler
}

func (r *run) replayPass(in *replayInput, sp *spans, dir string) error {
	// graph: CSR build.
	for _, inst := range in.insts {
		d, _ := sp.bracket(func() { graph.FromEdgeList(inst.N, inst.Edges) })
		sp.add("graph.build_us", us(d))
	}

	// flow, cds, stp, cast construction, snap.
	store := snap.NewStore(filepath.Join(dir, "snap"))
	digest := snap.OptionsDigest(packSeed, packEpsilon)
	packs := make([]packed, len(in.insts))
	for gi, inst := range in.insts {
		g := inst.G
		d, _ := sp.bracket(func() { flow.StoerWagner(g) })
		sp.add("flow.stoer_wagner_ms", ms(d))

		var dp *cds.Packing
		var err error
		d, _ = sp.bracket(func() { dp, err = cds.Pack(g, cds.Options{Seed: packSeed}) })
		if err != nil {
			return fmt.Errorf("cds.Pack on %s: %w", inst.Name, err)
		}
		sp.add("cds.pack_ms", ms(d))
		var spk *stp.Packing
		d, _ = sp.bracket(func() { spk, err = stp.Pack(g, stp.Options{Seed: packSeed, Epsilon: packEpsilon}) })
		if err != nil {
			return fmt.Errorf("stp.Pack on %s: %w", inst.Name, err)
		}
		sp.add("stp.pack_ms", ms(d))
		sp.add("stp.iterations", float64(spk.Stats.Iterations))
		sp.sum("stp.exact", float64(spk.Stats.StopChecksExact))
		sp.sum("stp.checks", float64(spk.Stats.StopChecksExact+spk.Stats.StopChecksSkipped))

		p := &packs[gi]
		for _, t := range dp.Trees {
			p.trees[0] = append(p.trees[0], cast.WeightedTree{Tree: t.Tree, Weight: t.Weight})
		}
		for _, t := range spk.Trees {
			p.trees[1] = append(p.trees[1], cast.WeightedTree{Tree: t.Tree, Weight: t.Weight})
		}
		p.sizes = [2]float64{dp.Size(), spk.Size()}
		r.checkCentral(inst, p)
		for ki, model := range []sim.Model{sim.VCongest, sim.ECongest} {
			d, _ = sp.bracket(func() { p.scheds[ki], err = cast.NewScheduler(g, p.trees[ki], model) })
			if err != nil {
				return fmt.Errorf("cast.NewScheduler on %s: %w", inst.Name, err)
			}
			sp.add("cast.build_ms", ms(d))
			if err := replaySnap(sp, store, digest, inst, p.trees[ki], p.sizes[ki], ki); err != nil {
				return err
			}
		}
	}

	// cast: Run and RunFaulted per demand on one reused clone per
	// scheduler, as the service's clone pool does.
	clones := make([][2]*cast.Scheduler, len(in.insts))
	for gi := range packs {
		clones[gi] = [2]*cast.Scheduler{packs[gi].scheds[0].Clone(), packs[gi].scheds[1].Clone()}
	}
	degs := make([][]int, len(in.insts))
	for gi, inst := range in.insts {
		degs[gi] = inst.degrees()
	}
	var msgs, rounds float64
	for _, dm := range in.demands {
		ki := kindIndex(dm.kind)
		c := clones[dm.graph][ki]
		n := in.insts[dm.graph].N
		var err error
		if dm.fault != nil {
			var fr cast.FaultResult
			d, _ := sp.bracket(func() { fr, err = c.RunFaulted(cast.Demand{Sources: dm.sources}, dm.seed, *dm.fault) })
			if err != nil {
				return fmt.Errorf("RunFaulted: %w", err)
			}
			if err := checkFaulted(faultOutcome{fr.PairsExpected, fr.PairsDelivered, fr.DeliveredFraction}); err != nil {
				r.checkFailed("replayed faulted run: %v", err)
			}
			sp.add("cast.run_faulted_us", us(d))
			continue
		}
		var res cast.Result
		d, allocs := sp.bracket(func() { res, err = c.Run(cast.Demand{Sources: dm.sources}, dm.seed) })
		if err != nil {
			return fmt.Errorf("Run: %w", err)
		}
		m := len(dm.sources)
		if err := checkBroadcast(broadcastOutcome{m, res.Rounds, res.Throughput}, m, receiveBound(degs[dm.graph], dm.sources)); err != nil {
			r.checkFailed("replayed %s run on %s: %v", dm.kind, in.insts[dm.graph].Name, err)
		}
		if ki == 0 {
			sp.add("cast.run_vertex_us", us(d))
		} else {
			sp.add("cast.run_edge_us", us(d))
		}
		sp.add("cast.run_allocs", float64(allocs))
		sp.sum("cast.run_ns", float64(d.Nanoseconds()))
		sp.sum("cast.deliveries", float64(m*n))
		msgs += float64(m)
		rounds += float64(res.Rounds)
	}
	sp.sum("cast.msgs", msgs)
	sp.sum("cast.rounds", rounds)

	// serve, in process over loopback HTTP.
	if err := r.replayServe(in, sp, clones, dir); err != nil {
		return err
	}

	// sim, dist: the distributed packers.
	return r.replayDist(in, sp)
}

func kindIndex(k serve.Kind) int {
	if k == serve.Spanning {
		return 1
	}
	return 0
}

// checkCentral checks the replay's centralized packings.
func (r *run) checkCentral(inst *instance, p *packed) {
	for ki := range p.trees {
		trees := make([]wtree, len(p.trees[ki]))
		for i, t := range p.trees[ki] {
			trees[i] = fromTree(t.Tree, inst.N, t.Weight)
		}
		if _, err := checkInstance(inst, ki == 1, trees); err != nil {
			r.checkFailed("replayed %s %s packing: %v", inst.Name, kinds[ki], err)
		}
	}
}

// replaySnap times the snapshot layer's write and read sides on one
// packing.
func replaySnap(sp *spans, store *snap.Store, digest uint64, inst *instance, trees []cast.WeightedTree, size float64, ki int) error {
	kind := snap.KindDominating
	if ki == 1 {
		kind = snap.KindSpanning
	}
	ws := make([]check.Weighted, len(trees))
	for i, t := range trees {
		ws[i] = check.Weighted{Tree: t.Tree, Weight: t.Weight}
	}
	var data []byte
	var sn *snap.Snapshot
	var err error
	d, _ := sp.bracket(func() {
		sn, err = snap.Capture(inst.G, kind, digest, ws, size)
		if err == nil {
			data, err = sn.Encode()
		}
	})
	if err != nil {
		return fmt.Errorf("snapshot of %s: %w", inst.Name, err)
	}
	sp.add("snap.encode_ms", ms(d))
	sp.add("snap.bytes", float64(len(data)))
	d, _ = sp.bracket(func() { err = store.Save(sn) })
	if err != nil {
		return fmt.Errorf("saving snapshot of %s: %w", inst.Name, err)
	}
	sp.add("snap.save_ms", ms(d))
	var loaded *snap.Snapshot
	d, _ = sp.bracket(func() { loaded, err = store.Load(sn.GraphKey(), kind, digest) })
	if err != nil {
		return fmt.Errorf("loading snapshot of %s: %w", inst.Name, err)
	}
	sp.add("snap.load_ms", ms(d))
	d, _ = sp.bracket(func() { err = loaded.Verify(inst.G) })
	if err != nil {
		return fmt.Errorf("verifying snapshot of %s: %w", inst.Name, err)
	}
	sp.add("snap.verify_ms", ms(d))
	return nil
}

// loopback is an in-process service behind a loopback HTTP listener.
type loopback struct {
	svc    *serve.Service
	ts     *httptest.Server
	client *http.Client
}

func newLoopback(store string) *loopback {
	svc := serve.New(serve.Config{PackSeed: packSeed, StoreDir: store})
	ts := httptest.NewServer(serve.NewHandler(svc))
	return &loopback{svc: svc, ts: ts, client: ts.Client()}
}

func (l *loopback) close() {
	l.ts.Close()
	l.svc.FlushStore()
}

func (l *loopback) post(path string, body []byte) ([]byte, error) {
	resp, err := l.client.Post(l.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, err
}

// coldOps registers and decomposes every graph on l: the decompose_cold
// operation. With traced set, each request is bracketed and recorded.
func coldOps(l *loopback, insts []*instance, sp *spans, traced bool) ([]string, []float64, error) {
	ids := make([]string, len(insts))
	lat := make([]float64, len(insts))
	for gi, inst := range insts {
		body, err := json.Marshal(serve.RegisterRequest{N: inst.N, Edges: inst.Edges})
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		var data []byte
		if traced {
			d, _ := sp.bracket(func() { data, err = l.post("/v1/graphs", body) })
			sp.add("serve.register_ms", ms(d))
		} else {
			data, err = l.post("/v1/graphs", body)
		}
		if err != nil {
			return nil, nil, err
		}
		var info serve.GraphInfo
		if err := json.Unmarshal(data, &info); err != nil {
			return nil, nil, err
		}
		ids[gi] = info.ID
		for _, k := range kinds {
			path := "/v1/graphs/" + info.ID + "/decomposition"
			kb := []byte(`{"kind":"` + k + `"}`)
			if traced {
				_, _ = sp.bracket(func() { _, err = l.post(path, kb) })
			} else {
				_, err = l.post(path, kb)
			}
			if err != nil {
				return nil, nil, err
			}
		}
		lat[gi] = ms(time.Since(t0))
	}
	return ids, lat, nil
}

func (r *run) replayServe(in *replayInput, sp *spans, clones [][2]*cast.Scheduler, dir string) error {
	ctx := context.Background()
	var mem0, mem1 runtime.MemStats

	// The workload's own operation, untraced: tracing overhead and the
	// runtime's per-operation costs.
	var untraced []float64
	if in.op == "decompose" {
		l := newLoopback(filepath.Join(dir, "untraced"))
		runtime.ReadMemStats(&mem0)
		_, lat, err := coldOps(l, in.insts, sp, false)
		runtime.ReadMemStats(&mem1)
		l.close()
		if err != nil {
			return err
		}
		untraced = lat
		addRuntime(sp, &mem0, &mem1, len(lat))
	}

	l := newLoopback(filepath.Join(dir, "serve"))
	defer l.close()
	ids, coldLat, err := coldOps(l, in.insts, sp, true)
	if err != nil {
		return err
	}
	if in.op == "decompose" {
		sp.add("trace.op_ms", median(coldLat))
		sp.add("trace.untraced_op_ms", median(untraced))
	}

	bodies := make([][]byte, len(in.demands))
	for di, dm := range in.demands {
		if dm.fault != nil {
			continue
		}
		if bodies[di], err = json.Marshal(serve.BroadcastRequest{Kind: dm.kind, Sources: dm.sources, Seed: dm.seed}); err != nil {
			return err
		}
	}
	path := func(dm demand) string { return "/v1/graphs/" + ids[dm.graph] + "/broadcast" }
	if in.op == "broadcast" {
		runtime.ReadMemStats(&mem0)
		ops := 0
		for di, dm := range in.demands {
			if bodies[di] == nil {
				continue
			}
			t0 := time.Now()
			if _, err := l.post(path(dm), bodies[di]); err != nil {
				return err
			}
			untraced = append(untraced, ms(time.Since(t0)))
			ops++
		}
		runtime.ReadMemStats(&mem1)
		addRuntime(sp, &mem0, &mem1, ops)
	}

	var httpUS, bcastUS, jsonUS, overUS, traced []float64
	for di, dm := range in.demands {
		if bodies[di] == nil {
			continue
		}
		d, _ := sp.bracket(func() { _, err = l.post(path(dm), bodies[di]) })
		if err != nil {
			return err
		}
		httpUS = append(httpUS, us(d))
		traced = append(traced, ms(d))

		// The service call and the same demand on a bare scheduler
		// clone, back to back; whichever runs second finds the caches
		// warm, so the order alternates between demands.
		c := clones[dm.graph][kindIndex(dm.kind)]
		var res cast.Result
		var dc time.Duration
		bare := func() { dc, _ = sp.bracket(func() { _, err = c.Run(cast.Demand{Sources: dm.sources}, dm.seed) }) }
		if di%2 == 1 {
			bare()
		}
		if err == nil {
			d, _ = sp.bracket(func() { res, err = l.svc.BroadcastContext(ctx, ids[dm.graph], dm.kind, dm.sources, dm.seed) })
		}
		if err == nil && di%2 == 0 {
			bare()
		}
		if err != nil {
			return err
		}
		bcastUS = append(bcastUS, us(d))
		overUS = append(overUS, us(d)-us(dc))

		d, _ = sp.bracket(func() { err = jsonRoundTrip(bodies[di], ids[dm.graph], res) })
		if err != nil {
			return err
		}
		jsonUS = append(jsonUS, us(d))
	}
	if in.op == "broadcast" {
		sp.add("trace.op_ms", median(traced))
		sp.add("trace.untraced_op_ms", median(untraced))
	}
	sp.samples["serve.http_us"] = append(sp.samples["serve.http_us"], httpUS...)
	sp.samples["serve.broadcast_us"] = append(sp.samples["serve.broadcast_us"], bcastUS...)
	sp.samples["serve.json_us"] = append(sp.samples["serve.json_us"], jsonUS...)
	sp.samples["serve.overhead_us"] = append(sp.samples["serve.overhead_us"], overUS...)

	// The server's own phase histograms: registry, clone, run and pack
	// from this service, persist after its saves land, store_load from a
	// warm restart over the same store.
	l.svc.FlushStore()
	if err := scrapePhases(l, sp, "registry", "clone", "run", "pack", "persist"); err != nil {
		return err
	}
	warm := newLoopback(filepath.Join(dir, "serve"))
	defer warm.close()
	if _, _, err := coldOps(warm, in.insts, sp, false); err != nil {
		return err
	}
	return scrapePhases(warm, sp, "store_load")
}

// jsonRoundTrip is the broadcast handler's codec work: decode the
// request, encode the response.
func jsonRoundTrip(body []byte, id string, res cast.Result) error {
	var req serve.BroadcastRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return err
	}
	var buf bytes.Buffer
	return json.NewEncoder(&buf).Encode(serve.BroadcastResponse{GraphID: id, Kind: req.Kind, Messages: len(req.Sources), Result: res})
}

// scrapePhases reads GET /metrics and records each named phase
// histogram's median, in µs.
func scrapePhases(l *loopback, sp *spans, phases ...string) error {
	resp, err := l.client.Get(l.ts.URL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	hist := map[string][][2]float64{} // name -> (le, cumulative count)
	counts := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if base, le, ok := strings.Cut(name, `_bucket{le="`); ok {
			bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
			if err == nil {
				hist[base] = append(hist[base], [2]float64{bound, v})
			}
		} else if base, ok := strings.CutSuffix(name, "_count"); ok {
			counts[base] = v
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for _, ph := range phases {
		name := "repro_serve_phase_" + ph + "_ns"
		n := counts[name]
		if n == 0 {
			return fmt.Errorf("/metrics has no %s samples", name)
		}
		for _, b := range hist[name] {
			if b[1] >= math.Ceil(n/2) {
				sp.add("serve.phase_"+ph+"_us", b[0]/1e3)
				break
			}
		}
	}
	return nil
}

// addRuntime records the Go runtime's allocation and GC cost per
// operation over an untraced section.
func addRuntime(sp *spans, m0, m1 *runtime.MemStats, ops int) {
	sp.add("runtime.alloc_bytes_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	sp.add("runtime.gc_cycles_per_op", float64(m1.NumGC-m0.NumGC)/float64(ops))
}

func (r *run) replayDist(in *replayInput, sp *spans) error {
	var mem0, mem1 runtime.MemStats
	if in.op == "simulate" {
		var untraced []float64
		runtime.ReadMemStats(&mem0)
		for _, op := range in.dist {
			t0 := time.Now()
			if _, _, _, err := distPack(op); err != nil {
				return err
			}
			untraced = append(untraced, ms(time.Since(t0)))
		}
		runtime.ReadMemStats(&mem1)
		addRuntime(sp, &mem0, &mem1, len(in.dist))
		sp.add("trace.untraced_op_ms", median(untraced))
	}
	var traced []float64
	for _, workers := range []int{0, 1} {
		sim.SetDefaultWorkers(workers)
		for _, op := range in.dist {
			var err error
			var meter sim.Meter
			var size float64
			var trees []wtree
			d, allocs := sp.bracket(func() { trees, size, meter, err = distPack(op) })
			if err != nil {
				sim.SetDefaultWorkers(0)
				return fmt.Errorf("distributed packing of %s: %w", op.inst.Name, err)
			}
			layer := "cdsdist"
			if op.spanning {
				layer = "stpdist"
			}
			sp.sum(layer+".ns_w"+strconv.Itoa(workers), float64(d.Nanoseconds()))
			if workers == 1 {
				continue
			}
			traced = append(traced, ms(d))
			if _, err := checkInstance(op.inst, op.spanning, trees); err != nil {
				r.checkFailed("replayed distributed packing of %s: %v (size %g)", op.inst.Name, err, size)
			}
			sp.add(layer+".pack_ms", ms(d))
			sp.add("sim.messages_per_pack", float64(meter.Messages))
			sp.add("sim.rounds_per_pack", float64(meter.TotalRounds()))
			sp.sum("sim.ns", float64(d.Nanoseconds()))
			sp.sum("sim.node_rounds", float64(op.inst.N*meter.RawRounds))
			sp.sum("sim.raw_rounds", float64(meter.RawRounds))
			sp.sum("sim.allocs", float64(allocs))
		}
	}
	sim.SetDefaultWorkers(0)
	if in.op == "simulate" {
		sp.add("trace.op_ms", median(traced))
	}
	return nil
}

// layerMetrics lists every per-layer metric with its unit, in report
// order.
var layerMetrics = []struct{ name, unit string }{
	{"serve.http_us", "us"}, {"serve.broadcast_us", "us"}, {"serve.json_us", "us"},
	{"serve.overhead_us", "us"}, {"serve.residual_us", "us"}, {"serve.register_ms", "ms"},
	{"serve.phase_registry_us", "us"}, {"serve.phase_clone_us", "us"}, {"serve.phase_run_us", "us"},
	{"serve.phase_pack_us", "us"}, {"serve.phase_store_load_us", "us"}, {"serve.phase_persist_us", "us"},
	{"cast.run_vertex_us", "us"}, {"cast.run_edge_us", "us"}, {"cast.run_faulted_us", "us"},
	{"cast.ns_per_delivery", "ns"}, {"cast.run_allocs", "count"}, {"cast.build_ms", "ms"},
	{"cast.msgs_per_round", "msgs/round"},
	{"cds.pack_ms", "ms"},
	{"stp.pack_ms", "ms"}, {"flow.stoer_wagner_ms", "ms"}, {"stp.iterations", "count"}, {"stp.exact_stop_share", "ratio"},
	{"graph.build_us", "us"},
	{"snap.encode_ms", "ms"}, {"snap.save_ms", "ms"}, {"snap.load_ms", "ms"}, {"snap.verify_ms", "ms"}, {"snap.bytes", "bytes"},
	{"cdsdist.pack_ms", "ms"}, {"stpdist.pack_ms", "ms"},
	{"sim.ns_per_node_round", "ns"}, {"sim.messages_per_pack", "msgs"}, {"sim.allocs_per_round", "count"},
	{"sim.rounds_per_pack", "rounds"},
	{"cdsdist.speedup_vs_1_worker", "x"}, {"stpdist.speedup_vs_1_worker", "x"},
	{"runtime.alloc_bytes_per_op", "bytes"}, {"runtime.gc_cycles_per_op", "count"},
	{"trace.overhead_ratio", "x"},
}

// reportLayers reduces the spans to the per-layer metrics: medians of
// timings, means of counts, and ratios of sums.
func (r *run) reportLayers(sp *spans) error {
	vals := map[string]float64{}
	for name, xs := range sp.samples {
		vals[name] = median(xs)
	}
	for _, name := range []string{"stp.iterations", "cast.run_allocs", "snap.bytes", "sim.messages_per_pack", "sim.rounds_per_pack", "runtime.alloc_bytes_per_op", "runtime.gc_cycles_per_op"} {
		vals[name] = mean(sp.samples[name])
	}
	s := sp.sums
	vals["stp.exact_stop_share"] = s["stp.exact"] / s["stp.checks"]
	vals["cast.ns_per_delivery"] = s["cast.run_ns"] / s["cast.deliveries"]
	vals["cast.msgs_per_round"] = s["cast.msgs"] / s["cast.rounds"]
	vals["sim.ns_per_node_round"] = s["sim.ns"] / s["sim.node_rounds"]
	vals["sim.allocs_per_round"] = s["sim.allocs"] / s["sim.raw_rounds"]
	vals["cdsdist.speedup_vs_1_worker"] = s["cdsdist.ns_w1"] / s["cdsdist.ns_w0"]
	vals["stpdist.speedup_vs_1_worker"] = s["stpdist.ns_w1"] / s["stpdist.ns_w0"]
	vals["serve.residual_us"] = vals["serve.http_us"] - (vals["serve.json_us"] + vals["serve.broadcast_us"])
	vals["trace.overhead_ratio"] = vals["trace.op_ms"] / vals["trace.untraced_op_ms"]

	for _, m := range layerMetrics {
		v, ok := vals[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		r.set(m.name, m.unit, v)
	}
	r.note("reconcile: serve.http_us %.2f = serve.json_us %.2f + serve.broadcast_us %.2f + serve.residual_us %.2f",
		vals["serve.http_us"], vals["serve.json_us"], vals["serve.broadcast_us"], vals["serve.residual_us"])
	r.note("reconcile: serve.broadcast_us %.2f = cast run (same demands) + serve.overhead_us %.2f; phases registry %.2f, clone %.2f, run %.2f us",
		vals["serve.broadcast_us"], vals["serve.overhead_us"], vals["serve.phase_registry_us"], vals["serve.phase_clone_us"], vals["serve.phase_run_us"])
	r.note("tracing overhead: workload operation p50 %.4f ms traced vs %.4f ms untraced in this process",
		vals["trace.op_ms"], vals["trace.untraced_op_ms"])
	return nil
}
