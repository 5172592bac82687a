package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cast"
	"repro/internal/serve"
	"repro/internal/snap"
)

// broadcast_http: closed-loop single-demand broadcasts against cmd/serve
// over keep-alive loopback connections, spread over a registry of
// graphs whose decompositions the server restored from its snapshot
// store at start-up.

var kinds = []serve.Kind{serve.Dominating, serve.Spanning}

// Message-count levels of a pass, as fractions of the graph's n (the
// first level is a single message).
var msgLevels = []float64{0, 0.125, 0.25, 0.5, 1, 1.5, 2, 3}

const (
	levelReps    = 2  // each (graph, kind, level) appears this often per pass
	faultEvery   = 16 // one request in faultEvery carries a fault plan
	replayEvery  = 32 // one request in replayEvery is sent a second time
	warmRestarts = 5  // timed warm restarts per run; setup_s is their median
)

// bcastReq is one pre-encoded request of a pass with what its checker
// needs.
type bcastReq struct {
	graph    int
	kind     serve.Kind
	path     string
	body     []byte
	messages int
	bound    int // receive-capacity round bound
	faulted  bool
	dupOf    int // index of the request this one repeats, or -1
}

// bcastResp is the part of a broadcast response the checks read.
type bcastResp struct {
	Messages int `json:"messages"`
	Result   struct {
		Rounds     int     `json:"Rounds"`
		Throughput float64 `json:"Throughput"`
	} `json:"result"`
	Fault *struct {
		PairsExpected     int     `json:"pairs_expected"`
		PairsDelivered    int     `json:"pairs_delivered"`
		DeliveredFraction float64 `json:"delivered_fraction"`
	} `json:"fault"`
}

// registry is the broadcast workload's graph set with the ids the
// server gave them.
type registry struct {
	insts []*instance
	ids   []string
}

func (r *run) broadcastRegistry() (*registry, error) {
	insts, err := generate(broadcastRegistry, newRand(r.seed, streamRelabel))
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(insts))
	seen := map[string]bool{}
	for i, in := range insts {
		ids[i] = serve.GraphID(in.G)
		if seen[ids[i]] {
			return nil, fmt.Errorf("registry graph %s repeats an earlier graph", in.Name)
		}
		seen[ids[i]] = true
	}
	return &registry{insts: insts, ids: ids}, nil
}

// broadcastPass builds one pass of requests: every (graph, kind,
// message level) levelReps times with fresh sources and run seeds, a
// seeded 1/faultEvery of them under a fault plan that kills a few edges
// (well under the graph's connectivity), shuffled, followed by a seeded
// 1/replayEvery of them sent again.
func broadcastPass(reg *registry, seed uint64) ([]bcastReq, error) {
	rng := newRand(seed, streamDemands)
	var reqs []bcastReq
	for gi, in := range reg.insts {
		deg := in.degrees()
		for _, k := range kinds {
			for _, lv := range msgLevels {
				for rep := 0; rep < levelReps; rep++ {
					m := max(1, int(lv*float64(in.N)+0.5))
					src := uniformSources(in.N, m, rng)
					body := serve.BroadcastRequest{Kind: k, Sources: src, Seed: rng.Uint64()}
					reqs = append(reqs, bcastReq{
						graph: gi, kind: k, messages: m, bound: receiveBound(deg, src),
						path: "/v1/graphs/" + reg.ids[gi] + "/broadcast", dupOf: -1,
					})
					data, err := json.Marshal(body)
					if err != nil {
						return nil, err
					}
					reqs[len(reqs)-1].body = data
				}
			}
		}
	}
	frng := newRand(seed, streamFaults)
	for _, i := range frng.Perm(len(reqs))[:len(reqs)/faultEvery] {
		q := &reqs[i]
		var body serve.BroadcastRequest
		if err := json.Unmarshal(q.body, &body); err != nil {
			return nil, err
		}
		lambda := reg.insts[q.graph].Lambda
		body.Fault = &cast.FaultPlan{
			Round:       frng.IntN(3),
			RandomEdges: max(1, lambda/3),
			Seed:        frng.Uint64(),
		}
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		q.body, q.faulted = data, true
	}
	orng := newRand(seed, streamOrder)
	orng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	base := len(reqs)
	for _, i := range newRand(seed, streamReplay).Perm(base)[:base/replayEvery] {
		dup := reqs[i]
		dup.dupOf = i
		reqs = append(reqs, dup)
	}
	return reqs, nil
}

// packInto registers every registry graph on s and requests both
// decompositions, returning the sizes the server reports per graph and
// kind. wantCached says whether every decomposition must come from the
// server's cache or store (a warm restart) rather than a packer.
func (r *run) packInto(s *server, reg *registry, wantCached bool) ([][2]float64, error) {
	sizes := make([][2]float64, len(reg.insts))
	for gi, in := range reg.insts {
		var info serve.GraphInfo
		if err := s.postJSON("/v1/graphs", serve.RegisterRequest{N: in.N, Edges: in.Edges}, &info); err != nil {
			return nil, err
		}
		if info.ID != reg.ids[gi] || info.N != in.N || info.M != len(in.Edges) {
			r.checkFailed("register %s: got id=%s n=%d m=%d, want id=%s n=%d m=%d",
				in.Name, info.ID, info.N, info.M, reg.ids[gi], in.N, len(in.Edges))
		}
		for ki, k := range kinds {
			var d serve.DecompInfo
			if err := s.postJSON("/v1/graphs/"+info.ID+"/decomposition", serve.DecomposeRequest{Kind: k}, &d); err != nil {
				return nil, err
			}
			if d.Cached != wantCached {
				r.checkFailed("%s %s decomposition: cached=%v, want %v", in.Name, k, d.Cached, wantCached)
			}
			sizes[gi][ki] = d.Size
		}
	}
	return sizes, nil
}

// checkStore decodes every snapshot in dir and checks each packing of
// the given instances with the independent checkers, and that its size
// is the one the server reported.
func (r *run) checkStore(dir string, insts []*instance, sizes [][2]float64) error {
	byKey := map[string]int{}
	for i, in := range insts {
		byKey[snap.GraphKey(in.G)] = i
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("reading snapshot store: %w", err)
	}
	seen := make([][2]bool, len(insts))
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		sn, err := snap.Decode(data)
		if err != nil {
			r.checkFailed("snapshot %s does not decode: %v", e.Name(), err)
			continue
		}
		gi, ok := byKey[sn.GraphKey()]
		if !ok {
			r.checkFailed("snapshot %s is for a graph the benchmark never sent", e.Name())
			continue
		}
		in := insts[gi]
		trees := make([]wtree, len(sn.Trees))
		for i, t := range sn.Trees {
			trees[i] = fromTree(t.Tree, in.N, t.Weight)
		}
		ki := 0
		if sn.Kind == snap.KindSpanning {
			ki = 1
		}
		size, err := checkInstance(in, ki == 1, trees)
		if err != nil {
			r.checkFailed("%s %s packing: %v", in.Name, sn.Kind, err)
			continue
		}
		seen[gi][ki] = true
		if want := sizes[gi][ki]; math.Abs(size-want) > 1e-9*max(1, want) {
			r.checkFailed("%s %s packing: trees weigh %g, server reported size %g", in.Name, sn.Kind, size, want)
		}
	}
	for gi, s := range seen {
		if !s[0] || !s[1] {
			r.checkFailed("%s: snapshot store lacks a checked packing (dominating %v, spanning %v)", insts[gi].Name, s[0], s[1])
		}
	}
	return nil
}

func (r *run) broadcastHTTP() error {
	reg, err := r.broadcastRegistry()
	if err != nil {
		return err
	}
	reqs, err := broadcastPass(reg, r.seed)
	if err != nil {
		return err
	}
	store := filepath.Join(r.work, "store")

	// Preparation (untimed): pack every graph into the store.
	s, err := startServer(r.serveBin, store, filepath.Join(r.work, "prepare.log"), r.conns)
	if err != nil {
		return err
	}
	sizes, err := r.packInto(s, reg, false)
	if stopErr := s.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping the preparation server: %w", stopErr)
	}
	if err != nil {
		return err
	}
	if err := r.checkStore(store, reg.insts, sizes); err != nil {
		return err
	}

	// Timed warm restarts: start over the store and end once every
	// graph answers from its restored decomposition.
	var e endToEnd
	for i := 0; i < warmRestarts; i++ {
		t0 := time.Now()
		s, err = startServer(r.serveBin, store, filepath.Join(r.work, fmt.Sprintf("serve%d.log", i)), r.conns)
		if err != nil {
			return err
		}
		warm, err := r.packInto(s, reg, true)
		e.setups = append(e.setups, time.Since(t0))
		if err == nil {
			err = r.checkWarm(s, reg, sizes, warm)
		}
		if err != nil || i < warmRestarts-1 {
			if stopErr := s.stop(); err == nil && stopErr != nil {
				err = stopErr
			}
		}
		if err != nil {
			return err
		}
	}
	for gi := range reg.insts {
		e.domSizes = append(e.domSizes, sizes[gi][0])
		e.spanSizes = append(e.spanSizes, sizes[gi][1])
	}

	cpu0, err := s.procCPU()
	if err != nil {
		s.stop()
		return err
	}
	lat, passes, msgsPerRound := r.broadcastLoop(s, reqs)
	cpu1, err := s.procCPU()
	if stopErr := s.stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	e.latencies = lat.samples
	e.measured = lat.wall
	e.cpu = cpu1 - cpu0
	e.peakRSSk = s.maxRSSk
	r.report(&e)
	faulted, replays := 0, 0
	for _, q := range reqs {
		if q.faulted {
			faulted++
		}
		if q.dupOf >= 0 {
			replays++
		}
	}
	r.note("passes=%d of %d requests (%d faulted, %d replays) over %d graphs; msgs_per_round=%.6f over healthy requests",
		passes, len(reqs), faulted, replays, len(reg.insts), msgsPerRound)
	return nil
}

// checkWarm checks a warm restart: the restored sizes are the packed
// ones and the server ran no packer.
func (r *run) checkWarm(s *server, reg *registry, packed, warm [][2]float64) error {
	for gi := range packed {
		if packed[gi] != warm[gi] {
			r.checkFailed("%s: restored sizes %v differ from packed %v", reg.insts[gi].Name, warm[gi], packed[gi])
		}
	}
	st, err := s.stats()
	if err != nil {
		return err
	}
	want := uint64(len(reg.insts) * len(kinds))
	if st.PackComputes != 0 || st.StoreHits != want {
		r.checkFailed("warm restart: pack_computes=%d store_hits=%d, want 0 and %d", st.PackComputes, st.StoreHits, want)
	}
	return nil
}

// timings is a closed loop's per-operation latencies and the wall time
// its requests were in flight.
type timings struct {
	samples []float64
	wall    time.Duration
}

// broadcastLoop sends whole passes of reqs from r.conns keep-alive
// connections until r.seconds have passed, checking every response. It
// returns the latencies, the pass count, and the healthy requests'
// total messages over total rounds.
func (r *run) broadcastLoop(s *server, reqs []bcastReq) (timings, int, float64) {
	type outcome struct {
		lat    float64
		hash   uint64
		status int
		body   []byte
	}
	out := make([]outcome, len(reqs))
	first := make([]uint64, len(reqs))
	var t timings
	var msgs, rounds int64
	start := time.Now()
	passes := 0
	for passes == 0 || time.Since(start) < r.seconds {
		passStart := time.Now()
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < r.conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(reqs) {
						return
					}
					t0 := time.Now()
					st, body, err := s.post(reqs[i].path, reqs[i].body)
					lat := ms(time.Since(t0))
					if err != nil {
						st, body = 0, []byte(err.Error())
					}
					h := fnv.New64a()
					h.Write(body)
					out[i] = outcome{lat: lat, hash: h.Sum64(), status: st, body: body}
				}
			}()
		}
		wg.Wait()
		t.wall += time.Since(passStart)
		for i := range reqs {
			q, o := &reqs[i], &out[i]
			r.attempt()
			if o.status != http.StatusOK {
				r.opFailed("broadcast on graph %d: status %d: %s", q.graph, o.status, bytes.TrimSpace(o.body))
				continue
			}
			t.samples = append(t.samples, o.lat)
			if passes == 0 {
				first[i] = o.hash
				var resp bcastResp
				if err := json.Unmarshal(o.body, &resp); err != nil {
					r.checkFailed("broadcast response does not decode: %v", err)
					continue
				}
				r.checkBroadcastResp(q, &resp)
				if !q.faulted {
					msgs += int64(resp.Messages)
					rounds += int64(resp.Result.Rounds)
				}
			} else if o.hash != first[i] {
				r.checkFailed("request %d answered differently in pass %d than in pass 0", i, passes)
			}
			if q.dupOf >= 0 && o.hash != out[q.dupOf].hash {
				r.checkFailed("replayed request %d answered differently from its original", q.dupOf)
			}
		}
		passes++
	}
	return t, passes, float64(msgs) / float64(rounds)
}

func (r *run) checkBroadcastResp(q *bcastReq, resp *bcastResp) {
	if q.faulted {
		if resp.Fault == nil {
			r.checkFailed("faulted request answered without fault accounting")
			return
		}
		if err := checkFaulted(faultOutcome{
			PairsExpected:     resp.Fault.PairsExpected,
			PairsDelivered:    resp.Fault.PairsDelivered,
			DeliveredFraction: resp.Fault.DeliveredFraction,
		}); err != nil {
			r.checkFailed("faulted broadcast on graph %d: %v", q.graph, err)
		}
		return
	}
	if err := checkBroadcast(broadcastOutcome{
		Messages:   resp.Messages,
		Rounds:     resp.Result.Rounds,
		Throughput: resp.Result.Throughput,
	}, q.messages, q.bound); err != nil {
		r.checkFailed("%s broadcast on graph %d: %v", q.kind, q.graph, err)
	}
}
