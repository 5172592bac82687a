// Command e2ebench is the repository's end-to-end benchmark. It drives
// the program the way its users do — the cmd/serve binary over loopback
// HTTP for serving and decomposing, the library's distributed packers
// for simulation — checks every output against properties the paper's
// method guarantees, and prints one JSON result line.
//
//	e2ebench -serve BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1
//
// run.sh in this directory builds this command and cmd/serve from the
// checkout and runs it; README.md describes the workloads and metrics.
//
// With --trace 0 the run measures the workload end to end, with no
// benchmark-side timing inside an operation. With --trace 1 it instead
// replays the same seeded inputs in process and times each layer's
// public functions (see replay.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark invocation's settings and accounting.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	serveBin string
	work     string
	conns    int // client connections and busy client goroutines: nproc

	mu        sync.Mutex // guards attempted, failed, checkErrs
	attempted int
	failed    int
	checkErrs []string
	metrics   map[string]metric
	notes     []string
}

// checkFailed records an output that violates a property the method
// guarantees; the run then reports correct=false.
func (r *run) checkFailed(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checkErrs) < 20 {
		fmt.Fprintln(os.Stderr, "check failed:", msg)
	}
	r.checkErrs = append(r.checkErrs, msg)
}

// opFailed records an operation the program refused or errored on.
func (r *run) opFailed(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(os.Stderr, "operation failed: "+format+"\n", args...)
	}
}

func (r *run) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "broadcast_http, decompose_cold or simulate_dist")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "minimum measuring time; whole passes of the workload run until it has passed")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	serveBin := flag.String("serve", "", "cmd/serve binary")
	work := flag.String("work", "", "scratch directory (removed on exit)")
	flag.Parse()

	if *serveBin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -serve BIN -work DIR --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		serveBin: *serveBin,
		work:     filepath.Join(*work, "run-"+strconv.Itoa(os.Getpid())),
		conns:    runtime.NumCPU(),
		metrics:  map[string]metric{},
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	err := r.dispatch(*trace == 1)
	os.RemoveAll(r.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	r.print(*trace == 1)
}

func (r *run) dispatch(traced bool) error {
	var ws map[string]func() error
	if traced {
		ws = map[string]func() error{
			"broadcast_http": r.replayBroadcast,
			"decompose_cold": r.replayDecompose,
			"simulate_dist":  r.replaySimulate,
		}
	} else {
		ws = map[string]func() error{
			"broadcast_http": r.broadcastHTTP,
			"decompose_cold": r.decomposeCold,
			"simulate_dist":  r.simulateDist,
		}
	}
	f, ok := ws[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	return f()
}

// print writes the run accounting and then the result line, which is
// always the last line of standard output.
func (r *run) print(traced bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mode := "end-to-end"
	if traced {
		mode = "traced replay"
	}
	fmt.Printf("# %s %s seed=%d: attempted=%d failed=%d check_failures=%d\n",
		r.workload, mode, r.seed, r.attempted, r.failed, len(r.checkErrs))
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s sim_default_workers=%d (runtime.NumCPU)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	out, err := json.Marshal(result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd gathers the figures every workload reports with --trace 0.
type endToEnd struct {
	setups    []time.Duration
	latencies []float64     // per operation, ms
	measured  time.Duration // wall time while operations ran
	cpu       time.Duration
	peakRSSk  int64
	domSizes  []float64
	spanSizes []float64
}

// report turns the gathered figures into the end-to-end metrics.
func (r *run) report(e *endToEnd) {
	setups := make([]float64, len(e.setups))
	for i, d := range e.setups {
		setups[i] = d.Seconds()
	}
	n := len(e.latencies)
	r.set("setup_s", "s", median(setups))
	r.set("p50_ms", "ms", quantile(e.latencies, 0.50))
	r.set("p90_ms", "ms", quantile(e.latencies, 0.90))
	r.set("throughput_per_s", "1/s", float64(n)/e.measured.Seconds())
	r.set("cpu_ms_per_op", "ms", ms(e.cpu)/float64(n))
	r.set("peak_rss_mb", "MiB", float64(e.peakRSSk)/1024)
	r.set("dominating_size", "trees", mean(e.domSizes))
	r.set("spanning_size", "trees", mean(e.spanSizes))
	r.note("samples: setup_s median of %d set-ups; p50_ms and p90_ms from %d operations (%d beyond p90)",
		len(setups), n, n-int(math.Ceil(0.9*float64(n))))
	if n < 100 {
		r.note("WARNING: fewer than 100 operations, p90_ms has under 10 samples beyond it")
	}
	if n >= 1000 {
		r.note("reference only, not gated: p99_ms=%.4f", quantile(e.latencies, 0.99))
	}
}
