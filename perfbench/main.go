// Command perfbench is the repository's end-to-end benchmark. It drives
// the public functions of sqlfront, plan, exec, core, wal, server and
// client from outside the program, on three workloads built from a seed:
//
//	race-wide     UnfairDiscount LIMIT 25 under the adaptive top-k race
//	fixed-fig1    the three Figure-1 queries on the fixed-budget path
//	serve-ingest  HTTP insert + streamed query against a durable server
//
// Every op of a workload is the same kind of work, one op runs at a time
// (one closed-loop client, Workers = PoolWorkers = MaxInflight = 1), and a
// run times a fixed number of ops derived from -seconds, after a warm-up
// op and a forced GC. The last line of standard output is one JSON
// object: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1. See README.md for the workload make-up and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a run builds its workload; setup_s is
// the median. Builds of race-wide within one run took from 27 to 61 ms,
// with the GC cycles that fell into them.
const setupRounds = 21

// minOps keeps at least ten samples beyond op_p90_ms.
const minOps = 100

// workload is one benchmark workload. build makes a fresh instance from
// the seed (timed as set-up); opsPerSec is the nominal rate that turns
// -seconds into the fixed op count of a run.
type workload struct {
	name      string
	opsPerSec float64
	build     func(seed int64, outDir string, tr *tracer) (instance, error)
}

// checkOps untimed ops follow the timed phase of an untraced run; each is
// checked on the spot (see instance.check), so no output a check needs
// outlives its op while ops are timed.
const checkOps = 3

// instance is a built workload. op runs op i; with a non-nil tracer it
// takes the decomposed, spanned path. check checks the output of the op
// just run, before another op changes any state; the runners call it
// outside every timing window: after the warm-up op, after each traced
// op, and after each check op. verify runs after the last op and checks
// what the whole run left behind. close releases everything.
type instance interface {
	op(i int, tr *tracer) error
	check(i int, tr *tracer) error
	verify() error
	close() error
}

var workloads = []workload{
	{name: "race-wide", opsPerSec: 8, build: buildRaceWide},
	{name: "fixed-fig1", opsPerSec: 4, build: buildFixedFig1},
	{name: "serve-ingest", opsPerSec: 20, build: buildServeIngest},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: race-wide, fixed-fig1 or serve-ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "nominal run length; fixes the op count")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer variant")
	outDir := flag.String("out-dir", ".bench_build", "directory for data dirs and trace files")
	flag.Parse()

	// One P: the op, the GC and the server's goroutines share one core.
	// With two, GC and loopback wake-ups depended on the second vCPU of
	// a shared 2-core host, and wall time varied far more than CPU time.
	runtime.GOMAXPROCS(1)

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload race-wide|fixed-fig1|serve-ingest --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ops := max(minOps, int(math.Round(float64(*seconds)*wl.opsPerSec)))
	printHost()
	fmt.Printf("workload %s seed %d ops %d trace %d\n", wl.name, *seed, ops, *trace)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(wl, *seed, ops, *outDir)
	} else {
		res, err = runPlain(wl, *seed, ops, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// printHost records what the figures were measured on.
func printHost() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Printf("host nproc %d GOMAXPROCS %d cpu %q go %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// setUp builds the workload setupRounds times and keeps the last
// instance; it returns the median build time in seconds.
func setUp(wl *workload, seed int64, outDir string, tr *tracer) (instance, float64, error) {
	var inst instance
	times := make([]float64, 0, setupRounds)
	for r := 0; r < setupRounds; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
			inst = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		inst, err = wl.build(seed, outDir, tr)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return inst, median(times), nil
}

// warm runs and checks the untimed warm-up op and settles the heap
// before timing.
func warm(inst instance) error {
	if err := inst.op(-1, nil); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	if err := inst.check(-1, nil); err != nil {
		return fmt.Errorf("warm-up op: %w", err)
	}
	runtime.GC()
	return nil
}

// finish runs the check ops and the final checks and closes the
// instance; it reports whether every check passed.
func finish(inst instance, ops int) bool {
	correct := true
	fail := func(what string, err error) {
		correct = false
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	}
	for i := ops; i < ops+checkOps; i++ {
		if err := inst.op(i, nil); err != nil {
			fail(fmt.Sprintf("check op %d", i), err)
		} else if err := inst.check(i, nil); err != nil {
			fail("check failed", err)
		}
	}
	if err := inst.verify(); err != nil {
		fail("check failed", err)
	}
	if err := inst.close(); err != nil {
		fail("close", err)
	}
	return correct
}

// runPlain is the untraced run that yields the end-to-end metrics.
func runPlain(wl *workload, seed int64, ops int, outDir string) (*result, error) {
	inst, setupS, err := setUp(wl, seed, outDir, nil)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := warm(inst); err != nil {
		return nil, err
	}
	lat := make([]float64, 0, ops)
	rssS := make([]float64, 0, ops)
	failed := 0
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		err := inst.op(i, nil)
		lat = append(lat, msSince(t0))
		rssS = append(rssS, rssNowMB())
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
		}
	}
	wall := time.Since(start).Seconds()
	cpu := cpuTime() - cpu0
	// The median of per-op samples, not the peak: the peak depends on
	// where GC cycles fall and moved by a quarter between runs of one seed.
	rss := median(rssS)
	correct := finish(inst, ops)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	fmt.Printf("ops %d failed %d p50 %.3f ms p90 %.3f ms wall %.3f s cpu %.3f s setup %.3f s rss %.1f MB\n",
		ops, failed, p50, p90, wall, cpu, setupS, rss)
	return &result{
		Correct:   correct,
		Attempted: ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"op_p50_ms":     {p50, "ms"},
			"op_p90_ms":     {p90, "ms"},
			"ops_per_s":     {float64(ops) / wall, "1/s"},
			"cpu_ms_per_op": {cpu * 1000 / float64(ops), "ms"},
			"rss_mb":        {rss, "MB"},
			"setup_s":       {setupS, "s"},
		},
	}, nil
}

// runTraced alternates untraced and traced ops (even and odd op
// indices), so both halves see the same state and the difference of
// their medians is the tracing overhead. Each traced op is checked right
// after its span closes. Per-layer metrics are per traced op.
func runTraced(wl *workload, seed int64, ops int, outDir string) (*result, error) {
	tr := newTracer()
	inst, _, err := setUp(wl, seed, outDir, tr)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	if err := warm(inst); err != nil {
		return nil, err
	}
	tr.reset() // keep only the last set-up's spans and the timed ops
	var plain, traced []float64
	failed := 0
	var gcs, allocs uint64
	var gcCPU float64
	var checkErr error
	for i := 0; i < ops; i++ {
		var err error
		if i%2 == 0 {
			t0 := time.Now()
			err = inst.op(i, nil)
			plain = append(plain, msSince(t0))
		} else {
			g0, a0 := readRuntime()
			c0 := gcCPUSeconds()
			id := tr.begin("op", 0)
			err = inst.op(i, tr)
			traced = append(traced, tr.end(id))
			g1, a1 := readRuntime()
			gcs, allocs = gcs+g1-g0, allocs+a1-a0
			gcCPU += gcCPUSeconds() - c0
			if err == nil {
				checkErr = errors.Join(checkErr, inst.check(i, tr))
			}
		}
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", i, err)
		}
	}
	correct := finish(inst, ops)
	if checkErr != nil {
		correct = false
		fmt.Fprintln(os.Stderr, "check failed:", checkErr)
	}
	n := float64(len(traced))
	layers := tr.table(len(traced))
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", outDir, wl.name, seed)
	if err := tr.write(path); err != nil {
		return nil, err
	}
	plainP50, tracedP50 := quantile(plain, 0.5), quantile(traced, 0.5)
	fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), path)
	fmt.Printf("trace: untraced op p50 %.3f ms, traced op p50 %.3f ms, overhead %.3f ms\n",
		plainP50, tracedP50, tracedP50-plainP50)
	fmt.Printf("trace: layer spans cover %.1f%% of the traced op and %.1f%% of the untraced op\n",
		100*layers.spanned/mean(traced), 100*layers.spanned/mean(plain))

	m := map[string]metric{}
	for _, name := range perLayer {
		m[name.name] = metric{layers.metric(name.name), name.unit}
	}
	m["runtime.gc_cycles"] = metric{float64(gcs) / n, "count"}
	m["runtime.alloc_mb"] = metric{float64(allocs) / n / (1 << 20), "MB"}
	m["runtime.gc_cpu_ms"] = metric{gcCPU * 1000 / n, "ms"}
	m["trace.overhead_ms"] = metric{tracedP50 - plainP50, "ms"}
	return &result{Correct: correct, Attempted: ops, Failed: failed, Metrics: m}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// cpuTime is the process's user+system CPU time in seconds, GC and
// every goroutine included.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rssNowMB is the process's current resident set size (Linux).
func rssNowMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, res float64
	if _, err := fmt.Sscan(string(b), &size, &res); err != nil {
		return 0
	}
	return res * float64(os.Getpagesize()) / (1 << 20)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
