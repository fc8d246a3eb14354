package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of the program. Parent 0 marks a root (an op, or a
// set-up step). Alloc is the process-wide heap allocation during the
// span, which is the layer's own on the single-goroutine paths.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans and counters in memory; write dumps them when the
// run ends. It is safe for concurrent use: the server's goroutines
// record the wal spans.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	open     map[int32]int // span id -> index in spans
	counters map[string]float64
	next     int32
	op       int32 // the open op span, parent of the layer spans
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.reset()
	return t
}

// reset drops everything recorded during set-up and warm-up except the
// last set-up's recovery span (wal.recover_ms).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var kept []span
	for _, s := range t.spans {
		if s.Name == "wal.Open" {
			kept = append(kept[:0], s) // the last set-up's recovery
		}
	}
	t.spans = kept
	t.open = map[int32]int{}
	t.counters = map[string]float64{}
}

// readRuntime returns the GC cycle count and cumulative heap bytes
// allocated by the process.
func readRuntime() (gc, alloc uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// gcCPUSeconds is the runtime's estimate of the CPU time the process has
// spent on garbage collection, mark assists included.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// The methods below do nothing on a nil tracer (an untraced op), so
// call sites need no branches.

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	_, alloc := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	if name == "op" {
		t.op = t.next
	}
	t.open[t.next] = len(t.spans)
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name,
		Start: time.Since(t.epoch).Nanoseconds(), Alloc: alloc})
	return t.next
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int32) float64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	_, alloc := readRuntime()
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.open[id]
	delete(t.open, id)
	s := &t.spans[i]
	s.End = now
	s.Alloc = alloc - s.Alloc
	return float64(s.End-s.Start) / 1e6
}

// current is the id of the most recently opened op span.
func (t *tracer) current() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.op
}

// add accumulates a counter (derivations, samples, bytes, ...).
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// write dumps spans and counters as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	blob, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// layerTable is the per-layer summary of a traced run.
type layerTable struct {
	ops     float64
	total   map[string]float64 // ms per span name
	self    map[string]float64 // ms per span name, children subtracted
	alloc   map[string]float64 // bytes per span name
	count   map[string]float64
	counter map[string]float64
	spanned float64 // ms per op covered by the ops' direct children
}

// table computes self times and allocations per span name over ops
// traced ops and prints them.
func (t *tracer) table(ops int) *layerTable {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := &layerTable{ops: float64(ops), total: map[string]float64{}, self: map[string]float64{},
		alloc: map[string]float64{}, count: map[string]float64{}, counter: t.counters}
	byID := map[int32]*span{}
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	childMS := map[int32]float64{}
	for _, s := range t.spans {
		if p := byID[s.Parent]; p != nil {
			childMS[s.Parent] += float64(s.End-s.Start) / 1e6
			if p.Name == "op" {
				lt.spanned += float64(s.End-s.Start) / 1e6
			}
		}
	}
	lt.spanned /= lt.ops
	for _, s := range t.spans {
		d := float64(s.End-s.Start) / 1e6
		lt.total[s.Name] += d
		lt.self[s.Name] += d - childMS[s.ID]
		lt.alloc[s.Name] += float64(s.Alloc)
		lt.count[s.Name]++
	}
	names := make([]string, 0, len(lt.total))
	for n := range lt.total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %8s %12s %12s %12s\n", "span", "calls", "total ms/op", "self ms/op", "alloc KB/op")
	for _, n := range names {
		fmt.Printf("%-32s %8.0f %12.3f %12.3f %12.1f\n", n, lt.count[n],
			lt.total[n]/lt.ops, lt.self[n]/lt.ops, lt.alloc[n]/lt.ops/1024)
	}
	cn := make([]string, 0, len(t.counters))
	for n := range t.counters {
		cn = append(cn, n)
	}
	sort.Strings(cn)
	for _, n := range cn {
		fmt.Printf("counter %-24s %14.1f per op\n", n, t.counters[n]/lt.ops)
	}
	return lt
}

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"sqlfront.parse_ms", "ms"},
	{"plan.build_ms", "ms"},
	{"exec.aggregate_ms", "ms"},
	{"exec.derivations", "count"},
	{"exec.candidates", "count"},
	{"exec.alloc_kb", "KB"},
	{"core.measure_ms", "ms"},
	{"core.samples", "count"},
	{"core.rounds", "count"},
	{"core.alloc_kb", "KB"},
	{"wal.insert_ms", "ms"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.bytes_per_row", "B"},
	{"wal.recover_ms", "ms"},
	{"client.insert_ms", "ms"},
	{"client.query_ms", "ms"},
	{"client.first_candidate_ms", "ms"},
	{"wire.response_kb", "KB"},
}

// metric maps a per-layer metric name to its value from the spans and
// counters; per-op figures divide by the number of traced ops.
func (lt *layerTable) metric(name string) float64 {
	perOp := func(ms float64) float64 { return ms / lt.ops }
	switch name {
	case "sqlfront.parse_ms":
		return perOp(lt.total["sqlfront.Parse"])
	case "plan.build_ms":
		return perOp(lt.total["plan.Build"])
	case "exec.aggregate_ms":
		return perOp(lt.total["exec.Aggregate"])
	case "exec.alloc_kb":
		return perOp(lt.alloc["exec.Aggregate"]) / 1024
	case "core.measure_ms":
		return perOp(lt.total["core.MeasureCandidatesStream"])
	case "core.alloc_kb":
		return perOp(lt.alloc["core.MeasureCandidatesStream"]) / 1024
	case "wal.insert_ms":
		return perOp(lt.total["wal.InsertBatch"])
	case "wal.checkpoint_ms":
		return perOp(lt.total["wal.Checkpoint"])
	case "wal.bytes_per_row":
		if lt.counter["wal.rows"] == 0 {
			return 0
		}
		return lt.counter["wal.bytes"] / lt.counter["wal.rows"]
	case "wal.recover_ms":
		return lt.total["wal.Open"]
	case "client.insert_ms":
		return perOp(lt.total["client.Insert"])
	case "client.query_ms":
		return perOp(lt.total["client.MeasureSQLStream"])
	case "wire.response_kb":
		return perOp(lt.counter["wire.response_bytes"]) / 1024
	default: // plain counters: exec.derivations, core.samples, ...
		return perOp(lt.counter[name])
	}
}
