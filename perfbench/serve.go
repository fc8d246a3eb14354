package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wire"
)

const (
	// batchRows is the size of one insert batch of Market rows: one
	// committed batch of BenchmarkInsertDurable, the repository's
	// benchmark of the durable write path.
	batchRows = 4
	// backlogBatches are committed to the WAL and left unreplayed before
	// the data directory is reopened, so set-up includes recovery. It is
	// the backlog BenchmarkReplicaCatchup replays.
	backlogBatches = 50
	// ckptEvery triggers a checkpoint in every ckptEvery-th op, by count,
	// never by a timer. arithdbd checkpoints once a minute by default,
	// which at the nominal 20 ops/s is once per 1200 ops: a 30 s run
	// would see none. One in 100 ops gives a 30 s run six checkpoints and
	// keeps them beyond op_p90_ms, whose ops stay insert + query.
	ckptEvery = 100
	// nullBase keeps the inserted rows' null ids clear of the generated
	// database's.
	nullBase = 1 << 24
)

// serveIngest is one closed-loop client of an arithdbd-style server on
// loopback HTTP, backed by a wal.Store with fsync on. One op inserts a
// batch of Market rows and then streams CompetitiveAdvantage LIMIT 25 at
// the server's default ε and δ: one insert to one query, the mix of
// BenchmarkMixedInsertQuery.
type serveIngest struct {
	dir     string
	opts    core.Options
	store   *wal.Store
	durable *spannedStore
	hs      *http.Server
	served  chan error
	tp      *http.Transport
	bytes   *atomic.Int64 // response body bytes read by the client
	cl      *client.Client
	replay  *core.Engine // the in-process engine check replays queries on
	closed  bool

	market []value.Tuple   // the Market rows the data directory was seeded with
	acked  [][]value.Tuple // every acknowledged batch, backlog included
	// The last op's streamed answer, for check; the next op replaces it.
	cands   []wire.MeasuredCandidate
	done    *wire.Event
	checked int // answers replayed in process
}

// spannedStore is the server's durability layer: the wal.Store, with a
// span around each InsertBatch of a traced op, parented to the client
// call that caused it (parent 0: the op is not traced).
type spannedStore struct {
	*wal.Store
	dir    string
	tr     *tracer
	parent atomic.Int32
}

func (s *spannedStore) InsertBatch(rel string, tuples []value.Tuple) error {
	parent := s.parent.Load()
	if parent == 0 {
		return s.Store.InsertBatch(rel, tuples)
	}
	before := walSize(s.dir)
	id := s.tr.begin("wal.InsertBatch", parent)
	err := s.Store.InsertBatch(rel, tuples)
	s.tr.end(id)
	s.tr.add("wal.bytes", float64(walSize(s.dir)-before))
	s.tr.add("wal.rows", float64(len(tuples)))
	return err
}

func walSize(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// countingBody counts the response bytes the client reads.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, t.n}
	}
	return resp, err
}

// ingestConfig is the database the data directory is seeded with: the
// sales database at a quarter of the Figure-1 scale. Its generator seed
// is fixed (2020, as in bench_test.go), and so are the inserted batches;
// --seed drives the engine's sampling. The work of an op hinges on the
// constraints of the 25 kept candidates, which the data decides. With a
// base database per seed, op_p50_ms differed by 2.5x between seeds; with
// batches per seed, by 1.5x (seed 3 read 29–34 ms, seed 4 43–48 ms).
func ingestConfig() datagen.Config {
	return datagen.Config{
		Seed: 2020, Products: 5000, Orders: 4000, Market: 1000, Segments: 500,
		NullRate: 0.1, MarketNullRate: 0.5,
	}
}

// marketBatch is insert batch number b: Market rows over the existing
// segments, each numeric cell a fresh null with probability 0.5 (as in
// datagen), a pure function of b.
func marketBatch(b int) []value.Tuple {
	cfg := ingestConfig()
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(b)))
	rows := make([]value.Tuple, batchRows)
	for j := range rows {
		cell := func(c int, gen func() float64) value.Value {
			if rng.Float64() < cfg.MarketNullRate {
				return value.NullNum(nullBase + b*2*batchRows + 2*j + c)
			}
			return value.Num(gen())
		}
		seg := value.Base(fmt.Sprintf("seg%d", rng.Intn(cfg.Segments)))
		rrp := cell(0, func() float64 { return 1 + 199*rng.Float64() })
		dis := cell(1, func() float64 { return 0.5 + 0.5*rng.Float64() })
		rows[j] = value.Tuple{seg, rrp, dis}
	}
	return rows
}

// buildServeIngest seeds a data directory, commits a WAL backlog, closes
// it, reopens it (recovery), and starts the server and the client.
func buildServeIngest(seed int64, outDir string, tr *tracer) (instance, error) {
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("serve-ingest-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	gen, err := datagen.Generate(ingestConfig())
	if err != nil {
		return nil, err
	}
	// NoAdaptive: the race's sample spend on this query ranged from 31k
	// to 136k samples per op with the seed and the batches inserted so
	// far, which put serve-ingest's spread over its bounds; race-wide
	// measures the race.
	w := &serveIngest{dir: dir, market: gen.Tuples("Market"),
		opts: core.Options{Seed: seed, Workers: 1, PoolWorkers: 1, NoAdaptive: true}}
	st, err := wal.Open(dir, wal.Options{Seed: func() (*db.Database, error) { return gen, nil }})
	if err != nil {
		return nil, err
	}
	for b := 0; b < backlogBatches; b++ {
		rows := marketBatch(b)
		if err := st.InsertBatch("Market", rows); err != nil {
			st.Close()
			return nil, err
		}
		w.acked = append(w.acked, rows)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	id := tr.begin("wal.Open", 0)
	w.store, err = wal.Open(dir, wal.Options{})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if err := w.sameRows(w.store.DB()); err != nil {
		w.store.Close()
		return nil, fmt.Errorf("recovery: %w", err)
	}
	w.durable = &spannedStore{Store: w.store, dir: dir, tr: tr}
	srv, err := server.New(server.Config{
		DB: w.store.DB(), Durable: w.durable, MaxInflight: 1, Engine: w.opts,
	})
	if err != nil {
		w.store.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.store.Close()
		return nil, err
	}
	w.hs = &http.Server{Handler: srv}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.bytes = new(atomic.Int64)
	w.tp = &http.Transport{MaxIdleConnsPerHost: 2}
	w.cl = client.NewWith("http://"+ln.Addr().String(), &http.Client{Transport: countingTransport{w.tp, w.bytes}})
	return w, nil
}

// batchOf is the batch op i inserts; the warm-up op is -1.
func batchOf(i int) int { return backlogBatches + 1 + i }

func (w *serveIngest) op(i int, tr *tracer) error {
	ctx := context.Background()
	parent := tr.current()
	rows := marketBatch(batchOf(i))
	bytes0 := w.bytes.Load()

	id := tr.begin("client.Insert", parent)
	w.durable.parent.Store(id)
	resp, err := w.cl.Insert(ctx, "Market", rows)
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.Inserted != len(rows) {
		return fmt.Errorf("insert acknowledged %d of %d rows", resp.Inserted, len(rows))
	}
	w.acked = append(w.acked, rows)

	if i >= 0 && (i+1)%ckptEvery == 0 {
		id := tr.begin("wal.Checkpoint", parent)
		err := w.store.Checkpoint()
		tr.end(id)
		if err != nil {
			return err
		}
	}

	w.cands, w.done = nil, nil
	var cands []wire.MeasuredCandidate
	first := -1.0
	id = tr.begin("client.MeasureSQLStream", parent)
	t0 := time.Now()
	done, err := w.cl.MeasureSQLStream(ctx, datagen.CompetitiveAdvantage, 0, 0, func(ev wire.Event) error {
		if first < 0 {
			first = msSince(t0)
		}
		cands = append(cands, *ev.Candidate)
		return nil
	})
	tr.end(id)
	if err != nil {
		return err
	}
	tr.add("client.first_candidate_ms", first)
	tr.add("wire.response_bytes", float64(w.bytes.Load()-bytes0))
	tr.add("wire.null_ids", float64(len(done.NullIDs)))
	w.cands, w.done = cands, done
	return nil
}

// check replays op i's query in process on a snapshot of the store, which
// no write has changed since the server answered. The answers must agree
// bit for bit. On a traced op the replay's spans give the server-side
// layers. The snapshot is dropped before the next op.
func (w *serveIngest) check(i int, tr *tracer) error {
	if w.done == nil {
		return fmt.Errorf("op %d: no answer to check", i)
	}
	if w.replay == nil {
		w.replay = core.New(w.opts)
	}
	want, info, _, err := measureDecomposed(w.replay, w.store.DB().Snapshot(), datagen.CompetitiveAdvantage, tr, 0)
	if err != nil {
		return fmt.Errorf("op %d replay: %w", i, err)
	}
	if err := checkMeasures(want); err != nil {
		return fmt.Errorf("op %d: %w", i, err)
	}
	if err := sameServed(want, w.cands); err != nil {
		return fmt.Errorf("op %d: streamed answer differs from the in-process one: %w", i, err)
	}
	if w.done.Count != info.Count || w.done.Derivations != info.Derivations {
		return fmt.Errorf("op %d: done event count %d derivations %d, in process %d and %d",
			i, w.done.Count, w.done.Derivations, info.Count, info.Derivations)
	}
	w.checked++
	return nil
}

// verify stops the server and reopens the data directory.
func (w *serveIngest) verify() error {
	if err := checkConstantTrue(w.opts); err != nil {
		return err
	}
	if err := w.stop(); err != nil {
		return err
	}
	st, err := wal.Open(w.dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer st.Close()
	if err := w.sameRows(st.DB()); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	fmt.Printf("check: %d streamed answers match in-process replays; reopen recovered %d acknowledged batches\n",
		w.checked, len(w.acked))
	return nil
}

// sameServed compares the wire answer with the in-process one, bit for
// bit.
func sameServed(want []core.MeasuredCandidate, got []wire.MeasuredCandidate) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		t, err := wire.ToTuple(got[i].Tuple)
		if err != nil {
			return err
		}
		if !t.Equal(want[i].Tuple) {
			return fmt.Errorf("candidate %d: tuple %v, want %v", i, t, want[i].Tuple)
		}
		a, b := wire.FromResult(want[i].Measure), got[i].Measure
		if a != b || math.Float64bits(a.Value) != math.Float64bits(b.Value) {
			return fmt.Errorf("candidate %d: measure %+v, want %+v", i, b, a)
		}
	}
	return nil
}

// sameRows requires d's Market relation to be the seeded rows followed by
// every acknowledged batch, in order.
func (w *serveIngest) sameRows(d *db.Database) error {
	want := len(w.market)
	for _, b := range w.acked {
		want += len(b)
	}
	if n := d.Len("Market"); n != want {
		return fmt.Errorf("%d Market rows, want %d", n, want)
	}
	r := 0
	for _, t := range w.market {
		if !d.Row("Market", r).Equal(t) {
			return fmt.Errorf("Market row %d differs", r)
		}
		r++
	}
	for _, b := range w.acked {
		for _, t := range b {
			if !d.Row("Market", r).Equal(t) {
				return fmt.Errorf("Market row %d differs from the acknowledged insert", r)
			}
			r++
		}
	}
	return nil
}

// stop shuts the server down and closes the store; it waits for the
// serving goroutine to return.
func (w *serveIngest) stop() error {
	if w.closed {
		return nil
	}
	w.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.tp.CloseIdleConnections()
	if cerr := w.store.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *serveIngest) close() error {
	err := w.stop()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}
