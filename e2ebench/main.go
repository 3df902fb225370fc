// Command e2ebench is aidb's end-to-end benchmark. One process starts
// a fresh core.DB, loads a workload's tables through SQL, serves it
// with serve.Server on loopback TCP, and drives it from two
// line-protocol sessions in a closed loop (each session waits for its
// reply before sending the next statement). Every reply is checked
// against a model built from the generated data.
//
//	e2ebench --workload point-index --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// spends half the time untraced (counter deltas, untraced throughput)
// and half traced (per-layer spans, written under .bench_build/spans),
// and prints the per-layer metrics. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/core"
	"aidb/internal/obs"
	"aidb/internal/serve"
)

// config is one benchmark run.
type config struct {
	w       *workload
	seed    int64
	dur     time.Duration // measured time (split in two when traced)
	warmup  time.Duration
	trace   bool
	setups  int    // most set-ups whose median is setup_s
	spans   string // JSON-lines span file for the traced run ("" = none)
	verbose io.Writer
}

// metric is one reported number with its unit and the sample count
// behind it (1 for a single measurement).
type metric struct {
	value   float64
	unit    string
	samples int
	note    string
}

// result is what one run measured and verified.
type result struct {
	metrics   map[string]metric
	order     []string
	correct   bool
	attempted int64
	failed    int64
}

func (r *result) put(name string, m metric) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = m
}

func main() {
	name := flag.String("workload", "", "workload: point-scan, point-index, read-write or scan-agg")
	seed := flag.Int64("seed", 1, "seed for the data and the statement streams")
	seconds := flag.Float64("seconds", 10, "seconds measured")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		w:       w,
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Second,
		trace:   *trace == 1,
		setups:  7,
		verbose: os.Stdout,
	}
	if cfg.trace {
		cfg.setups = 1
		cfg.spans = filepath.Join(".bench_build", "spans", w.name+".jsonl")
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func (r *result) json() (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for name, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.value)
		}
		ms[name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	return string(b), err
}

// setupDB opens a fresh database and loads the dataset through SQL.
func setupDB(d *dataset, seed int64) (*core.DB, error) {
	db := core.OpenSeeded(uint64(seed))
	// Two morsel workers, matching the two CPUs the benchmark is sized
	// for, whatever the host reports.
	db.SetParallelism(2)
	sess := db.NewSession()
	defer sess.Close()
	for _, q := range d.loadScript() {
		if _, err := sess.Exec(q); err != nil {
			return nil, fmt.Errorf("load: %.60s: %w", q, err)
		}
	}
	return db, nil
}

// setupBudget bounds the time spent on set-ups beyond the third.
const setupBudget = 3 * time.Second

// phase is one closed-loop window over both sessions.
type phase struct {
	start    time.Time // timed window start
	t        tally
	before   map[string]float64
	after    map[string]float64
	gcPause  time.Duration
	counterS float64 // seconds between the two counter snapshots
}

func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

// slices is how many equal parts of the timed window the throughput
// and median latency are computed over; the reported value is the
// median across parts, so a stall that hits one part moves it little.
const slices = 10

// sliced returns, for each slice of the timed window, the correct
// statements completed per second and the median wire latency of the
// statements sent in it. A statement counts towards each slice in
// proportion to the part of its round trip that falls in the slice, so
// slices much shorter than a statement are not quantized.
func (p *phase) sliced(dur time.Duration) (thr, p50 []float64) {
	width := dur.Nanoseconds() / slices
	for k := int64(0); k < slices; k++ {
		a, b := k*width, (k+1)*width
		var done float64
		var lats []int64
		for i, sent := range p.t.sentAt {
			end := sent + p.t.lat[i]
			if p.t.ok[i] && end > a && sent < b {
				done += float64(min(end, b)-max(sent, a)) / float64(max(p.t.lat[i], 1))
			}
			if sent >= a && sent < b {
				lats = append(lats, p.t.lat[i])
			}
		}
		thr = append(thr, done/(float64(width)/1e9))
		if len(lats) > 0 {
			p50 = append(p50, pct(lats, 50))
		}
	}
	return thr, p50
}

// slicedTail is the p-th percentile latency as the median over slices
// of the timed window, using as many slices (at most ten) as leave ten
// samples beyond the percentile in each; it returns the slice count.
func (p *phase) slicedTail(dur time.Duration, pctl float64) (float64, int) {
	k := int(float64(len(p.t.lat)) * (100 - pctl) / 100 / 10)
	k = max(1, min(slices, k))
	width := dur.Nanoseconds() / int64(k)
	parts := make([][]int64, k)
	for i, sent := range p.t.sentAt {
		j := min(int(sent/width), k-1)
		parts[j] = append(parts[j], p.t.lat[i])
	}
	var tails []float64
	for _, part := range parts {
		if len(part) > 0 {
			tails = append(tails, pct(part, pctl))
		}
	}
	return median(tails), k
}

// runPhase dials the two sessions, sends each its PREPARE, then runs
// both closed loops for warm + dur, snapshotting the registry at the
// start and end of the timed window.
func runPhase(addr string, cfg config, reg *obs.Registry, streams []*stream, chk *checker, warm, dur time.Duration, hooks []stmtHook) (*phase, error) {
	conns := make([]*conn, len(streams))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.close()
			}
		}
	}()
	for i := range conns {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		conns[i] = c
		if cfg.w.prepare != "" {
			rep, err := c.roundTrip(cfg.w.prepare)
			if err != nil {
				return nil, err
			}
			if rep.err != "" {
				return nil, fmt.Errorf("%s: %s", cfg.w.prepare, rep.err)
			}
		}
	}
	start := time.Now()
	win := window{start.Add(warm), start.Add(warm + dur)}
	tallies := make([]tally, len(conns))
	errs := make(chan error, len(conns))
	for i := range conns {
		go func(i int) {
			var hook stmtHook
			if hooks != nil {
				hook = hooks[i]
			}
			errs <- runLoop(conns[i], streams[i], chk, win, &tallies[i], hook)
		}(i)
	}
	p := &phase{start: win.start}
	time.Sleep(time.Until(win.start))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	p.before = reg.Snapshot()
	t0 := time.Now()
	var firstErr error
	for range conns {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.after = reg.Snapshot()
	p.counterS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	if firstErr != nil {
		return nil, firstErr
	}
	for i := range tallies {
		p.t.merge(&tallies[i])
	}
	return p, nil
}

func run(cfg config) (*result, error) {
	w := cfg.w
	d := genDataset(cfg.seed, w.events)
	var setupS []float64
	var db *core.DB
	// At least three set-ups (one when traced), then more while they
	// have taken under setupBudget in total.
	var spent time.Duration
	for i := 0; i < cfg.setups && (i < 3 || spent < setupBudget); i++ {
		db = nil
		runtime.GC()
		t0 := time.Now()
		ndb, err := setupDB(d, cfg.seed)
		if err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setupS = append(setupS, time.Since(t0).Seconds())
		db = ndb
	}
	// Buffer-pool warm-up: one full scan of every table before timing.
	for _, t := range []string{"accounts", "events"} {
		if t == "events" && !w.events {
			continue
		}
		if _, err := db.Exec("SELECT COUNT(*) FROM " + t); err != nil {
			return nil, err
		}
	}
	accounts, err := db.Catalog().Table("accounts")
	if err != nil {
		return nil, err
	}
	pagesStart := len(accounts.PageIDs())

	srv, err := serve.Listen(db, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.Close()
		}
	}()
	chk := newChecker(w, d)
	streams := []*stream{newStream(w, d, cfg.seed, 0), newStream(w, d, cfg.seed, 1)}
	reg := db.Metrics()

	res := &result{metrics: map[string]metric{}}
	var untraced *phase
	var tr *tracedRun
	if !cfg.trace {
		untraced, err = runPhase(srv.Addr(), cfg, reg, streams, chk, cfg.warmup, cfg.dur, nil)
		if err != nil {
			return nil, err
		}
	} else {
		untraced, err = runPhase(srv.Addr(), cfg, reg, streams, chk, cfg.warmup, cfg.dur/2, nil)
		if err != nil {
			return nil, err
		}
		tr, err = runTraced(db, cfg, reg, streams, chk)
		if err != nil {
			return nil, err
		}
	}
	all := untraced.t
	if tr != nil {
		all.merge(&tr.phase.t)
	}

	v, err := verifyEnd(db, d, chk)
	if err != nil {
		return nil, err
	}
	pagesEnd := len(accounts.PageIDs())
	rowsEnd := accounts.NumRows()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapWithDB := ms.HeapAlloc

	res.attempted = all.attempted
	res.failed = all.errReply + all.wrong + v.violations()
	res.correct = res.failed == 0
	errRatio := float64(res.failed) / float64(max(all.attempted, 1))

	out := cfg.verbose
	fmt.Fprintf(out, "workload %s seed %d: %s\n", w.name, cfg.seed, w.why)
	fmt.Fprintf(out, "  roadmap: %s\n", w.roadmap)
	if w.unlisted != "" {
		fmt.Fprintf(out, "  not in BENCHMARK.json: %s\n", w.unlisted)
	}
	fmt.Fprintf(out, "  sessions 2, closed loop; attempted %d (warm-up included), ERR replies %d, wrong replies %d, end-state violations %d\n",
		all.attempted, all.errReply, all.wrong, v.violations())
	if w.name == "read-write" {
		fmt.Fprintf(out, "  read-write end state: missing increments %d, unacknowledged increments %d, duplicate or missing rows %d, SUM/COUNT mismatches %d\n",
			v.missing, v.extra, v.rowFaults, v.sumFaults)
	}
	fmt.Fprintf(out, "  accounts heap pages: %d at start, %d at end (%d live rows)\n", pagesStart, pagesEnd, rowsEnd)
	if all.firstBad != "" {
		fmt.Fprintf(out, "  first failure: %s\n", all.firstBad)
	}

	if !cfg.trace {
		p := untraced
		tail := w.tailPct
		res.put("setup_s", metric{median(setupS), "s", len(setupS), "median of the set-ups (SQL load + CREATE INDEX)"})
		thr, p50 := p.sliced(cfg.dur)
		res.put("throughput_stmt_s", metric{median(thr), "1/s", len(p.t.lat), fmt.Sprintf("correct statements per second, median of %d slices", len(thr))})
		res.put("latency_p50_ms", metric{median(p50) / 1e6, "ms", len(p.t.lat), fmt.Sprintf("wire round trip, median of %d slice medians", len(p50))})
		tailV, tailK := p.slicedTail(cfg.dur, tail)
		res.put("latency_tail_ms", metric{tailV / 1e6, "ms", len(p.t.lat), fmt.Sprintf("p%g wire round trip, median of %d slices", tail, tailK)})
		res.put("ok_ratio", metric{1 - errRatio, "ratio", int(all.attempted), "1 - error_ratio"})
		// The database's live heap: the heap after a forced GC with the
		// database reachable, minus the heap once it is dropped. The
		// benchmark's own state is reachable in both and cancels out.
		srv.Close()
		srv, db, accounts, reg = nil, nil, nil, nil
		runtime.GC()
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(chk)
		runtime.KeepAlive(streams)
		runtime.KeepAlive(p)
		runtime.KeepAlive(&all)
		res.put("live_heap_mib", metric{float64(heapWithDB-ms.HeapAlloc) / (1 << 20), "MiB", 1, "heap the database holds after a forced GC at run end"})
		qs := []float64{99}
		if tail != 99 {
			qs = []float64{tail, 99}
		}
		for _, q := range qs {
			fmt.Fprintf(out, "  detail: pooled latency_p%g_ms %.4f ms (%d samples, %d beyond)\n",
				q, pct(p.t.lat, q)/1e6, len(p.t.lat), beyond(len(p.t.lat), q))
		}
		fmt.Fprintf(out, "  detail: error_ratio %.6f (%d of %d)\n", errRatio, res.failed, all.attempted)
		if len(p.t.writeLat) > 0 {
			fmt.Fprintf(out, "  detail: write_latency_p50_ms %.4f ms, write_latency_p99_ms %.4f ms (%d samples, %d beyond p99)\n",
				pct(p.t.writeLat, 50)/1e6, pct(p.t.writeLat, 99)/1e6, len(p.t.writeLat), beyond(len(p.t.writeLat), 99))
		}
	} else {
		if err := tr.report(res, untraced, db, cfg, pagesEnd, rowsEnd); err != nil {
			return nil, err
		}
	}
	for _, name := range res.order {
		m := res.metrics[name]
		fmt.Fprintf(out, "  metric %-36s %14.6f %-6s samples=%-7d %s\n", name, m.value, m.unit, m.samples, m.note)
	}
	return res, nil
}

// endState is what the end-of-run checks found.
type endState struct {
	missing   int64 // acknowledged increments absent from the table
	extra     int64 // increments present that were never acknowledged
	rowFaults int64 // ids with zero or several rows, rows with unknown ids
	sumFaults int64 // SUM(balance) or COUNT(*) disagreeing with the model
}

// violations counts each fault once: a SUM/COUNT mismatch counts only
// when no per-row fault accounts for it.
func (e endState) violations() int64 {
	n := e.missing + e.extra + e.rowFaults
	if n == 0 {
		n = e.sumFaults
	}
	return n
}

// verifyEnd checks the table against the model after the last reply:
// static workloads must leave accounts unchanged; read-write must hold
// every acknowledged UPDATE and INSERT exactly once.
func verifyEnd(db *core.DB, d *dataset, chk *checker) (endState, error) {
	var e endState
	wantSum := d.initialBalanceSum()
	wantCount := int64(numAccounts)
	for id := range chk.acked {
		wantSum += chk.acked[id].Load()
	}
	for _, b := range chk.inserted {
		wantSum += b
	}
	wantCount += int64(len(chk.inserted))
	r, err := db.Exec("SELECT SUM(balance), COUNT(*) FROM accounts")
	if err != nil {
		return e, err
	}
	if len(r.Rows) != 1 || toInt(r.Rows[0][0]) != wantSum || toInt(r.Rows[0][1]) != wantCount {
		e.sumFaults++
	}
	r, err = db.Exec("SELECT id, balance FROM accounts")
	if err != nil {
		return e, err
	}
	type seen struct{ n, bal int64 }
	got := make(map[int64]seen, len(r.Rows))
	for _, row := range r.Rows {
		id := toInt(row[0])
		s := got[id]
		s.n++
		s.bal = toInt(row[1])
		got[id] = s
	}
	check := func(id, want int64) {
		s := got[id]
		delete(got, id)
		if s.n != 1 {
			e.rowFaults++
			return
		}
		if s.bal < want {
			e.missing += want - s.bal
		} else {
			e.extra += s.bal - want
		}
	}
	for id := int64(0); id < numAccounts; id++ {
		check(id, d.balance[id]+chk.acked[id].Load())
	}
	for id, bal := range chk.inserted {
		check(id, bal)
	}
	e.rowFaults += int64(len(got))
	return e, nil
}

func toInt(v catalog.Value) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(math.Round(x))
	case int:
		return int64(x)
	}
	return math.MinInt64
}

// pct is the p-th percentile of xs by linear interpolation between
// closest ranks.
func pct(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[hi])*frac
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return int(float64(n) * (100 - p) / 100) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
