// Command aidb-bench regenerates the experiment tables from DESIGN.md's
// matrix (E1–E23, plus the E24 robustness, E25 observability, E26
// morsel-parallelism, E27 cardinality-feedback, E28 batched-ML-kernel
// and E29 overload-governance experiments) and prints them, one per
// experiment.
//
// Usage:
//
//	aidb-bench                        # run everything
//	aidb-bench -e E7                  # run one experiment
//	aidb-bench -seed 123              # change the deterministic seed
//	aidb-bench -bench-exec out.json   # time serial vs parallel execution
//	aidb-bench -bench-ml out.json     # time batched vs per-row ML kernels
//	aidb-bench -bench-cancel out.json # time cancel-to-stop + overload shedding
//	aidb-bench -bench-stats out.json  # measure statement-statistics overhead
//	aidb-bench -bench-cache out.json  # measure plan-cache hit-path speedup
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"aidb/internal/core"
	"aidb/internal/exec"
	"aidb/internal/experiments"
)

// benchExecCompare times the executor's serial vs parallel modes over a
// 100k-row catalog — plus streaming-vs-materialize allocation columns —
// and writes the rows as JSON ("-" = stdout). Used by `make bench-smoke`
// and `make bench-compare`; CI uploads the result as BENCH_exec.json.
// A positive allocCeiling turns the run into an assertion: the
// scan-filter pipeline's streaming allocs/op must stay below it (the
// allocation-regression gate for the streaming executor).
func benchExecCompare(path string, seed uint64, allocCeiling int64) error {
	rows, err := experiments.RunExecBench(seed, 100000, 3, nil)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		return err
	}
	if allocCeiling > 0 {
		for _, r := range rows {
			if r.Op == "scan-filter" && r.AllocsPerOp > allocCeiling {
				return fmt.Errorf("scan-filter allocs/op %d exceeds ceiling %d (streaming regression)", r.AllocsPerOp, allocCeiling)
			}
		}
	}
	return nil
}

// benchMLCompare times the batched/parallel ML kernels against their
// per-row and naive baselines and writes the rows as JSON ("-" =
// stdout). Used by `make bench-compare`; CI uploads the result as
// BENCH_ml.json.
func benchMLCompare(path string, seed uint64) error {
	rows, err := experiments.RunMLBench(seed, 3)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// benchCancelCompare measures the cancel-to-stop latency of a
// mid-scan cancellation and the shed behaviour of deadline-aware vs
// FIFO admission under open-loop overload, writing the result as JSON
// ("-" = stdout). Used by `make bench-smoke`; CI uploads the result as
// BENCH_cancel.json.
func benchCancelCompare(path string, seed uint64) error {
	res, err := experiments.RunCancelBench(seed, 100000, 5, nil)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// benchStats measures the statement-statistics store's overhead —
// Record/Snapshot microbenchmarks plus an end-to-end on/off engine
// comparison — and writes the result as JSON ("-" = stdout). Used by
// `make bench-smoke`; CI uploads the result as BENCH_stats.json. A
// positive ceiling turns the run into an assertion: one Record must
// cost less than ceiling percent of the cheapest measured query (the
// "statistics are almost free" gate from DESIGN.md).
func benchStats(path string, seed uint64, ceilingPct float64) error {
	res, err := experiments.RunStatsBench(seed, 400, 5)
	if err != nil {
		return err
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if ceilingPct > 0 && res.RecordOverheadPct > ceilingPct {
		return fmt.Errorf("statement-stats record overhead %.3f%% exceeds ceiling %.1f%% (Record %dns vs query %dns)",
			res.RecordOverheadPct, ceilingPct, res.RecordNsPerOp, res.QueryNsOff)
	}
	return nil
}

// benchCache measures the plan cache's effect on the repeated-query
// hot path — warm cached engine vs cache-detached engine over the same
// statement shapes, plus a Lookup microbenchmark — and writes the
// result as JSON ("-" = stdout). Used by `make bench-smoke` and
// `make bench-compare`; CI uploads the result as BENCH_cache.json.
// Positive floors/ceilings turn the run into assertions: repeated
// statements must speed up by at least speedupFloor, the cache probe
// must cost under overheadCeilPct percent of a cached statement, and
// results must be row-for-row identical either way.
func benchCache(path string, seed uint64, speedupFloor, overheadCeilPct float64) error {
	res, err := experiments.RunCacheBench(seed, 400, 5)
	if err != nil {
		return err
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		return err
	}
	if !res.RowsIdentical {
		return fmt.Errorf("plan cache served different rows than the uncached engine")
	}
	if speedupFloor > 0 && res.SpeedupRepeated < speedupFloor {
		return fmt.Errorf("repeated-query speedup %.2fx below floor %.1fx (hit %dns vs miss %dns)",
			res.SpeedupRepeated, speedupFloor, res.HitNsPerOp, res.MissNsPerOp)
	}
	if overheadCeilPct > 0 && res.HitOverheadPct > overheadCeilPct {
		return fmt.Errorf("cache probe overhead %.3f%% exceeds ceiling %.1f%% (lookup %dns vs hit %dns)",
			res.HitOverheadPct, overheadCeilPct, res.LookupNsPerOp, res.HitNsPerOp)
	}
	return nil
}

// obsBenchResult is the telemetry-plane overhead measurement written by
// -bench-obs (CI uploads it as BENCH_obs.json).
type obsBenchResult struct {
	// Series/Windows describe the sampled store the scrapes read.
	Series  int    `json:"series"`
	Windows uint64 `json:"windows"`
	// SampleNsPerOp is the mean cost of one full sampler window
	// (snapshot every metric, push every derived series).
	SampleNsPerOp int64 `json:"sample_ns_per_op"`
	// Scrape*Ns time one HTTP GET of each exposition endpoint against a
	// live server, including encoding.
	ScrapePromNs       int64 `json:"scrape_prom_ns"`
	ScrapeJSONNs       int64 `json:"scrape_json_ns"`
	ScrapeTimeseriesNs int64 `json:"scrape_timeseries_ns"`
}

// benchObs measures the telemetry plane's own overhead: sampler cost
// per window on a warmed smoke DB, then scrape latency for the three
// main expositions over a real HTTP round trip. Used by
// `make bench-smoke`.
func benchObs(path string) error {
	db, _, err := smokeDB()
	if err != nil {
		return err
	}
	const samples = 200
	ts := db.Series()
	start := time.Now()
	for i := 0; i < samples; i++ {
		ts.SampleOnce()
	}
	sampleNs := time.Since(start).Nanoseconds() / samples

	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer db.Close()
	scrape := func(p string) (int64, error) {
		start := time.Now()
		resp, err := http.Get("http://" + srv.Addr() + p)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("GET %s: %s", p, resp.Status)
		}
		return time.Since(start).Nanoseconds(), nil
	}
	res := obsBenchResult{Series: ts.SeriesCount(), Windows: ts.Windows(), SampleNsPerOp: sampleNs}
	for _, m := range []struct {
		path string
		dst  *int64
	}{
		{"/metrics", &res.ScrapePromNs},
		{"/metrics?format=json", &res.ScrapeJSONNs},
		{"/timeseries?name=exec.queries", &res.ScrapeTimeseriesNs},
	} {
		if *m.dst, err = scrape(m.path); err != nil {
			return err
		}
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// smokeDB drives a short instrumented smoke workload — DDL, DML, plain
// SELECTs and an EXPLAIN ANALYZE — on a fresh DB and returns it with
// metrics, trace, statement statistics and profile populated.
func smokeDB() (*core.DB, *exec.Result, error) {
	db := core.Open()
	script := `CREATE TABLE m (a INT, b INT);
		INSERT INTO m VALUES (1, 10), (2, 20), (3, 30), (4, 40);
		SELECT a, b FROM m WHERE a < 3;
		SELECT count(*) FROM m;`
	if _, err := db.ExecScript(script); err != nil {
		return nil, nil, err
	}
	res, err := db.Exec(`EXPLAIN ANALYZE SELECT a, b FROM m WHERE a < 3;`)
	if err != nil {
		return nil, nil, err
	}
	return db, res, nil
}

// outWriter resolves an output path ("-" = stdout).
func outWriter(path string) (io.Writer, func(), error) {
	if path == "-" {
		return os.Stdout, func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// dumpMetrics writes the smoke workload's live metric registry to path
// ("-" = stdout; a .json suffix selects the JSON exposition, anything
// else the text one).
func dumpMetrics(path string) error {
	db, _, err := smokeDB()
	if err != nil {
		return err
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	if strings.HasSuffix(path, ".json") {
		_, err := db.Metrics().WriteJSONTo(w)
		return err
	}
	return db.WriteMetrics(w)
}

// dumpExplain writes the smoke workload's EXPLAIN ANALYZE profile table
// to path ("-" = stdout). CI uploads it as BENCH_explain.txt.
func dumpExplain(path string) error {
	_, res, err := smokeDB()
	if err != nil {
		return err
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	_, err = io.WriteString(w, core.Format(res))
	return err
}

// dumpStatements writes the smoke workload's per-fingerprint statement
// statistics as JSON to path ("-" = stdout). CI uploads it as
// BENCH_statements.json.
func dumpStatements(path string) error {
	db, _, err := smokeDB()
	if err != nil {
		return err
	}
	w, done, err := outWriter(path)
	if err != nil {
		return err
	}
	defer done()
	_, err = db.Engine().Stmts().WriteJSONTo(w)
	return err
}

func main() {
	var (
		exp       = flag.String("e", "", "run a single experiment id (e.g. E7 or A2); empty runs all")
		seed      = flag.Uint64("seed", 20260705, "deterministic seed for all experiments")
		ablations = flag.Bool("a", false, "run the design-choice ablations (A1..A5) instead of the matrix")
		metrics   = flag.String("metrics", "", "after the run, dump live metrics from a smoke workload to this path ('-' = stdout, '.json' suffix = JSON)")
		explain   = flag.String("explain", "", "after the run, dump a sample EXPLAIN ANALYZE profile from a smoke workload to this path ('-' = stdout)")
		stmts     = flag.String("statements", "", "after the run, dump the smoke workload's per-fingerprint statement statistics as JSON to this path ('-' = stdout)")
		benchExec = flag.String("bench-exec", "", "instead of experiments, time serial-vs-parallel execution and write JSON to this path ('-' = stdout)")
		allocCap  = flag.Int64("alloc-ceiling", 0, "with -bench-exec: fail when the 100k scan-filter pipeline's streaming allocs/op exceeds this (0 disables)")
		benchML   = flag.String("bench-ml", "", "instead of experiments, time batched-vs-per-row ML kernels and write JSON to this path ('-' = stdout)")
		benchCxl  = flag.String("bench-cancel", "", "instead of experiments, time cancel-to-stop latency and overload shedding and write JSON to this path ('-' = stdout)")
		benchOb   = flag.String("bench-obs", "", "instead of experiments, time the telemetry sampler and HTTP scrape latency and write JSON to this path ('-' = stdout)")
		benchSt   = flag.String("bench-stats", "", "instead of experiments, measure statement-statistics overhead and write JSON to this path ('-' = stdout)")
		statsCap  = flag.Float64("stats-ceiling", 2.0, "with -bench-stats: fail when one Record costs more than this percent of a query (0 disables)")
		benchCch  = flag.String("bench-cache", "", "instead of experiments, measure the plan-cache hit path vs re-planning and write JSON to this path ('-' = stdout)")
		cacheFlr  = flag.Float64("cache-floor", 2.0, "with -bench-cache: fail when repeated statements speed up less than this factor (0 disables)")
		cacheCap  = flag.Float64("cache-ceiling", 5.0, "with -bench-cache: fail when the cache probe costs more than this percent of a cached statement (0 disables)")
		serve     = flag.String("serve", "", "serve live telemetry over HTTP on this address (e.g. :8080) while the experiments run")
	)
	flag.Parse()
	if *benchCch != "" {
		if err := benchCache(*benchCch, *seed, *cacheFlr, *cacheCap); err != nil {
			fmt.Fprintln(os.Stderr, "bench-cache:", err)
			os.Exit(1)
		}
		return
	}
	if *benchSt != "" {
		if err := benchStats(*benchSt, *seed, *statsCap); err != nil {
			fmt.Fprintln(os.Stderr, "bench-stats:", err)
			os.Exit(1)
		}
		return
	}
	if *benchOb != "" {
		if err := benchObs(*benchOb); err != nil {
			fmt.Fprintln(os.Stderr, "bench-obs:", err)
			os.Exit(1)
		}
		return
	}
	if *benchExec != "" {
		if err := benchExecCompare(*benchExec, *seed, *allocCap); err != nil {
			fmt.Fprintln(os.Stderr, "bench-exec:", err)
			os.Exit(1)
		}
		return
	}
	if *benchML != "" {
		if err := benchMLCompare(*benchML, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench-ml:", err)
			os.Exit(1)
		}
		return
	}
	if *benchCxl != "" {
		if err := benchCancelCompare(*benchCxl, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench-cancel:", err)
			os.Exit(1)
		}
		return
	}
	if *serve != "" {
		db, _, err := smokeDB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		srv, err := db.Serve(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/\n", srv.Addr())
		defer db.Close()
	}
	code := run(*exp, *seed, *ablations)
	dumps := []struct {
		name string
		path string
		fn   func(string) error
	}{
		{"metrics", *metrics, dumpMetrics},
		{"explain", *explain, dumpExplain},
		{"statements", *stmts, dumpStatements},
	}
	for _, d := range dumps {
		if d.path == "" {
			continue
		}
		if err := d.fn(d.path); err != nil {
			fmt.Fprintln(os.Stderr, d.name+" dump:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func run(exp string, seed uint64, ablations bool) int {
	if exp != "" && exp[0] == 'A' {
		t, err := experiments.RunAblation(exp, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(t.String())
		if !t.Holds {
			return 1
		}
		return 0
	}
	if ablations {
		failed := 0
		for _, t := range experiments.RunAllAblations(seed) {
			fmt.Println(t.String())
			if !t.Holds {
				failed++
			}
		}
		fmt.Printf("%d/%d ablation shapes hold\n", len(experiments.AblationIDs())-failed, len(experiments.AblationIDs()))
		if failed > 0 {
			return 1
		}
		return 0
	}
	if exp != "" {
		t, err := experiments.Run(exp, seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(t.String())
		if !t.Holds {
			return 1
		}
		return 0
	}
	failed := 0
	for _, t := range experiments.RunAll(seed) {
		fmt.Println(t.String())
		if !t.Holds {
			failed++
		}
	}
	fmt.Printf("%d/%d experiment shapes hold\n", len(experiments.IDs())-failed, len(experiments.IDs()))
	if failed > 0 {
		return 1
	}
	return 0
}
