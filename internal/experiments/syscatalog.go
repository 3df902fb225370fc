package experiments

import (
	"fmt"
	"time"

	"aidb/internal/aisql"
	"aidb/internal/core"
	"aidb/internal/idxadvisor"
	"aidb/internal/ml"
	"aidb/internal/obs"
)

func init() {
	register("E32", runE32SystemCatalog)
}

// e32Workload drives a deterministic mixed SELECT workload — point
// filters, a BETWEEN, a join, and an aggregate — through the database so
// the statement store observes it. Returns the number of statements run.
func e32Workload(db *core.DB, rng *ml.RNG) (int, error) {
	type shape struct {
		tmpl  string
		args  int
		calls int
	}
	shapes := []shape{
		{"SELECT id FROM users WHERE age > %d", 1, 12},
		{"SELECT score FROM users WHERE score BETWEEN %d AND %d", 2, 8},
		{"SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id WHERE o.amount > %d", 1, 6},
		{"SELECT count(*) FROM orders WHERE amount < %d", 1, 4},
	}
	total := 0
	for _, s := range shapes {
		for i := 0; i < s.calls; i++ {
			var q string
			if s.args == 2 {
				lo := rng.Intn(40)
				q = fmt.Sprintf(s.tmpl, lo, lo+rng.Intn(40))
			} else {
				q = fmt.Sprintf(s.tmpl, rng.Intn(80))
			}
			if _, err := db.Exec(q); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, nil
}

// e32DB builds a seeded database with a two-table schema and enough rows
// that the workload's predicates select varying fractions.
func e32DB(seed uint64) (*core.DB, *ml.RNG, error) {
	db := core.OpenSeeded(seed)
	rng := ml.NewRNG(seed + 1)
	if _, err := db.Exec("CREATE TABLE users (id INT, age INT, score INT)"); err != nil {
		return nil, nil, err
	}
	if _, err := db.Exec("CREATE TABLE orders (id INT, user_id INT, amount INT)"); err != nil {
		return nil, nil, err
	}
	ins := "INSERT INTO users VALUES "
	for i := 0; i < 300; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, %d)", i, rng.Intn(90), rng.Intn(100))
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, nil, err
	}
	ins = "INSERT INTO orders VALUES "
	for i := 0; i < 500; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d, %d)", i, rng.Intn(300), rng.Intn(160))
	}
	if _, err := db.Exec(ins); err != nil {
		return nil, nil, err
	}
	return db, rng, nil
}

// candKey renders a candidate list compactly for the table.
func e32Top(cands []idxadvisor.Candidate, k int) string {
	s := ""
	for i, c := range idxadvisor.TopCandidates(cands, k) {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s.%s:%.0f", c.Table, c.Column, c.Weight)
	}
	if s == "" {
		return "(none)"
	}
	return s
}

func e32Same(a, b []idxadvisor.Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runE32SystemCatalog validates that the index advisor mining its
// workload *through the engine* — a plain SELECT over system.statements
// — reproduces exactly the candidate set of the direct wiring that
// reads the statement store's snapshot. The virtual-catalog path adds
// no privileged pointers: what SQL can see is enough to close the
// monitor→advise loop.
func runE32SystemCatalog(seed uint64) *Table {
	t := &Table{
		ID:     "E32",
		Title:  "self-observation: index advisor fed by SQL over the system catalog",
		Claim:  "mining the workload via a SELECT over system.statements yields the same index candidates as reading the statement store directly",
		Header: []string{"source", "records", "candidates", "top candidates (table.column:weight)"},
	}
	fail := func(err error) *Table {
		t.Note = err.Error()
		return t
	}
	db, rng, err := e32DB(seed)
	if err != nil {
		return fail(err)
	}
	ran, err := e32Workload(db, rng)
	if err != nil {
		return fail(err)
	}

	// Direct wiring: the caller holds the *obs.StatementStats pointer.
	// Snapshot before the SQL read, which records itself in the store.
	directRecs := idxadvisor.FromStatements(db.Engine().Stmts().Snapshot())
	direct := idxadvisor.Candidates(directRecs)

	// SQL wiring: the advisor only gets a "run this query" handle.
	stmtRecs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		return fail(err)
	}
	viaStmts := idxadvisor.Candidates(stmtRecs)

	t.Rows = [][]string{
		{"statement store (direct)", itoa(len(directRecs)), itoa(len(direct)), e32Top(direct, 3)},
		{"SQL: system.statements", itoa(len(stmtRecs)), itoa(len(viaStmts)), e32Top(viaStmts, 3)},
	}
	t.Holds = len(direct) >= 4 && e32Same(direct, viaStmts)
	if t.Holds {
		t.Note = fmt.Sprintf("%d statements executed; both sources agree on %d candidates", ran, len(direct))
	} else {
		t.Note = "candidate sets diverge between direct and SQL-mined workload sources"
	}
	return t
}

// StatsBenchResult is the statement-statistics overhead measurement
// written by aidb-bench -bench-stats (CI uploads it as
// BENCH_stats.json). RecordOverheadPct is the gated number: the cost of
// one StatementStats.Record relative to the cheapest measured query,
// i.e. the worst-case fractional overhead the store can add.
type StatsBenchResult struct {
	// Queries is the number of SELECTs timed per run.
	Queries int `json:"queries"`
	// Fingerprints is the number of distinct fingerprints the Record
	// microbenchmark rotates through.
	Fingerprints int `json:"fingerprints"`
	// RecordNsPerOp is the mean cost of one Record call.
	RecordNsPerOp int64 `json:"record_ns_per_op"`
	// SnapshotNsPerOp is the mean cost of one full Snapshot (what a
	// system.statements scan pays before chunking).
	SnapshotNsPerOp int64 `json:"snapshot_ns_per_op"`
	// QueryNsOff / QueryNsOn are mean per-query times on engines with
	// statement statistics absent vs present (best of N runs).
	QueryNsOff int64 `json:"query_ns_off"`
	QueryNsOn  int64 `json:"query_ns_on"`
	// WallOverheadPct is the measured end-to-end delta between the two
	// engines (noisy; informational).
	WallOverheadPct float64 `json:"wall_overhead_pct"`
	// RecordOverheadPct = RecordNsPerOp / QueryNsOff, as a percentage.
	RecordOverheadPct float64 `json:"record_overhead_pct"`
}

// RunStatsBench measures what per-fingerprint statement statistics cost
// the query path: a Record/Snapshot microbenchmark plus an end-to-end
// comparison of the same SELECT workload on an engine without the store
// (nil — Record is a no-op) and one with it. The <2%% acceptance gate is
// applied by aidb-bench to RecordOverheadPct, which is stable across
// hosts; the wall-clock delta is reported for context.
func RunStatsBench(seed uint64, queries, runs int) (*StatsBenchResult, error) {
	if queries < 1 {
		queries = 400
	}
	if runs < 1 {
		runs = 1
	}
	setup := func(instrument bool) (*aisql.Engine, error) {
		eng := aisql.NewEngine()
		if instrument {
			eng.Instrument(obs.NewRegistry(), nil)
		}
		rng := ml.NewRNG(seed)
		if _, err := eng.Execute("CREATE TABLE t (a INT, b INT)"); err != nil {
			return nil, err
		}
		ins := "INSERT INTO t VALUES "
		for i := 0; i < 4000; i++ {
			if i > 0 {
				ins += ", "
			}
			ins += fmt.Sprintf("(%d, %d)", i, rng.Intn(1000))
		}
		if _, err := eng.Execute(ins); err != nil {
			return nil, err
		}
		return eng, nil
	}
	drive := func(eng *aisql.Engine) (int64, error) {
		rng := ml.NewRNG(seed + 7)
		best := int64(0)
		for r := 0; r < runs; r++ {
			start := time.Now()
			for i := 0; i < queries; i++ {
				q := fmt.Sprintf("SELECT a FROM t WHERE b < %d", rng.Intn(1000))
				if _, err := eng.Execute(q); err != nil {
					return 0, err
				}
			}
			per := time.Since(start).Nanoseconds() / int64(queries)
			if best == 0 || per < best {
				best = per
			}
		}
		return best, nil
	}

	off, err := setup(false)
	if err != nil {
		return nil, err
	}
	on, err := setup(true)
	if err != nil {
		return nil, err
	}
	// Warm both paths once before timing.
	if _, err := drive(off); err != nil {
		return nil, err
	}
	if _, err := drive(on); err != nil {
		return nil, err
	}
	offNs, err := drive(off)
	if err != nil {
		return nil, err
	}
	onNs, err := drive(on)
	if err != nil {
		return nil, err
	}

	// Microbenchmark Record over a rotating fingerprint set sized like a
	// busy plan cache.
	const fps = 64
	const recs = 200000
	stats := obs.NewStatementStats(0)
	obsv := obs.StmtObservation{Outcome: obs.StmtOK, LatencyNs: 12345, Rows: 10, Chunks: 1, PeakBytes: 4096}
	for i := 0; i < fps; i++ {
		obsv.Fingerprint = fmt.Sprintf("fp-%02d", i)
		obsv.Query = "SELECT a FROM t WHERE b < ?"
		stats.Record(obsv)
	}
	start := time.Now()
	for i := 0; i < recs; i++ {
		obsv.Fingerprint = fmt.Sprintf("fp-%02d", i%fps)
		stats.Record(obsv)
	}
	recordNs := time.Since(start).Nanoseconds() / recs

	const snaps = 2000
	start = time.Now()
	for i := 0; i < snaps; i++ {
		if len(stats.Snapshot()) != fps {
			return nil, fmt.Errorf("stats bench: snapshot lost fingerprints")
		}
	}
	snapshotNs := time.Since(start).Nanoseconds() / snaps

	res := &StatsBenchResult{
		Queries:         queries,
		Fingerprints:    fps,
		RecordNsPerOp:   recordNs,
		SnapshotNsPerOp: snapshotNs,
		QueryNsOff:      offNs,
		QueryNsOn:       onNs,
	}
	if offNs > 0 {
		res.WallOverheadPct = 100 * float64(onNs-offNs) / float64(offNs)
		res.RecordOverheadPct = 100 * float64(recordNs) / float64(offNs)
	}
	return res, nil
}
