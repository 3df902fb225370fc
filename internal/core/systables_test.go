package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// sysWorkloadDB builds a DB with two heap tables and a repeated SELECT
// workload so every observability store has live content.
func sysWorkloadDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	script := `CREATE TABLE users (id INT, age INT);
		CREATE TABLE orders (id INT, user_id INT, amount INT);
		INSERT INTO users VALUES (1, 30), (2, 40), (3, 50), (4, 60);
		INSERT INTO orders VALUES (1, 1, 10), (2, 2, 20), (3, 2, 30), (4, 4, 40);`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT id FROM users WHERE age > %d", 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec("SELECT u.id, o.amount FROM users u JOIN orders o ON u.id = o.user_id"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSystemTablesRegistered: every promised system table is queryable.
func TestSystemTablesRegistered(t *testing.T) {
	db := Open()
	want := []string{"system.alerts", "system.metrics",
		"system.plan_cache", "system.plan_cache_stats", "system.settings",
		"system.slow_queries", "system.statements", "system.tables"}
	got := db.SystemTables()
	if len(got) != len(want) {
		t.Fatalf("SystemTables() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SystemTables() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		if _, err := db.Exec("SELECT * FROM " + name); err != nil {
			t.Errorf("SELECT * FROM %s: %v", name, err)
		}
	}
}

// TestSystemStatementsMatchesStore: a filtered SELECT over
// system.statements returns exactly what the statement-statistics store
// holds, cell for cell.
func TestSystemStatementsMatchesStore(t *testing.T) {
	db := sysWorkloadDB(t)
	snap := db.Engine().Stmts().Snapshot()
	if len(snap) == 0 {
		t.Fatal("workload recorded no statement statistics")
	}
	res, err := db.Exec("SELECT fingerprint, calls, rows, total_ns, chunks, peak_bytes FROM system.statements WHERE calls > 0 ORDER BY fingerprint")
	if err != nil {
		t.Fatal(err)
	}
	// The SELECT itself is recorded only after it finishes: the scan's
	// snapshot must match the pre-query store exactly.
	if len(res.Rows) != len(snap) {
		t.Fatalf("query returned %d rows, store has %d entries", len(res.Rows), len(snap))
	}
	for i, s := range snap {
		r := res.Rows[i]
		if r[0] != s.Fingerprint || r[1] != int64(s.Calls) || r[2] != s.Rows ||
			r[3] != s.TotalNs || r[4] != s.Chunks || r[5] != s.PeakBytes {
			t.Fatalf("row %d = %v, store entry = %+v", i, r, s)
		}
	}
	// The workload's statements all succeeded and accounted rows/chunks.
	for _, s := range snap {
		if s.Errors != 0 || s.Calls == 0 {
			t.Fatalf("unexpected stats entry %+v", s)
		}
	}
}

// TestSystemTablesFiltersAggregatesJoin exercises the acceptance query
// shapes — WHERE filters, aggregates, and a join across system.*
// tables — and cross-checks each against direct store reads; the join
// checks system.slow_queries against its source, system.statements.
func TestSystemTablesFiltersAggregatesJoin(t *testing.T) {
	db := sysWorkloadDB(t)

	// Aggregate over system.tables vs the catalog.
	res, err := db.Exec("SELECT COUNT(*), SUM(rows) FROM system.tables")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows[0]); got != "[2 8]" {
		t.Fatalf("system.tables aggregate = %s, want [2 8]", got)
	}

	// Filter over system.metrics vs a counter we fully control.
	db.Metrics().Counter("test.marker").Add(7)
	res, err = db.Exec("SELECT value FROM system.metrics WHERE name = 'test.marker'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 7.0 {
		t.Fatalf("metrics filter = %v, want [[7]]", res.Rows)
	}

	// Filter over system.settings vs the live knobs.
	db.SetParallelism(3)
	res, err = db.Exec("SELECT value FROM system.settings WHERE name = 'parallelism'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != int64(3) {
		t.Fatalf("settings filter = %v, want [[3]]", res.Rows)
	}

	// system.slow_queries is a view over the statement store: joined to
	// system.statements on fingerprint, every row must agree with its
	// source row, count the successful calls only, and carry the store's
	// exemplar. A fingerprint whose only execution failed must not
	// appear. (Snapshot the expectation first — the join query itself is
	// only recorded after it finishes, so its own scans won't see it.)
	if _, err := db.Exec("SELECT 10 / (id - 1) FROM users"); err == nil {
		t.Fatal("division by zero did not fail")
	}
	snap := db.Engine().Stmts().Snapshot()
	exemplar := map[string][2]int64{}
	for _, s := range snap {
		if s.OK() > 0 {
			exemplar[s.Fingerprint] = [2]int64{s.LastLatencyNs, s.LastRows}
		}
	}
	if len(exemplar) == len(snap) {
		t.Fatalf("workload has no fingerprint without a successful call: %+v", snap)
	}
	res, err = db.Exec(`SELECT q.fingerprint, q.count, s.calls - s.errors - s.cancels - s.sheds,
		q.query, s.query, q.max_latency_ns, s.max_ns,
		q.first_seen_ns, s.first_seen_ns, q.last_seen_ns, s.last_seen_ns,
		q.latency_ns, q.rows
		FROM system.slow_queries q JOIN system.statements s ON q.fingerprint = s.fingerprint`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(exemplar) {
		t.Fatalf("join returned %d rows, store has %d fingerprints with successful calls", len(res.Rows), len(exemplar))
	}
	for _, r := range res.Rows {
		ex, ok := exemplar[r[0].(string)]
		if !ok || r[1] != r[2] || r[3] != r[4] || r[5] != r[6] || r[7] != r[8] || r[9] != r[10] ||
			r[11] != ex[0] || r[12] != ex[1] {
			t.Fatalf("slow_queries row disagrees with its statements row: %v (exemplar %v)", r, ex)
		}
	}
}

// TestSystemTablesExplainAnalyze: the introspection path works under
// the profiled executor and reports the virtual scan operator.
func TestSystemTablesExplainAnalyze(t *testing.T) {
	db := sysWorkloadDB(t)
	res, err := db.Exec("EXPLAIN ANALYZE SELECT fingerprint, calls FROM system.statements WHERE calls > 0")
	if err != nil {
		t.Fatal(err)
	}
	text := Format(res)
	if !strings.Contains(text, "VirtualScan") {
		t.Fatalf("EXPLAIN ANALYZE profile lacks VirtualScan:\n%s", text)
	}
}

// TestSystemTablesCancellation: a cancelled context aborts a system
// scan like any other query, and the failure is classified in the
// statement statistics.
func TestSystemTablesCancellation(t *testing.T) {
	db := sysWorkloadDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExecContext(ctx, "SELECT * FROM system.statements"); err == nil {
		t.Fatal("cancelled system scan succeeded")
	}
}

// TestSQLRulesOverSystemMetrics closes the monitoring loop: a KPI rule
// written as SQL over system.metrics files a latched alert that is in
// turn visible through system.alerts.
func TestSQLRulesOverSystemMetrics(t *testing.T) {
	db := Open()
	db.Metrics().Counter("pressure.level").Add(9)
	db.AddSQLRule("pressure", "SELECT value FROM system.metrics WHERE name = 'pressure.level' AND value > 5", "pressure too high")
	if fired := db.EvalSQLRules(); fired != 1 {
		t.Fatalf("first eval fired %d, want 1", fired)
	}
	if fired := db.EvalSQLRules(); fired != 0 {
		t.Fatalf("latched eval fired %d, want 0", fired)
	}
	res, err := db.Exec("SELECT metric, kind, value FROM system.alerts WHERE kind = 'sqlrule'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "pressure" || res.Rows[0][2] != 9.0 {
		t.Fatalf("system.alerts rows = %v", res.Rows)
	}
}

// TestAdmissionShedRecordedInStatements: a gate rejection lands in the
// statistics under the synthetic (admission) fingerprint.
func TestAdmissionShedRecordedInStatements(t *testing.T) {
	db := Open()
	if _, err := db.Exec("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	db.SetMaxConcurrent(1)
	release, err := db.AdmissionGate().Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// With the only slot held and an already-expired deadline, the gate
	// sheds instead of queueing.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, execErr := db.ExecContext(ctx, "SELECT a FROM t")
	release()
	if execErr == nil {
		t.Fatal("gated statement succeeded")
	}
	for _, s := range db.Engine().Stmts().Snapshot() {
		if s.Fingerprint == "(admission)" && s.Sheds > 0 {
			return
		}
	}
	t.Fatalf("no (admission) entry in %+v", db.Engine().Stmts().Snapshot())
}
