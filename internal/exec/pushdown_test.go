package exec

import (
	"runtime"
	"strings"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// A filter directly over a heap scan is pushed into the decoder: rows
// it rejects are never fully decoded. These tests pin that the pushdown
// changes nothing observable but speed.

func planOn(t testing.TB, c *catalog.Catalog, q string) plan.Node {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(c, stmt.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPushdownCountsRejectedRows runs a one-row point lookup over 4000
// rows: ExecStats.RowsScanned, the exec.rows_scanned counter and the
// profiled scan's actual rows must all count every row read, the
// filter's actual rows only the row it kept — at every parallelism.
func TestPushdownCountsRejectedRows(t *testing.T) {
	c := benchCatalog(t, 4000)
	p := planOn(t, c, "SELECT id, age FROM users WHERE id = 1234")
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		ex := New(nil)
		ex.Parallelism = workers
		ex.MorselSize = 256
		ex.ScanMorselPages = 1
		ex.Obs = NewMetrics(obs.NewRegistry())
		prof := NewQueryProfile(p, nil)
		ex.Profile = prof
		res, err := ex.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 1234 || res.Rows[0][1].(int64) != 1234%80 {
			t.Fatalf("@%d workers: rows = %v", workers, res.Rows)
		}
		if got := ex.Stats.RowsScanned.Load(); got != 4000 {
			t.Errorf("@%d workers: ExecStats.RowsScanned = %d, want 4000", workers, got)
		}
		if got := ex.Obs.RowsScanned.Value(); got != 4000 {
			t.Errorf("@%d workers: exec.rows_scanned = %d, want 4000", workers, got)
		}
		prof.Walk(func(op *OpProfile, _ int) {
			want := map[string]int64{"Scan": 4000, "Filter": 1, "Project": 1}[op.Kind]
			if op.ActualRows() != want {
				t.Errorf("@%d workers: %s actual rows = %d, want %d", workers, op.Kind, op.ActualRows(), want)
			}
		})
	}
}

// TestPushdownTruncatedRecordFails corrupts every record by widening
// the table's schema after the rows were written: a filter that reads
// only the intact first column and rejects every row must still fail
// the scan with the decoder's truncation error, as a full decode does.
func TestPushdownTruncatedRecordFails(t *testing.T) {
	c := catalog.NewMem()
	tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{{Name: "a", Type: catalog.Int64}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tab.Insert(catalog.Row{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Schema.Columns = append(tab.Schema.Columns, catalog.Column{Name: "b", Type: catalog.Int64})
	for _, q := range []string{
		"SELECT a FROM t WHERE a < 0", // pushed down, rejects every row
		"SELECT a FROM t",             // full decode
	} {
		_, err := New(nil).Run(planOn(t, c, q))
		if err == nil || !strings.Contains(err.Error(), "catalog: truncated int64 value") {
			t.Errorf("%s: error = %v, want catalog: truncated int64 value", q, err)
		}
	}
}

// TestPushdownErrorsMatchFilter checks a predicate error still fails
// the query with the evaluator's text when the filter is pushed down.
func TestPushdownErrorsMatchFilter(t *testing.T) {
	c := benchCatalog(t, 100)
	for q, want := range map[string]string{
		"SELECT id FROM users WHERE id / 0 = 1": "exec: division by zero",
		"SELECT id FROM users WHERE id = 'x'":   "exec: cannot compare int64 with string",
		"SELECT id FROM users WHERE id = $1":    "exec: parameter $1 is not bound (0 bound)",
	} {
		_, err := New(nil).Run(planOn(t, c, q))
		if err == nil || err.Error() != want {
			t.Errorf("%s: error = %v, want %s", q, err, want)
		}
	}
}
