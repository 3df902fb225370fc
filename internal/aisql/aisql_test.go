package aisql

import (
	"fmt"
	"strings"
	"testing"

	"aidb/internal/ml"
)

// seedChurn populates a linearly separable churn table.
func seedChurn(t *testing.T, e *Engine, n int) {
	t.Helper()
	if _, err := e.Execute("CREATE TABLE customers (age INT, spend FLOAT, label INT)"); err != nil {
		t.Fatal(err)
	}
	rng := ml.NewRNG(1)
	var sb strings.Builder
	sb.WriteString("INSERT INTO customers VALUES ")
	for i := 0; i < n; i++ {
		age := 18 + rng.Intn(60)
		spend := rng.Float64() * 100
		label := 0
		if float64(age)+spend > 80 {
			label = 1
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %.2f, %d)", age, spend, label)
	}
	if _, err := e.Execute(sb.String()); err != nil {
		t.Fatal(err)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	e := NewEngine()
	if _, err := e.Execute("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT a FROM t WHERE b = 'y'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE t (a INT, b INT)")
	e.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	if _, err := e.Execute("UPDATE t SET b = b + 1 WHERE a >= 2"); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Execute("SELECT SUM(b) FROM t")
	if got := res.Rows[0][0].(float64); got != 62 {
		t.Errorf("sum after update = %v, want 62", got)
	}
	if _, err := e.Execute("DELETE FROM t WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	res, _ = e.Execute("SELECT COUNT(*) FROM t")
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Errorf("count after delete = %v, want 2", got)
	}
}

// TestUpdateDeleteErrorsLeaveTableUnchanged: a DML statement whose SET
// or WHERE cannot be evaluated fails like the equivalent SELECT does,
// and an error part-way through the scan applies none of its changes.
func TestUpdateDeleteErrorsLeaveTableUnchanged(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE t (a INT, b INT)")
	e.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
	contents := func() string {
		t.Helper()
		res, err := e.Execute("SELECT a, b FROM t ORDER BY a")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	want := contents()
	for _, stmt := range []string{
		"SELECT a FROM t WHERE nosuch = 1",
		"UPDATE t SET a = nosuch",
		"UPDATE t SET zz = 5",
		"DELETE FROM t WHERE nosuch = 1",
		"UPDATE t SET a = 'x'",                 // coercion error
		"UPDATE t SET b = 10 / (a - 2)",        // fails on the second row
		"DELETE FROM t WHERE 10 / (a - 3) > 0", // fails on the third row
	} {
		if _, err := e.Execute(stmt); err == nil {
			t.Errorf("%s: no error", stmt)
		}
		if got := contents(); got != want {
			t.Fatalf("%s changed the table: %s, want %s", stmt, got, want)
		}
	}
}

func TestCreateModelAndPredictInSQL(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 400)
	if _, err := e.Execute("CREATE MODEL churn PREDICT label ON customers FEATURES (age, spend) WITH (kind = 'logistic', epochs = 400)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("EVALUATE MODEL churn ON customers")
	if err != nil {
		t.Fatal(err)
	}
	acc := res.Rows[0][1].(float64)
	if acc < 0.9 {
		t.Errorf("accuracy = %v, want >= 0.9 on separable data", acc)
	}
	// PREDICT inside a SELECT.
	q, err := e.Execute("SELECT age, PREDICT(churn, age, spend) FROM customers LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 5 {
		t.Fatalf("rows = %d", len(q.Rows))
	}
	for _, r := range q.Rows {
		if v := r[1].(float64); v != 0 && v != 1 {
			t.Errorf("prediction = %v, want 0/1", v)
		}
	}
}

func TestPredictInWhereClause(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 300)
	if _, err := e.Execute("CREATE MODEL m PREDICT label ON customers WITH (kind = 'tree')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT COUNT(*) FROM customers WHERE PREDICT(m, age, spend) = 1")
	if err != nil {
		t.Fatal(err)
	}
	n := res.Rows[0][0].(int64)
	if n == 0 || n == 300 {
		t.Errorf("predicted-positive count = %d, want a nontrivial split", n)
	}
}

func TestModelLifecycle(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 100)
	e.Execute("CREATE MODEL m PREDICT label ON customers WITH (kind = 'tree')")
	if _, err := e.Execute("CREATE MODEL m PREDICT label ON customers"); err == nil {
		t.Error("duplicate model should fail")
	}
	res, _ := e.Execute("SHOW MODELS")
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "m" {
		t.Errorf("SHOW MODELS = %v", res.Rows)
	}
	if _, err := e.Execute("DROP MODEL m"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("DROP MODEL m"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestLinearModelKind(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO pts VALUES ")
	for i := 0; i < 50; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d.0, %d.0)", i, 3*i+7)
	}
	e.Execute(sb.String())
	if _, err := e.Execute("CREATE MODEL lin PREDICT y ON pts FEATURES (x) WITH (kind = 'linear')"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("EVALUATE MODEL lin ON pts")
	if err != nil {
		t.Fatal(err)
	}
	if mse := res.Rows[0][2].(float64); mse > 1e-6 {
		t.Errorf("MSE = %v on exact linear data", mse)
	}
}

func TestModelErrors(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE t (a INT, b INT)")
	if _, err := e.Execute("CREATE MODEL m PREDICT b ON t"); err == nil {
		t.Error("training on empty table should fail")
	}
	e.Execute("INSERT INTO t VALUES (1, 0)")
	if _, err := e.Execute("CREATE MODEL m PREDICT nosuch ON t"); err == nil {
		t.Error("unknown label should fail")
	}
	if _, err := e.Execute("CREATE MODEL m PREDICT b ON t FEATURES (ghost)"); err == nil {
		t.Error("unknown feature should fail")
	}
	if _, err := e.Execute("CREATE MODEL m PREDICT b ON t WITH (kind = 'quantum')"); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := e.Execute("EVALUATE MODEL ghost ON t"); err == nil {
		t.Error("evaluating missing model should fail")
	}
}

func TestShowTablesAndExplain(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE zz (a INT)")
	e.Execute("CREATE TABLE aa (a INT)")
	res, _ := e.Execute("SHOW TABLES")
	if len(res.Rows) != 2 || res.Rows[0][0].(string) != "aa" {
		t.Errorf("SHOW TABLES = %v", res.Rows)
	}
	e.Execute("INSERT INTO aa VALUES (1)")
	res, err := e.Execute("EXPLAIN SELECT * FROM aa WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Rows[0][0].(string), "Scan aa") {
		t.Errorf("explain output: %v", res.Rows[0][0])
	}
}

func TestAnalyzeStatement(t *testing.T) {
	e := NewEngine()
	e.Execute("CREATE TABLE t (a INT)")
	e.Execute("INSERT INTO t VALUES (1), (2), (3)")
	if _, err := e.Execute("ANALYZE t"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Cat.Table("t")
	if tab.Stats == nil || tab.Stats.RowCount != 3 {
		t.Error("ANALYZE did not populate stats")
	}
}

func TestExternalPipelineEquivalentButCostly(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 300)
	// In-database path.
	if _, err := e.Execute("CREATE MODEL indb PREDICT label ON customers FEATURES (age, spend) WITH (kind = 'logistic', epochs = 300)"); err != nil {
		t.Fatal(err)
	}
	inRes, _ := e.Execute("EVALUATE MODEL indb ON customers")
	inAcc := inRes.Rows[0][1].(float64)
	// External pipeline path.
	tab, _ := e.Cat.Table("customers")
	var p ExternalPipeline
	csv, err := p.ExportCSV(tab)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.TrainFromCSV("ext", Logistic, csv, []string{"age", "spend"}, "label")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ImportPredictions(e.Cat, "ext_preds", m, csv); err != nil {
		t.Fatal(err)
	}
	extMet, err := m.Evaluate(tab)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("in-db accuracy %.3f, external accuracy %.3f, external bytes moved %d", inAcc, extMet.Accuracy, p.BytesMoved)
	if extMet.Accuracy < inAcc-0.05 {
		t.Errorf("external pipeline accuracy %.3f should match in-db %.3f", extMet.Accuracy, inAcc)
	}
	if p.BytesMoved == 0 {
		t.Error("external pipeline must pay serialization cost (the E14 point)")
	}
	preds, _ := e.Cat.Table("ext_preds")
	if preds.NumRows() != 300 {
		t.Errorf("imported %d predictions, want 300", preds.NumRows())
	}
}

func TestExecuteScript(t *testing.T) {
	e := NewEngine()
	res, err := e.ExecuteScript(`
		CREATE TABLE s (a INT);
		INSERT INTO s VALUES (1), (2);
		SELECT COUNT(*) FROM s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("script result = %v", res.Rows)
	}
}

func TestPredictProba(t *testing.T) {
	e := NewEngine()
	seedChurn(t, e, 300)
	if _, err := e.Execute("CREATE MODEL p PREDICT label ON customers FEATURES (age, spend) WITH (kind = 'logistic', epochs = 300)"); err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute("SELECT PREDICT_PROBA(p, age, spend) FROM customers LIMIT 20")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		v := r[0].(float64)
		if v < 0 || v > 1 {
			t.Fatalf("probability %v outside [0,1]", v)
		}
	}
	// PROBA on a non-probabilistic model must error.
	if _, err := e.Execute("CREATE MODEL tr PREDICT label ON customers WITH (kind = 'tree')"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute("SELECT PREDICT_PROBA(tr, age, spend) FROM customers LIMIT 1"); err == nil {
		t.Error("PREDICT_PROBA on a tree model should fail")
	}
}
