package exec

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"aidb/internal/catalog"
	"aidb/internal/ml"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// Differential property test: the full parse->plan->execute path must
// agree with a direct brute-force evaluation of the same predicate over
// the same rows, for randomly generated tables and WHERE clauses.

type randQuery struct {
	where string
	// eval mirrors the predicate in Go.
	eval func(a, b int64) bool
}

func randomPredicate(rng *ml.RNG) randQuery {
	mkCmp := func() (string, func(a, b int64) bool) {
		col := rng.Intn(2)
		val := int64(rng.Intn(50))
		op := []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)]
		name := []string{"a", "b"}[col]
		cmp := func(x int64) bool {
			switch op {
			case "=":
				return x == val
			case "!=":
				return x != val
			case "<":
				return x < val
			case "<=":
				return x <= val
			case ">":
				return x > val
			default:
				return x >= val
			}
		}
		f := func(a, b int64) bool {
			if col == 0 {
				return cmp(a)
			}
			return cmp(b)
		}
		return fmt.Sprintf("%s %s %d", name, op, val), f
	}
	c1, f1 := mkCmp()
	c2, f2 := mkCmp()
	switch rng.Intn(4) {
	case 0:
		return randQuery{where: c1, eval: func(a, b int64) bool { return f1(a, b) }}
	case 1:
		return randQuery{
			where: fmt.Sprintf("%s AND %s", c1, c2),
			eval:  func(a, b int64) bool { return f1(a, b) && f2(a, b) },
		}
	case 2:
		return randQuery{
			where: fmt.Sprintf("%s OR %s", c1, c2),
			eval:  func(a, b int64) bool { return f1(a, b) || f2(a, b) },
		}
	default:
		return randQuery{
			where: fmt.Sprintf("NOT (%s AND %s)", c1, c2),
			eval:  func(a, b int64) bool { return !(f1(a, b) && f2(a, b)) },
		}
	}
}

func TestExecutorMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := ml.NewRNG(seed)
		c := catalog.NewMem()
		tab, err := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
			{Name: "a", Type: catalog.Int64},
			{Name: "b", Type: catalog.Int64},
		}})
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(200)
		type row struct{ a, b int64 }
		rows := make([]row, n)
		for i := range rows {
			rows[i] = row{int64(rng.Intn(50)), int64(rng.Intn(50))}
			if _, err := tab.Insert(catalog.Row{rows[i].a, rows[i].b}); err != nil {
				return false
			}
		}
		for trial := 0; trial < 5; trial++ {
			q := randomPredicate(rng)
			stmt, err := sql.Parse("SELECT a, b FROM t WHERE " + q.where)
			if err != nil {
				return false
			}
			p, err := plan.Build(c, stmt.(*sql.SelectStmt))
			if err != nil {
				return false
			}
			want := 0
			for _, r := range rows {
				if q.eval(r.a, r.b) {
					want++
				}
			}
			// Every case runs serial, 2-way and NumCPU-way (0 = auto), with
			// tiny morsels so even these small tables actually fan out; all
			// modes must agree with brute force and, order-normalized, with
			// each other (morsel ordering makes them equal row-for-row too).
			var serialNorm []string
			for _, workers := range []int{1, 2, 0} {
				ex := New(nil)
				ex.Parallelism = workers
				ex.MorselSize = 7
				ex.ScanMorselPages = 1
				res, err := ex.Run(p)
				if err != nil {
					return false
				}
				if len(res.Rows) != want {
					t.Logf("seed %d workers %d: WHERE %s returned %d rows, brute force %d", seed, workers, q.where, len(res.Rows), want)
					return false
				}
				// Every returned row must satisfy the predicate.
				for _, r := range res.Rows {
					if !q.eval(r[0].(int64), r[1].(int64)) {
						return false
					}
				}
				norm := normRows(res.Rows)
				if workers == 1 {
					serialNorm = norm
					continue
				}
				for i := range norm {
					if norm[i] != serialNorm[i] {
						t.Logf("seed %d workers %d: WHERE %s diverged from serial", seed, workers, q.where)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Aggregates must agree with brute-force sums per group.
func TestAggregateMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := ml.NewRNG(seed)
		c := catalog.NewMem()
		tab, _ := c.CreateTable("t", catalog.Schema{Columns: []catalog.Column{
			{Name: "g", Type: catalog.Int64},
			{Name: "v", Type: catalog.Int64},
		}})
		n := 20 + rng.Intn(100)
		sums := map[int64]int64{}
		counts := map[int64]int64{}
		for i := 0; i < n; i++ {
			g, v := int64(rng.Intn(5)), int64(rng.Intn(100))
			tab.Insert(catalog.Row{g, v})
			sums[g] += v
			counts[g]++
		}
		stmt, _ := sql.Parse("SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g")
		p, err := plan.Build(c, stmt.(*sql.SelectStmt))
		if err != nil {
			return false
		}
		// Aggregation must agree with brute force at every parallelism:
		// partial-state merging may not lose or double-count groups.
		for _, workers := range []int{1, 2, 0} {
			ex := New(nil)
			ex.Parallelism = workers
			ex.MorselSize = 7
			ex.ScanMorselPages = 1
			res, err := ex.Run(p)
			if err != nil {
				return false
			}
			if len(res.Rows) != len(sums) {
				return false
			}
			for _, r := range res.Rows {
				g := r[0].(int64)
				if r[1].(int64) != counts[g] || int64(r[2].(float64)) != sums[g] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------
// Differential test: compiled expressions against a reference
// interpreter.

// refScope and refEval are a test-only reference oracle: a
// tree-walking interpreter that resolves every column reference by
// name on every evaluation — the plain semantics the compiled Binder
// must reproduce, value for value and error text for error text.
type refScope struct {
	names  []string
	params []catalog.Value
}

func (s *refScope) resolve(ref *sql.ColumnRef) (int, error) {
	want := ref.Column
	if ref.Table != "" {
		want = ref.Table + "." + ref.Column
	}
	found := -1
	for i, n := range s.names {
		if n == want || strings.HasSuffix(n, "."+want) {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %q", want)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %q (schema: %v)", want, s.names)
	}
	return found, nil
}

func refEval(e sql.Expr, scope *refScope, row catalog.Row, funcs FuncRegistry) (catalog.Value, error) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, nil
	case *sql.FloatLit:
		return v.Value, nil
	case *sql.StringLit:
		return v.Value, nil
	case *sql.ColumnRef:
		idx, err := scope.resolve(v)
		if err != nil {
			return nil, err
		}
		return row[idx], nil
	case *sql.ParamRef:
		if v.Index < 1 || v.Index > len(scope.params) {
			return nil, fmt.Errorf("exec: parameter $%d is not bound (%d bound)", v.Index, len(scope.params))
		}
		return scope.params[v.Index-1], nil
	case *sql.NotExpr:
		b, err := refEvalBool(v.Inner, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		return boolVal(!b), nil
	case *sql.InExpr:
		sub, err := refEval(v.Subject, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		found := false
		for _, item := range v.List {
			iv, err := refEval(item, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			c, err := compare(sub, iv)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				found = true
				break
			}
		}
		return boolVal(found != v.Negated), nil
	case *sql.BetweenExpr:
		sub, err := refEval(v.Subject, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		lo, err := refEval(v.Lo, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		hi, err := refEval(v.Hi, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		geLo, err := compare(sub, lo)
		if err != nil {
			return nil, err
		}
		leHi, err := compare(sub, hi)
		if err != nil {
			return nil, err
		}
		return boolVal(geLo >= 0 && leHi <= 0), nil
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND":
			lb, err := refEvalBool(v.Left, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			if !lb {
				return boolVal(false), nil
			}
			rb, err := refEvalBool(v.Right, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			return boolVal(rb), nil
		case "OR":
			lb, err := refEvalBool(v.Left, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			if lb {
				return boolVal(true), nil
			}
			rb, err := refEvalBool(v.Right, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			return boolVal(rb), nil
		}
		l, err := refEval(v.Left, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		r, err := refEval(v.Right, scope, row, funcs)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			c, err := compare(l, r)
			if err != nil {
				return nil, err
			}
			switch v.Op {
			case "=":
				return boolVal(c == 0), nil
			case "!=":
				return boolVal(c != 0), nil
			case "<":
				return boolVal(c < 0), nil
			case "<=":
				return boolVal(c <= 0), nil
			case ">":
				return boolVal(c > 0), nil
			default:
				return boolVal(c >= 0), nil
			}
		case "+", "-", "*", "/":
			return arith(v.Op, l, r)
		}
		return nil, fmt.Errorf("exec: unsupported operator %q", v.Op)
	case *sql.FuncCall:
		fn, ok := funcs[v.Name]
		if !ok {
			return nil, fmt.Errorf("exec: unknown function %q", v.Name)
		}
		args := make([]catalog.Value, len(v.Args))
		for i, a := range v.Args {
			av, err := refEval(a, scope, row, funcs)
			if err != nil {
				return nil, err
			}
			args[i] = av
		}
		return fn(args)
	case *sql.Star:
		return nil, fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument")
	default:
		return nil, fmt.Errorf("exec: cannot evaluate %T", e)
	}
}

func refEvalBool(e sql.Expr, scope *refScope, row catalog.Row, funcs FuncRegistry) (bool, error) {
	v, err := refEval(e, scope, row, funcs)
	if err != nil {
		return false, err
	}
	switch b := v.(type) {
	case int64:
		return b != 0, nil
	case float64:
		return b != 0, nil
	case string:
		return b != "", nil
	default:
		return false, fmt.Errorf("exec: non-boolean condition value %T", v)
	}
}

// exprGen draws random expression trees over a fixed mixed-type schema.
// Small value domains make ties, zero divisors, int/float equalities
// and type mismatches common.
type exprGen struct{ rng *ml.RNG }

// diffSchema has an int, a float and a string column on t, plus u.i so
// an unqualified "i" is ambiguous.
var diffSchema = []string{"t.i", "t.f", "t.s", "u.i"}

func (g exprGen) value() catalog.Value {
	switch g.rng.Intn(7) {
	case 0, 1:
		return int64(g.rng.Intn(5) - 2)
	case 2, 3:
		return float64(g.rng.Intn(5)-2) / 2
	case 4, 5:
		return []string{"", "a", "b"}[g.rng.Intn(3)]
	default:
		return nil
	}
}

func (g exprGen) row() catalog.Row {
	return catalog.Row{int64(g.rng.Intn(5) - 2), float64(g.rng.Intn(5)-2) / 2, []string{"", "a", "b"}[g.rng.Intn(3)], int64(g.rng.Intn(3))}
}

func (g exprGen) leaf() sql.Expr {
	switch g.rng.Intn(12) {
	case 0:
		return &sql.IntLit{Value: int64(g.rng.Intn(5) - 2)}
	case 1:
		return &sql.FloatLit{Value: float64(g.rng.Intn(5)-2) / 2}
	case 2:
		return &sql.StringLit{Value: []string{"", "a", "b"}[g.rng.Intn(3)]}
	case 3, 4:
		return &sql.ColumnRef{Table: "t", Column: []string{"i", "f", "s"}[g.rng.Intn(3)]}
	case 5:
		return &sql.ColumnRef{Column: []string{"f", "s"}[g.rng.Intn(2)]}
	case 6:
		// Ambiguous ("i" matches t.i and u.i) or unknown.
		return &sql.ColumnRef{Column: []string{"i", "nope"}[g.rng.Intn(2)]}
	case 7, 8:
		return &sql.ParamRef{Index: 1 + g.rng.Intn(3)}
	case 9:
		return &sql.ParamRef{Index: 4} // never bound
	case 10:
		return &sql.Star{}
	default:
		return &sql.ColumnRef{Table: "u", Column: "i"}
	}
}

func (g exprGen) expr(depth int) sql.Expr {
	if depth <= 0 || g.rng.Intn(4) == 0 {
		return g.leaf()
	}
	switch g.rng.Intn(9) {
	case 0, 1, 2:
		ops := []string{"=", "!=", "<", "<=", ">", ">=", "AND", "OR", "+", "-", "*", "/", "%"}
		return &sql.BinaryExpr{Op: ops[g.rng.Intn(len(ops))], Left: g.expr(depth - 1), Right: g.expr(depth - 1)}
	case 3:
		// Column-versus-constant comparisons: the compiled fast path.
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return &sql.BinaryExpr{Op: ops[g.rng.Intn(len(ops))], Left: g.leaf(), Right: g.leaf()}
	case 4:
		return &sql.NotExpr{Inner: g.expr(depth - 1)}
	case 5:
		list := make([]sql.Expr, 1+g.rng.Intn(3))
		for i := range list {
			list[i] = g.expr(depth - 1)
		}
		return &sql.InExpr{Subject: g.expr(depth - 1), List: list, Negated: g.rng.Intn(2) == 0}
	case 6:
		return &sql.BetweenExpr{Subject: g.expr(depth - 1), Lo: g.expr(depth - 1), Hi: g.expr(depth - 1)}
	case 7:
		args := make([]sql.Expr, g.rng.Intn(3))
		for i := range args {
			args[i] = g.expr(depth - 1)
		}
		return &sql.FuncCall{Name: []string{"FIRST", "NOPE"}[g.rng.Intn(2)], Args: args}
	default:
		return g.leaf()
	}
}

func sameOutcome(v1 catalog.Value, e1 error, v2 catalog.Value, e2 error) bool {
	if (e1 == nil) != (e2 == nil) {
		return false
	}
	if e1 != nil {
		return e1.Error() == e2.Error()
	}
	return fmt.Sprintf("%T %v", v1, v1) == fmt.Sprintf("%T %v", v2, v2)
}

// TestCompiledMatchesInterpreted generates random expression trees over
// int, float and string columns and $N parameters — IN, BETWEEN, NOT,
// AND/OR, arithmetic with zero divisors, mixed int/float comparisons,
// type mismatches, ambiguous and unknown columns, unbound placeholders
// and scalar calls — and requires the compiled value and condition
// evaluators to reproduce the reference interpreter's value or error
// text exactly.
func TestCompiledMatchesInterpreted(t *testing.T) {
	funcs := FuncRegistry{"FIRST": func(args []catalog.Value) (catalog.Value, error) {
		if len(args) == 0 {
			return nil, fmt.Errorf("FIRST: no arguments")
		}
		return args[0], nil
	}}
	rng := ml.NewRNG(13)
	g := exprGen{rng: rng}
	errs, cases := 0, 0
	// seen counts reference errors by kind; every kind must come up.
	seen := map[string]int{}
	kinds := []string{"division by zero", "cannot compare", "ambiguous column", "unknown column",
		"is not bound", "non-numeric value", "unknown function", "non-boolean condition",
		"unsupported operator", "'*' is only valid", "FIRST: no arguments"}
	for trial := 0; trial < 4000; trial++ {
		params := []catalog.Value{g.value(), g.value(), g.value()}
		e := g.expr(4)
		b := NewBinder(diffSchema, params, funcs)
		val, pred := b.Value(e), b.Predicate(e)
		ref := &refScope{names: diffSchema, params: params}
		for r := 0; r < 6; r++ {
			row := g.row()
			wantV, wantErr := refEval(e, ref, row, funcs)
			gotV, gotErr := val(row)
			if !sameOutcome(wantV, wantErr, gotV, gotErr) {
				t.Fatalf("%s on %v params %v: compiled (%v, %v), interpreted (%v, %v)", e, row, params, gotV, gotErr, wantV, wantErr)
			}
			wantB, wantErr := refEvalBool(e, ref, row, funcs)
			gotB, gotErr := pred(row)
			if !sameOutcome(wantB, wantErr, gotB, gotErr) {
				t.Fatalf("%s on %v params %v: compiled condition (%v, %v), interpreted (%v, %v)", e, row, params, gotB, gotErr, wantB, wantErr)
			}
			cases++
			if wantErr != nil {
				errs++
				for _, k := range kinds {
					if strings.Contains(wantErr.Error(), k) {
						seen[k]++
					}
				}
			}
		}
	}
	for _, k := range kinds {
		if seen[k] == 0 {
			t.Errorf("no case produced a %q error", k)
		}
	}
	// The generator must exercise both outcomes substantially.
	if errs < cases/10 || errs > cases*9/10 {
		t.Errorf("%d of %d cases errored; generator is lopsided", errs, cases)
	}
}
