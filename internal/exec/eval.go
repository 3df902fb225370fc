// Package exec executes logical plans from internal/plan against catalog
// tables with a streaming, morsel-driven parallel executor: plans
// compile into pull-based BatchOperator pipelines through which pooled
// row chunks (~MorselSize rows, arena-backed) flow scan → filter →
// project → limit without materializing intermediate results. Scans
// split page/key ranges into fixed-size morsels pulled by a
// runtime.NumCPU()-bounded worker set; a filter directly over a heap
// scan is pushed into the page decoder (only the predicate's columns
// are decoded until a row qualifies), other filters and projections
// fuse into the scan workers as row-wise transforms; hash joins build
// hash(key)-partitioned tables from their (escaped) build side and
// stream the probe side; aggregation folds chunks into one partial
// state as they arrive. Chunks hand off through small bounded channels
// drained in morsel order, so parallel results are row-for-row
// identical to serial ones (Executor.Parallelism = 1 pins the serial
// baseline).
//
// Expressions are compiled once per run, never interpreted per row: a
// Binder resolves every column reference to its slot and every $N
// placeholder to its value, and lowers the tree into closures with
// int64/float64/string fast paths. The evaluator has a pluggable
// scalar-function registry (which is how AISQL's PREDICT() reaches
// trained models without an import cycle); registered functions must
// be safe for concurrent use under parallelism.
package exec

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// ScalarFunc is a user-registered scalar function (e.g. PREDICT).
type ScalarFunc func(args []catalog.Value) (catalog.Value, error)

// FuncRegistry resolves scalar function names to implementations.
type FuncRegistry map[string]ScalarFunc

// Evaluator is a compiled scalar expression: it reads its columns from
// row by slot index and returns the expression's value.
type Evaluator func(row catalog.Row) (catalog.Value, error)

// Predicate is a compiled condition: the expression's truth value
// (non-zero numbers and non-empty strings are true).
type Predicate func(row catalog.Row) (bool, error)

// Binder compiles expressions against one input schema: column
// references resolve to slots and $N placeholders to their values once,
// at bind time, so evaluation never sees a name. A reference or
// placeholder that does not resolve compiles to a closure returning the
// resolution error, so — exactly as when every row resolved names
// itself — it fails only rows that actually evaluate it (a
// short-circuited AND arm, or an empty input, never does).
type Binder struct {
	// reads collects the input slots the compiled expressions read (in
	// compile order, possibly repeated).
	reads []int
	// opaque is set once an expression calls a scalar function, whose
	// arguments and cost the executor cannot see through.
	opaque bool

	names  []string
	params []catalog.Value
	funcs  FuncRegistry
}

// NewBinder returns a binder over the input schema names, positional
// parameter values (params[0] binds $1) and scalar functions. Column
// references accept exact qualified matches and unambiguous suffix
// matches.
func NewBinder(names []string, params []catalog.Value, funcs FuncRegistry) *Binder {
	return &Binder{names: names, params: params, funcs: funcs}
}

// resolveColumn finds the slot of a column reference in names; it
// accepts exact qualified matches and unambiguous suffix matches. It
// runs at bind time only.
func resolveColumn(names []string, ref *sql.ColumnRef) (int, error) {
	want := ref.String()
	found := -1
	for i, n := range names {
		if n == want || strings.HasSuffix(n, "."+want) {
			if found >= 0 {
				return 0, fmt.Errorf("exec: ambiguous column %q", want)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("exec: unknown column %q (schema: %v)", want, names)
	}
	return found, nil
}

func constant(v catalog.Value) Evaluator {
	return func(catalog.Row) (catalog.Value, error) { return v, nil }
}

func fail(err error) Evaluator {
	return func(catalog.Row) (catalog.Value, error) { return nil, err }
}

// constOf reports e's value when it is fixed for the whole run: a
// literal or a bound placeholder.
func (b *Binder) constOf(e sql.Expr) (catalog.Value, bool) {
	switch v := e.(type) {
	case *sql.IntLit:
		return v.Value, true
	case *sql.FloatLit:
		return v.Value, true
	case *sql.StringLit:
		return v.Value, true
	case *sql.ParamRef:
		if v.Index >= 1 && v.Index <= len(b.params) {
			return b.params[v.Index-1], true
		}
	}
	return nil, false
}

// slot resolves a column reference, recording the read.
func (b *Binder) slot(ref *sql.ColumnRef) (int, error) {
	idx, err := resolveColumn(b.names, ref)
	if err == nil {
		b.reads = append(b.reads, idx)
	}
	return idx, err
}

// Value compiles e into a scalar evaluator.
func (b *Binder) Value(e sql.Expr) Evaluator {
	if c, ok := b.constOf(e); ok {
		return constant(c)
	}
	switch v := e.(type) {
	case *sql.ColumnRef:
		idx, err := b.slot(v)
		if err != nil {
			return fail(err)
		}
		return func(row catalog.Row) (catalog.Value, error) { return row[idx], nil }
	case *sql.ParamRef:
		return fail(fmt.Errorf("exec: parameter $%d is not bound (%d bound)", v.Index, len(b.params)))
	case *sql.NotExpr, *sql.InExpr, *sql.BetweenExpr:
		return boolValue(b.Predicate(e))
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND", "OR", "=", "!=", "<", "<=", ">", ">=":
			return boolValue(b.Predicate(e))
		}
		l, r := b.Value(v.Left), b.Value(v.Right)
		op := v.Op
		switch op {
		case "+", "-", "*", "/":
			return func(row catalog.Row) (catalog.Value, error) {
				lv, err := l(row)
				if err != nil {
					return nil, err
				}
				rv, err := r(row)
				if err != nil {
					return nil, err
				}
				return arith(op, lv, rv)
			}
		}
		return func(row catalog.Row) (catalog.Value, error) {
			if _, err := l(row); err != nil {
				return nil, err
			}
			if _, err := r(row); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("exec: unsupported operator %q", op)
		}
	case *sql.FuncCall:
		b.opaque = true
		fn, ok := b.funcs[v.Name]
		if !ok {
			return fail(fmt.Errorf("exec: unknown function %q", v.Name))
		}
		args := make([]Evaluator, len(v.Args))
		for i, a := range v.Args {
			args[i] = b.Value(a)
		}
		return func(row catalog.Row) (catalog.Value, error) {
			vals := make([]catalog.Value, len(args))
			for i, a := range args {
				av, err := a(row)
				if err != nil {
					return nil, err
				}
				vals[i] = av
			}
			return fn(vals)
		}
	case *sql.Star:
		return fail(fmt.Errorf("exec: '*' is only valid as a projection or COUNT argument"))
	default:
		return fail(fmt.Errorf("exec: cannot evaluate %T", e))
	}
}

// Eval compiles and evaluates e once, against row. It serves
// expressions evaluated a single time, such as INSERT values and
// EXECUTE arguments, where a literal needs no closure.
func (b *Binder) Eval(e sql.Expr, row catalog.Row) (catalog.Value, error) {
	if c, ok := b.constOf(e); ok {
		return c, nil
	}
	return b.Value(e)(row)
}

// Predicate compiles e into a condition evaluator.
func (b *Binder) Predicate(e sql.Expr) Predicate {
	switch v := e.(type) {
	case *sql.NotExpr:
		in := b.Predicate(v.Inner)
		return func(row catalog.Row) (bool, error) {
			ok, err := in(row)
			return !ok && err == nil, err
		}
	case *sql.InExpr:
		// Fixed items (literals, bound placeholders — the common case,
		// often a long list) bind to their values; items[i] is nil for
		// them, so only computed items cost a closure call per row.
		sub := b.Value(v.Subject)
		vals := make([]catalog.Value, len(v.List))
		items := make([]Evaluator, len(v.List))
		for i, it := range v.List {
			if c, ok := b.constOf(it); ok {
				vals[i] = c
			} else {
				items[i] = b.Value(it)
			}
		}
		negated := v.Negated
		return func(row catalog.Row) (bool, error) {
			sv, err := sub(row)
			if err != nil {
				return false, err
			}
			for i, item := range items {
				iv := vals[i]
				if item != nil {
					if iv, err = item(row); err != nil {
						return false, err
					}
				}
				c, err := compare(sv, iv)
				if err != nil {
					return false, err
				}
				if c == 0 {
					return !negated, nil
				}
			}
			return negated, nil
		}
	case *sql.BetweenExpr:
		sub, lo, hi := b.Value(v.Subject), b.Value(v.Lo), b.Value(v.Hi)
		return func(row catalog.Row) (bool, error) {
			sv, err := sub(row)
			if err != nil {
				return false, err
			}
			lv, err := lo(row)
			if err != nil {
				return false, err
			}
			hv, err := hi(row)
			if err != nil {
				return false, err
			}
			geLo, err := compare(sv, lv)
			if err != nil {
				return false, err
			}
			leHi, err := compare(sv, hv)
			if err != nil {
				return false, err
			}
			return geLo >= 0 && leHi <= 0, nil
		}
	case *sql.BinaryExpr:
		switch v.Op {
		case "AND", "OR":
			l, r := b.Predicate(v.Left), b.Predicate(v.Right)
			short := v.Op == "OR"
			return func(row catalog.Row) (bool, error) {
				lb, err := l(row)
				if err != nil {
					return false, err
				}
				if lb == short {
					return short, nil
				}
				return r(row)
			}
		case "=", "!=", "<", "<=", ">", ">=":
			return b.comparison(v)
		}
	}
	val := b.Value(e)
	return func(row catalog.Row) (bool, error) {
		v, err := val(row)
		if err != nil {
			return false, err
		}
		return truth(v)
	}
}

// cmpMask encodes a comparison operator as the set of compare results
// (-1, 0, 1 at bits 0, 1, 2) that satisfy it.
func cmpMask(op string) uint8 {
	switch op {
	case "=":
		return 0b010
	case "!=":
		return 0b101
	case "<":
		return 0b001
	case "<=":
		return 0b011
	case ">":
		return 0b100
	default: // ">="
		return 0b110
	}
}

// comparison lowers a comparison. The common column-versus-constant
// shape reads the slot directly and compares same-typed values without
// the generic type switch.
func (b *Binder) comparison(v *sql.BinaryExpr) Predicate {
	mask := cmpMask(v.Op)
	ref, isCol := v.Left.(*sql.ColumnRef)
	k, isConst := b.constOf(v.Right)
	if isCol && isConst {
		if idx, err := b.slot(ref); err == nil {
			switch kv := k.(type) {
			case int64:
				return cmpSlotConst(idx, kv, mask, cmpI)
			case float64:
				return cmpSlotConst(idx, kv, mask, cmpF)
			case string:
				return cmpSlotConst(idx, kv, mask, strings.Compare)
			}
		}
	}
	l, r := b.Value(v.Left), b.Value(v.Right)
	return func(row catalog.Row) (bool, error) {
		lv, err := l(row)
		if err != nil {
			return false, err
		}
		rv, err := r(row)
		if err != nil {
			return false, err
		}
		return cmpTest(mask, lv, rv)
	}
}

// cmpSlotConst compares slot idx against k: directly when the slot
// holds a T, through the generic compare (promotion, type errors)
// otherwise.
func cmpSlotConst[T int64 | float64 | string](idx int, k T, mask uint8, cmp func(a, b T) int) Predicate {
	return func(row catalog.Row) (bool, error) {
		if a, ok := row[idx].(T); ok {
			return mask&(1<<(cmp(a, k)+1)) != 0, nil
		}
		return cmpTest(mask, row[idx], k)
	}
}

func cmpTest(mask uint8, a, b catalog.Value) (bool, error) {
	c, err := compare(a, b)
	if err != nil {
		return false, err
	}
	return mask&(1<<(c+1)) != 0, nil
}

// boolValue adapts a condition to a scalar evaluator (int64 0/1).
func boolValue(p Predicate) Evaluator {
	return func(row catalog.Row) (catalog.Value, error) {
		ok, err := p(row)
		if err != nil {
			return nil, err
		}
		return boolVal(ok), nil
	}
}

// truth coerces a value to a condition result.
func truth(v catalog.Value) (bool, error) {
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

func boolVal(b bool) catalog.Value {
	if b {
		return int64(1)
	}
	return int64(0)
}

// compare returns -1, 0 or 1 ordering a and b, promoting ints to floats.
func compare(a, b catalog.Value) (int, error) {
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpI(av, bv), nil
		case float64:
			return cmpF(float64(av), bv), nil
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return cmpF(av, float64(bv)), nil
		case float64:
			return cmpF(av, bv), nil
		}
	case string:
		if bv, ok := b.(string); ok {
			return strings.Compare(av, bv), nil
		}
	}
	return 0, fmt.Errorf("exec: cannot compare %T with %T", a, b)
}

func cmpI(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func arith(op string, a, b catalog.Value) (catalog.Value, error) {
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	if aok && bok {
		switch op {
		case "+":
			return ai + bi, nil
		case "-":
			return ai - bi, nil
		case "*":
			return ai * bi, nil
		case "/":
			if bi == 0 {
				return nil, fmt.Errorf("exec: division by zero")
			}
			return ai / bi, nil
		}
	}
	af, err := toFloat(a)
	if err != nil {
		return nil, err
	}
	bf, err := toFloat(b)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return af + bf, nil
	case "-":
		return af - bf, nil
	case "*":
		return af * bf, nil
	case "/":
		if bf == 0 {
			return nil, fmt.Errorf("exec: division by zero")
		}
		return af / bf, nil
	}
	return nil, fmt.Errorf("exec: unsupported arithmetic operator %q", op)
}

func toFloat(v catalog.Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	default:
		return 0, fmt.Errorf("exec: non-numeric value %T in arithmetic", v)
	}
}
