package aisql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aidb/internal/cardest"
	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/plancache"
	"aidb/internal/sql"
	"aidb/internal/storage"
)

// Engine executes SQL and AISQL statements against a catalog. It is the
// end-to-end database handle: parser -> planner -> executor, with the
// model registry wired into the executor's scalar-function table so
// PREDICT(model, features...) works inside any query.
type Engine struct {
	Cat *catalog.Catalog

	// Chaos, when set, is handed to every executor this engine creates,
	// enabling fault injection at the exec.* sites. Nil disables it.
	Chaos *chaos.Injector

	// Parallelism is handed to every executor this engine creates (see
	// exec.Executor.Parallelism: 0 = auto/NumCPU, 1 = serial). Set it
	// between queries, not concurrently with them.
	Parallelism int

	// Feedback, when set, receives one (estimated, actual) cardinality
	// observation per profiled operator after every EXPLAIN ANALYZE —
	// the estimation-error channel learned estimators retrain from. Nil
	// disables feedback collection.
	Feedback *cardest.FeedbackLog

	// MemLimit, when positive, caps the bytes any single query may
	// materialize: each query gets a fresh governance.MemBudget of this
	// size and aborts with governance.ErrMemBudget on overrun. Zero
	// disables per-query budgets. Set it between queries.
	MemLimit int64

	// Plans, when set, caches compiled SELECT plans so repeated
	// statements skip parse/plan/optimize entirely: ad-hoc statements
	// are keyed by raw text (hit = no parser call), prepared statements
	// by canonical deparse (hit = shared plan across sessions). Nil
	// disables caching; invalidation on DDL/ANALYZE routes through it.
	Plans *plancache.Cache

	mu      sync.RWMutex
	models  map[string]*Model
	indexes map[string]*secondaryIndex

	// Observability plane, wired by Instrument. All fields are nil-safe
	// when the engine is uninstrumented.
	tracer      *obs.Tracer
	execObs     exec.Metrics
	govObs      governance.Metrics
	stmts       *obs.Counter
	parseErrors *obs.Counter
	parses      *obs.Counter
	planBuilds  *obs.Counter
	stmtstats   *obs.StatementStats
}

// Instrument wires the engine — and every executor it creates — to the
// observability registry and tracer, and attaches the per-fingerprint
// statement store that captures every executed SELECT. Either argument
// may be nil to disable that half; call before serving queries.
func (e *Engine) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	e.tracer = tr
	e.execObs = exec.NewMetrics(reg)
	e.govObs = governance.NewMetrics(reg)
	e.stmts = reg.Counter("sql.statements")
	e.parseErrors = reg.Counter("sql.parse_errors")
	// sql.parses and plan.builds count pipeline-stage invocations, not
	// statements: a plan-cache hit increments neither, which is how the
	// cache's "no parser, no planner on the hot path" claim is asserted.
	e.parses = reg.Counter("sql.parses")
	e.planBuilds = reg.Counter("plan.builds")
	e.stmtstats = obs.NewStatementStats(0)
}

// Stmts returns the engine's per-fingerprint statement statistics store
// (nil when the engine is uninstrumented). It is the source behind
// system.statements, system.slow_queries and the /statements endpoint.
func (e *Engine) Stmts() *obs.StatementStats { return e.stmtstats }

// RecordShed folds one admission-gate rejection into the statement
// store under the synthetic "(admission)" fingerprint. Gate sheds
// happen before parsing, so no plan fingerprint exists for them; the
// synthetic entry keeps shed load visible in system.statements. No-op
// when uninstrumented.
func (e *Engine) RecordShed(query string) {
	if query == "" {
		query = "(admission)"
	}
	e.stmtstats.Record(obs.StmtObservation{
		Fingerprint: "(admission)",
		Query:       query,
		Outcome:     obs.StmtShed,
	})
}

// QueryRows executes one SQL statement and returns just its rows — the
// narrow closing-the-loop interface components like the index advisor
// and SQL KPI rules use to read system.* tables through the engine
// instead of holding private store pointers.
func (e *Engine) QueryRows(query string) ([]catalog.Row, error) {
	res, err := e.Execute(query)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// NewEngine creates an engine over an in-memory catalog.
func NewEngine() *Engine {
	return &Engine{Cat: catalog.NewMem(), models: map[string]*Model{}}
}

// NewEngineWith uses an existing catalog.
func NewEngineWith(cat *catalog.Catalog) *Engine {
	return &Engine{Cat: cat, models: map[string]*Model{}}
}

// RetrainModel refits a registered model on the current contents of its
// training table — the paper's §2.3 in-database-training challenge of
// "updating a model when the data is dynamically updated". The model is
// swapped atomically; concurrent PREDICT calls see either the old or the
// new version, never a partially trained one.
func (e *Engine) RetrainModel(name string) error {
	old, err := e.Model(name)
	if err != nil {
		return err
	}
	t, err := e.Cat.Table(old.Table)
	if err != nil {
		return err
	}
	fresh, err := TrainModel(old.Name, old.Kind, t, old.Features, old.Label, nil)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.models[name] = fresh
	e.mu.Unlock()
	return nil
}

// Model returns a registered model.
func (e *Engine) Model(name string) (*Model, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	m, ok := e.models[name]
	if !ok {
		return nil, fmt.Errorf("aisql: model %q does not exist", name)
	}
	return m, nil
}

// Models lists registered model names in sorted order.
func (e *Engine) Models() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.models))
	for n := range e.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// funcs builds the scalar-function registry, including PREDICT and
// PREDICT_PROBA. The first argument of each is the model name (a column
// reference lexically, so it arrives as a string via special handling in
// Execute; here it is matched as a string value).
func (e *Engine) funcs() exec.FuncRegistry {
	predict := func(proba bool) exec.ScalarFunc {
		return func(args []catalog.Value) (catalog.Value, error) {
			if len(args) < 2 {
				return nil, fmt.Errorf("aisql: PREDICT needs a model and at least one feature")
			}
			name, ok := args[0].(string)
			if !ok {
				return nil, fmt.Errorf("aisql: PREDICT's first argument must be a model name")
			}
			m, err := e.Model(name)
			if err != nil {
				return nil, err
			}
			f := make([]float64, len(args)-1)
			for i, a := range args[1:] {
				v, err := toF64(a)
				if err != nil {
					return nil, fmt.Errorf("aisql: PREDICT feature %d: %w", i, err)
				}
				f[i] = v
			}
			if proba {
				return m.PredictProba(f)
			}
			v, err := m.Predict(f)
			if err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	return exec.FuncRegistry{
		"PREDICT":       predict(false),
		"PREDICT_PROBA": predict(true),
	}
}

// Execute parses and runs one statement without a cancellation context
// (equivalent to ExecuteContext with context.Background()).
func (e *Engine) Execute(query string) (*exec.Result, error) {
	return e.ExecuteContext(context.Background(), query)
}

// ExecuteContext parses and runs one statement, returning a result set
// (possibly empty for DDL/DML). ctx cancellation or deadline expiry
// aborts execution cooperatively — SELECTs stop within about one morsel
// per worker and return no partial result. Each call is one root span
// on the engine's tracer: parse -> plan -> optimize -> exec — unless
// the plan cache recognizes the raw statement text, in which case the
// parser and planner never run and the span goes straight to exec.
func (e *Engine) ExecuteContext(ctx context.Context, query string) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	if e.Plans != nil {
		if ent := e.Plans.Lookup("text:" + query); ent != nil && ent.NumParams == 0 {
			e.stmts.Inc()
			sp.SetTag("stmt", "SELECT")
			sp.SetTag("plancache", "hit")
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					e.execObs.CancelRequests.Inc()
					return nil, err
				}
			}
			return e.execPlan(ctx, ent.Plan, ent.Fingerprint, sp, query, nil)
		}
	}
	psp := sp.Child("parse")
	parseStart := time.Now()
	stmt, err := sql.Parse(query)
	parseNs := time.Since(parseStart).Nanoseconds()
	psp.Finish()
	e.stmts.Inc()
	e.parses.Inc()
	if err != nil {
		e.parseErrors.Inc()
		sp.SetTag("error", "parse")
		return nil, err
	}
	sp.SetTag("stmt", sql.StatementKind(stmt))
	return e.executeStmt(ctx, stmt, sp, query, parseNs)
}

// ParseScript parses a ';'-separated script into statements, counting
// parse failures like Execute does. Callers that need per-statement
// control (timeouts, admission) parse once and run each statement
// through ExecuteStmtContext.
func (e *Engine) ParseScript(script string) ([]sql.Statement, error) {
	stmts, err := sql.ParseAll(script)
	if err != nil {
		e.parseErrors.Inc()
		return nil, err
	}
	return stmts, nil
}

// ExecuteScript runs a ';'-separated script, returning the last result.
func (e *Engine) ExecuteScript(script string) (*exec.Result, error) {
	stmts, err := e.ParseScript(script)
	if err != nil {
		return nil, err
	}
	var last *exec.Result
	for _, s := range stmts {
		last, err = e.ExecuteStmt(s)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// ExecuteStmt runs one parsed statement under its own trace span.
func (e *Engine) ExecuteStmt(stmt sql.Statement) (*exec.Result, error) {
	return e.ExecuteStmtContext(context.Background(), stmt)
}

// ExecuteStmtContext runs one parsed statement under its own trace
// span, honouring ctx like ExecuteContext.
func (e *Engine) ExecuteStmtContext(ctx context.Context, stmt sql.Statement) (*exec.Result, error) {
	sp := e.tracer.Start("query")
	defer sp.Finish()
	sp.SetTag("stmt", sql.StatementKind(stmt))
	e.stmts.Inc()
	return e.executeStmt(ctx, stmt, sp, "", 0)
}

// executeStmt dispatches one parsed statement, attaching child spans to
// sp (which may be nil when tracing is off). text is the raw query text
// when the statement came in through Execute, "" for pre-parsed
// statements — the statement store falls back to the statement kind.
// parseNs is what parsing the statement cost (0 when pre-parsed); it
// folds into the plan-cache entry's PlanNs so each hit's banked saving
// covers the whole skipped pipeline.
func (e *Engine) executeStmt(ctx context.Context, stmt sql.Statement, sp *obs.Span, text string, parseNs int64) (*exec.Result, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			// Cancelled before any work: count it on the same metric the
			// executor uses so \metrics sees every cancelled statement.
			e.execObs.CancelRequests.Inc()
			return nil, err
		}
	}
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		e.invalidatePlans()
		return e.createTable(s)
	case *sql.InsertStmt:
		return e.insert(s, nil)
	case *sql.SelectStmt:
		return e.query(ctx, s, sp, text, parseNs)
	case *sql.UpdateStmt:
		return e.update(s, nil)
	case *sql.DeleteStmt:
		return e.delete(s, nil)
	case *sql.CreateIndexStmt:
		// New access path: cached full-scan plans must replan to use it.
		e.invalidatePlans()
		return emptyResult(), e.createIndex(s.Name, s.Table, s.Column)
	case *sql.DropTableStmt:
		// Cached plans hold live table and index pointers; drop them all.
		e.invalidatePlans()
		e.mu.Lock()
		for key, si := range e.indexes {
			if si.table == s.Name {
				delete(e.indexes, key)
			}
		}
		e.mu.Unlock()
		return emptyResult(), e.Cat.DropTable(s.Name)
	case *sql.CreateModelStmt:
		return e.createModel(s)
	case *sql.EvaluateModelStmt:
		return e.evaluateModel(s)
	case *sql.DropModelStmt:
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, ok := e.models[s.Name]; !ok {
			return nil, fmt.Errorf("aisql: model %q does not exist", s.Name)
		}
		delete(e.models, s.Name)
		return emptyResult(), nil
	case *sql.ShowStmt:
		res := &exec.Result{Columns: []string{strings.ToLower(s.What)}}
		var names []string
		if s.What == "TABLES" {
			names = e.Cat.Tables()
		} else {
			names = e.Models()
		}
		for _, n := range names {
			res.Rows = append(res.Rows, catalog.Row{n})
		}
		return res, nil
	case *sql.ExplainStmt:
		if a, ok := s.Inner.(*sql.AnalyzeStmt); ok {
			// Legacy spelling: `EXPLAIN ANALYZE t` (bare table name)
			// parses as EXPLAIN over ANALYZE — run the statistics
			// refresh rather than profiling.
			return e.executeStmt(ctx, a, sp, text, parseNs)
		}
		sel, ok := s.Inner.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("aisql: EXPLAIN supports only SELECT")
		}
		if s.Analyze {
			return e.explainAnalyze(ctx, sel, sp, text)
		}
		p, err := plan.Build(e.Cat, e.rewritePredicts(sel))
		if err != nil {
			return nil, err
		}
		// Show the plan exactly as the query path would execute it.
		p = plan.OptimizeFilters(p)
		p = plan.UseIndexes(p, e.indexLookup())
		return &exec.Result{Columns: []string{"plan"}, Rows: []catalog.Row{{plan.Explain(p)}}}, nil
	case *sql.AnalyzeStmt:
		t, err := e.Cat.Table(s.Table)
		if err != nil {
			return nil, err
		}
		// Fresh statistics change join build sides and index choices —
		// every frozen estimate in the cache is stale now.
		e.invalidatePlans()
		return emptyResult(), t.Analyze(32, 8)
	case *sql.PrepareStmt, *sql.ExecuteStmt, *sql.DeallocateStmt,
		*sql.BeginStmt, *sql.CommitStmt, *sql.RollbackStmt:
		return nil, fmt.Errorf("aisql: %s requires a session (use core.Session or aidb-serve)", sql.StatementKind(stmt))
	default:
		return nil, fmt.Errorf("aisql: unsupported statement %T", stmt)
	}
}

// invalidatePlans discards every cached plan. Called on any DDL or
// statistics refresh; no-op when the engine has no plan cache.
func (e *Engine) invalidatePlans() {
	if e.Plans != nil {
		e.Plans.Invalidate()
	}
}

func emptyResult() *exec.Result { return &exec.Result{} }

func (e *Engine) createTable(s *sql.CreateTableStmt) (*exec.Result, error) {
	var schema catalog.Schema
	for _, c := range s.Columns {
		var t catalog.ColType
		switch c.Type {
		case "INT":
			t = catalog.Int64
		case "FLOAT":
			t = catalog.Float64
		default:
			t = catalog.String
		}
		schema.Columns = append(schema.Columns, catalog.Column{Name: c.Name, Type: t})
	}
	_, err := e.Cat.CreateTable(s.Name, schema)
	return emptyResult(), err
}

func (e *Engine) insert(s *sql.InsertStmt, params []catalog.Value) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	b := exec.NewBinder(nil, params, nil)
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(t.Schema.Columns) {
			return nil, fmt.Errorf("aisql: INSERT has %d values for %d columns", len(exprRow), len(t.Schema.Columns))
		}
		row := make(catalog.Row, len(exprRow))
		for i, ex := range exprRow {
			v, err := b.Eval(ex, nil)
			if err != nil {
				return nil, fmt.Errorf("aisql: INSERT value %d: %w", i, err)
			}
			row[i], err = coerce(v, t.Schema.Columns[i].Type)
			if err != nil {
				return nil, err
			}
		}
		rid, err := t.Insert(row)
		if err != nil {
			return nil, err
		}
		e.syncIndexesInsert(t.Name, rid, row)
	}
	return emptyResult(), nil
}

func coerce(v catalog.Value, t catalog.ColType) (catalog.Value, error) {
	switch t {
	case catalog.Int64:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		}
	case catalog.Float64:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case catalog.String:
		if x, ok := v.(string); ok {
			return x, nil
		}
	}
	return nil, fmt.Errorf("aisql: cannot store %T as %v", v, t)
}

// rewritePredicts converts PREDICT(model, ...) calls whose first argument
// parsed as a bare column reference into a string literal (the model
// name), so evaluation sees the registry key.
func (e *Engine) rewritePredicts(s *sql.SelectStmt) *sql.SelectStmt {
	for i := range s.Items {
		s.Items[i].Expr = rewriteExpr(s.Items[i].Expr)
	}
	if s.Where != nil {
		s.Where = rewriteExpr(s.Where)
	}
	for i := range s.GroupBy {
		s.GroupBy[i] = rewriteExpr(s.GroupBy[i])
	}
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = rewriteExpr(s.OrderBy[i].Expr)
	}
	return s
}

func rewriteExpr(ex sql.Expr) sql.Expr {
	switch v := ex.(type) {
	case *sql.FuncCall:
		if (v.Name == "PREDICT" || v.Name == "PREDICT_PROBA") && len(v.Args) > 0 {
			if c, ok := v.Args[0].(*sql.ColumnRef); ok && c.Table == "" {
				v.Args[0] = &sql.StringLit{Value: c.Column}
			}
		}
		for i := range v.Args {
			v.Args[i] = rewriteExpr(v.Args[i])
		}
	case *sql.BinaryExpr:
		v.Left = rewriteExpr(v.Left)
		v.Right = rewriteExpr(v.Right)
	case *sql.NotExpr:
		v.Inner = rewriteExpr(v.Inner)
	case *sql.BetweenExpr:
		v.Subject = rewriteExpr(v.Subject)
		v.Lo = rewriteExpr(v.Lo)
		v.Hi = rewriteExpr(v.Hi)
	}
	return ex
}

// buildSelectPlan compiles one SELECT: build, optimize, choose index
// access paths, and freeze cardinality decisions (join build sides)
// into the plan so executing a cached copy never re-invokes an
// estimator. The returned plan is immutable and safe to share across
// concurrent executors.
func (e *Engine) buildSelectPlan(s *sql.SelectStmt) (plan.Node, error) {
	return e.buildRewrittenPlan(e.rewritePredicts(s))
}

// buildRewrittenPlan is buildSelectPlan for an AST whose PREDICT()
// model references were already rewritten — prepared statements rewrite
// once at PREPARE time so replans never mutate a shared AST.
func (e *Engine) buildRewrittenPlan(s *sql.SelectStmt) (plan.Node, error) {
	e.planBuilds.Inc()
	p, err := plan.Build(e.Cat, s)
	if err != nil {
		return nil, err
	}
	// AI-operator pushdown: run cheap relational predicates before model
	// invocations (the executor short-circuits conjunctions).
	p = plan.OptimizeFilters(p)
	// Secondary-index access paths for filters over indexed columns.
	p = plan.UseIndexes(p, e.indexLookup())
	// Freeze build-side choices at plan time (estimator runs here, once).
	plan.AnnotateBuildSides(p, plan.HistogramEstimator{})
	return p, nil
}

func (e *Engine) query(ctx context.Context, s *sql.SelectStmt, sp *obs.Span, text string, parseNs int64) (*exec.Result, error) {
	planStart := time.Now()
	psp := sp.Child("plan")
	p, err := e.buildSelectPlan(s)
	psp.Finish()
	if err != nil {
		return nil, err
	}
	if e.Plans != nil && text != "" && sql.CountParams(s) == 0 {
		// Cache under the raw text so the identical statement next time
		// skips the parser too. Parameterized ad-hoc statements are not
		// cacheable here (nothing binds their $N values on this path).
		e.Plans.Put(&plancache.Entry{
			Key:         "text:" + text,
			Fingerprint: plan.Fingerprint(p),
			Plan:        p,
			PlanNs:      parseNs + time.Since(planStart).Nanoseconds(),
		})
	}
	return e.execPlan(ctx, p, plan.Fingerprint(p), sp, text, nil)
}

// execPlan runs a compiled plan — the shared tail of the cold path and
// the plan-cache hit path. params carries EXECUTE bindings (nil for
// ad-hoc statements); the plan itself is treated as read-only so one
// cached copy may execute on any number of sessions at once.
func (e *Engine) execPlan(ctx context.Context, p plan.Node, fp string, sp *obs.Span, text string, params []catalog.Value) (*exec.Result, error) {
	start := time.Now()
	chaosBefore := e.Chaos.FireCounts()
	if sp != nil {
		nodes, depth := plan.Summary(p)
		sp.SetTagf("plan", "nodes=%d,depth=%d", nodes, depth)
	}
	esp := sp.Child("exec")
	ex := exec.New(e.funcs())
	ex.Chaos = e.Chaos
	ex.Obs = e.execObs
	ex.Parallelism = e.Parallelism
	ex.Params = params
	if e.MemLimit > 0 {
		ex.Mem = governance.NewMemBudget(e.MemLimit, e.govObs)
	}
	res, err := ex.RunContext(ctx, p)
	esp.Finish()
	e.record(text, "SELECT", fp, time.Since(start), res, err, "", chaosBefore)
	return res, err
}

// record folds one statement execution into the statement store. The
// outcome is classified from err: cancellations (context cancel or
// deadline), load-management rejections (memory budget, shedding) and
// plain errors count separately per fingerprint. A successful run also
// reports its rows, profile and the chaos faults that fired since
// chaosBefore, attributing chaos-injected latency to the statement that
// absorbed it. No-op when the engine is uninstrumented.
func (e *Engine) record(text, kind, fp string, latency time.Duration, res *exec.Result, err error, profile string, chaosBefore map[string]uint64) {
	if e.stmtstats == nil {
		return
	}
	if text == "" {
		text = kind
	}
	o := obs.StmtObservation{Fingerprint: fp, Query: text, LatencyNs: latency.Nanoseconds()}
	switch {
	case err == nil:
		o.Rows = int64(len(res.Rows))
		o.Chunks = res.Chunks
		o.PeakBytes = res.PeakBytes
		o.Profile = profile
		for site, n := range e.Chaos.FireCounts() {
			if d := n - chaosBefore[site]; d > 0 {
				if o.ChaosFires == nil {
					o.ChaosFires = make(map[string]uint64)
				}
				o.ChaosFires[site] = d
			}
		}
	case exec.IsCancellation(err):
		o.Outcome = obs.StmtCancel
	case errors.Is(err, governance.ErrMemBudget), errors.Is(err, governance.ErrShed):
		o.Outcome = obs.StmtShed
	default:
		o.Outcome = obs.StmtError
	}
	e.stmtstats.Record(o)
}

func (e *Engine) update(s *sql.UpdateStmt, params []catalog.Value) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	for col := range s.Set {
		if t.Schema.ColIndex(col) < 0 {
			return nil, fmt.Errorf("aisql: unknown column %q in table %s", col, t.Name)
		}
	}
	names := schemaNames(t)
	where := e.bindWhere(s.Where, names, params)
	// set holds each assigned column's compiled expression (nil where
	// the column keeps its value), evaluated in column order.
	set := make([]exec.Evaluator, len(t.Schema.Columns))
	b := exec.NewBinder(names, params, e.funcs())
	for col, ex := range s.Set {
		set[t.Schema.ColIndex(col)] = b.Value(ex)
	}
	type change struct {
		rid    storage.RecordID
		oldRow catalog.Row
		row    catalog.Row
	}
	// Changes are collected before any is applied, so an evaluation
	// error stops the scan with the table untouched.
	var changes []change
	var evalErr error
	scanErr := t.Scan(func(rid storage.RecordID, row catalog.Row) bool {
		ok, err := where(row)
		if err != nil {
			evalErr = err
			return false
		}
		if !ok {
			return true
		}
		newRow := append(catalog.Row{}, row...)
		for idx, val := range set {
			if val == nil {
				continue
			}
			v, err := val(row)
			if err == nil {
				v, err = coerce(v, t.Schema.Columns[idx].Type)
			}
			if err != nil {
				evalErr = err
				return false
			}
			newRow[idx] = v
		}
		changes = append(changes, change{rid, row, newRow})
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if evalErr != nil {
		return nil, evalErr
	}
	for _, ch := range changes {
		if err := t.Delete(ch.rid); err != nil {
			return nil, err
		}
		e.syncIndexesDelete(t.Name, ch.rid, ch.oldRow)
		newRid, err := t.Insert(ch.row)
		if err != nil {
			return nil, err
		}
		e.syncIndexesInsert(t.Name, newRid, ch.row)
	}
	return emptyResult(), nil
}

func (e *Engine) delete(s *sql.DeleteStmt, params []catalog.Value) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	where := e.bindWhere(s.Where, schemaNames(t), params)
	type victim struct {
		rid storage.RecordID
		row catalog.Row
	}
	var victims []victim
	var evalErr error
	scanErr := t.Scan(func(rid storage.RecordID, row catalog.Row) bool {
		ok, err := where(row)
		if err != nil {
			evalErr = err
			return false
		}
		if ok {
			victims = append(victims, victim{rid, row})
		}
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}
	if evalErr != nil {
		return nil, evalErr
	}
	for _, v := range victims {
		if err := t.Delete(v.rid); err != nil {
			return nil, err
		}
		e.syncIndexesDelete(t.Name, v.rid, v.row)
	}
	return emptyResult(), nil
}

// bindWhere compiles a DML WHERE clause against the target table's
// columns; a missing clause matches every row.
func (e *Engine) bindWhere(where sql.Expr, names []string, params []catalog.Value) exec.Predicate {
	if where == nil {
		return func(catalog.Row) (bool, error) { return true, nil }
	}
	return exec.NewBinder(names, params, e.funcs()).Predicate(where)
}

func schemaNames(t *catalog.Table) []string {
	names := make([]string, len(t.Schema.Columns))
	for i, c := range t.Schema.Columns {
		names[i] = t.Name + "." + c.Name
	}
	return names
}

func (e *Engine) createModel(s *sql.CreateModelStmt) (*exec.Result, error) {
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	kind, err := ParseModelKind(s.Options["kind"])
	if err != nil {
		return nil, err
	}
	features := s.Features
	if len(features) == 0 {
		// Default: all numeric columns except the label.
		for _, c := range t.Schema.Columns {
			if c.Name != s.Label && c.Type != catalog.String {
				features = append(features, c.Name)
			}
		}
	}
	m, err := TrainModel(s.Name, kind, t, features, s.Label, s.Options)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.models[s.Name]; ok {
		return nil, fmt.Errorf("aisql: model %q already exists", s.Name)
	}
	e.models[s.Name] = m
	return emptyResult(), nil
}

func (e *Engine) evaluateModel(s *sql.EvaluateModelStmt) (*exec.Result, error) {
	m, err := e.Model(s.Name)
	if err != nil {
		return nil, err
	}
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, err
	}
	met, err := m.Evaluate(t)
	if err != nil {
		return nil, err
	}
	return &exec.Result{
		Columns: []string{"rows", "accuracy", "mse"},
		Rows:    []catalog.Row{{int64(met.Rows), met.Accuracy, met.MSE}},
	}, nil
}
