package idxadvisor

import (
	"fmt"
	"sort"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/obs"
	"aidb/internal/sql"
)

// This file is the advisor's workload-capture source: instead of being
// handed a synthetic workload.Query list, the advisor can mine the
// queries the engine actually ran — either read directly from the
// statement store's snapshot or, closing the loop through the engine
// itself, via SQL over the system.statements virtual table. Both feeds
// normalize to StatementRecord, so candidate extraction is
// source-agnostic and the two paths provably agree (experiment E32).

// StatementRecord is one captured workload statement with its observed
// execution weight.
type StatementRecord struct {
	// Query is a representative SQL text for the fingerprint.
	Query string
	// Calls is how many times the fingerprint executed.
	Calls uint64
	// TotalNs is the cumulative latency across those calls.
	TotalNs int64
}

// Candidate is one single-column index candidate mined from the
// workload, weighted by how many statement executions reference it.
type Candidate struct {
	Table  string
	Column string
	Weight float64
}

// RowQuerier runs one SQL statement and returns its rows; aisql.Engine
// satisfies it. It is the advisor's only handle on the engine — no
// private store pointers.
type RowQuerier interface {
	QueryRows(query string) ([]catalog.Row, error)
}

// FromStatements adapts a statement-store snapshot to statement records
// (the direct wiring: the caller holds the *obs.StatementStats). Only
// successful executions count toward index benefit.
func FromStatements(snap []obs.StatementStat) []StatementRecord {
	out := make([]StatementRecord, 0, len(snap))
	for _, s := range snap {
		if ok := s.OK(); ok > 0 {
			out = append(out, StatementRecord{Query: s.Query, Calls: ok, TotalNs: s.TotalNs})
		}
	}
	return out
}

// StatementsViaSQL is FromStatements over SQL: it reads the workload
// from system.statements through the engine.
func StatementsViaSQL(q RowQuerier) ([]StatementRecord, error) {
	rows, err := q.QueryRows("SELECT query, calls, errors, cancels, sheds, total_ns FROM system.statements")
	if err != nil {
		return nil, err
	}
	snap := make([]obs.StatementStat, len(rows))
	for i, r := range rows {
		if len(r) != 6 {
			return nil, fmt.Errorf("idxadvisor: system.statements row has %d cells, want 6", len(r))
		}
		count := func(j int) uint64 { v, _ := r[j].(int64); return uint64(v) }
		text, _ := r[0].(string)
		total, _ := r[5].(int64)
		snap[i] = obs.StatementStat{Query: text, Calls: count(1), Errors: count(2), Cancels: count(3), Sheds: count(4), TotalNs: total}
	}
	return FromStatements(snap), nil
}

// Candidates mines index candidates from captured statements: each
// record's SQL is re-parsed and every column compared in its WHERE
// clause — plus both join keys — becomes a candidate on its resolved
// base table, weighted by the record's call count. Statements that are
// not SELECTs (or no longer parse) are skipped; virtual system.* tables
// never yield candidates. Results are sorted by weight descending, then
// table and column for determinism.
func Candidates(recs []StatementRecord) []Candidate {
	weights := make(map[[2]string]float64)
	for _, rec := range recs {
		stmt, err := sql.Parse(rec.Query)
		if err != nil {
			continue
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			if ex, isEx := stmt.(*sql.ExplainStmt); isEx {
				if sel, ok = ex.Inner.(*sql.SelectStmt); !ok {
					continue
				}
			} else {
				continue
			}
		}
		w := float64(rec.Calls)
		if w <= 0 {
			continue
		}
		for _, ref := range selectPredicateColumns(sel) {
			if strings.Contains(ref[0], ".") {
				continue // virtual namespace — not indexable
			}
			weights[ref] += w
		}
	}
	out := make([]Candidate, 0, len(weights))
	for k, w := range weights {
		out = append(out, Candidate{Table: k[0], Column: k[1], Weight: w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

// TopCandidates truncates a sorted candidate list to at most k entries.
func TopCandidates(cands []Candidate, k int) []Candidate {
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}

// selectPredicateColumns resolves every predicate and join-key column
// of one SELECT to (table, column) pairs, de-duplicated per statement.
func selectPredicateColumns(s *sql.SelectStmt) [][2]string {
	// Alias resolution: unqualified columns belong to the primary table.
	main := s.Table
	byAlias := map[string]string{main: main}
	if s.Alias != "" {
		byAlias[s.Alias] = main
	}
	for _, j := range s.Joins {
		byAlias[j.Table] = j.Table
		if j.Alias != "" {
			byAlias[j.Alias] = j.Table
		}
	}
	resolve := func(c *sql.ColumnRef) ([2]string, bool) {
		t := main
		if c.Table != "" {
			rt, ok := byAlias[c.Table]
			if !ok {
				return [2]string{}, false
			}
			t = rt
		}
		return [2]string{t, c.Column}, true
	}
	seen := make(map[[2]string]bool)
	var out [][2]string
	add := func(c *sql.ColumnRef) {
		ref, ok := resolve(c)
		if !ok || seen[ref] {
			return
		}
		seen[ref] = true
		out = append(out, ref)
	}
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch v := e.(type) {
		case *sql.BinaryExpr:
			// A comparison against a column is a candidate site; AND/OR
			// just recurse.
			if c, ok := v.Left.(*sql.ColumnRef); ok && v.Op != "AND" && v.Op != "OR" {
				add(c)
			}
			if c, ok := v.Right.(*sql.ColumnRef); ok && v.Op != "AND" && v.Op != "OR" {
				add(c)
			}
			walk(v.Left)
			walk(v.Right)
		case *sql.BetweenExpr:
			if c, ok := v.Subject.(*sql.ColumnRef); ok {
				add(c)
			}
		case *sql.InExpr:
			if c, ok := v.Subject.(*sql.ColumnRef); ok {
				add(c)
			}
		case *sql.NotExpr:
			walk(v.Inner)
		}
	}
	if s.Where != nil {
		walk(s.Where)
	}
	for _, j := range s.Joins {
		if j.On != nil {
			if c, ok := j.On.Left.(*sql.ColumnRef); ok {
				add(c)
			}
			if c, ok := j.On.Right.(*sql.ColumnRef); ok {
				add(c)
			}
		}
	}
	return out
}
