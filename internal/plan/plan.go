// Package plan turns parsed SQL into a logical operator tree and costs it.
// It contains the *traditional* optimizer machinery — histogram-based
// selectivity estimation and a Selinger-style cost model — that the
// learned components (internal/cardest, internal/joinorder,
// internal/optimizer) are benchmarked against.
package plan

import (
	"fmt"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/sql"
)

// Node is a logical plan operator.
type Node interface {
	// Schema returns the output column names (qualified where needed).
	Schema() []string
	// Children returns input operators.
	Children() []Node
	// Describe renders a one-line summary for EXPLAIN output.
	Describe() string
}

// ScanNode reads a base table.
type ScanNode struct {
	Table *catalog.Table
	// Alias is the name the query refers to this table by.
	Alias string
}

// Schema implements Node.
func (s *ScanNode) Schema() []string {
	out := make([]string, len(s.Table.Schema.Columns))
	for i, c := range s.Table.Schema.Columns {
		out[i] = s.Alias + "." + c.Name
	}
	return out
}

// Children implements Node.
func (s *ScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *ScanNode) Describe() string {
	return fmt.Sprintf("Scan %s AS %s (%d rows)", s.Table.Name, s.Alias, s.Table.NumRows())
}

// IndexScanNode reads a base table through a secondary index on one
// Int64 column, returning only rows with Lo <= col <= Hi. Lookup is an
// opaque closure so plan does not depend on a concrete index type.
type IndexScanNode struct {
	Table *catalog.Table
	Alias string
	// Column is the indexed column's position.
	Column int
	Lo, Hi int64
	// Fetch streams the matching rows in key order.
	Fetch func(lo, hi int64, fn func(row catalog.Row) bool) error
}

// Schema implements Node.
func (s *IndexScanNode) Schema() []string {
	out := make([]string, len(s.Table.Schema.Columns))
	for i, c := range s.Table.Schema.Columns {
		out[i] = s.Alias + "." + c.Name
	}
	return out
}

// Children implements Node.
func (s *IndexScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *IndexScanNode) Describe() string {
	return fmt.Sprintf("IndexScan %s.%s ∈ [%d, %d]", s.Alias,
		s.Table.Schema.Columns[s.Column].Name, s.Lo, s.Hi)
}

// VirtualScanNode reads a virtual (computed) table such as
// system.statements. The provider snapshots its rows when the scan
// opens; downstream operators see it exactly like any other source.
type VirtualScanNode struct {
	Table catalog.VirtualTable
	// Alias is the name the query refers to this table by.
	Alias string
}

// Schema implements Node.
func (s *VirtualScanNode) Schema() []string {
	cols := s.Table.Columns().Columns
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = s.Alias + "." + c.Name
	}
	return out
}

// Children implements Node.
func (s *VirtualScanNode) Children() []Node { return nil }

// Describe implements Node.
func (s *VirtualScanNode) Describe() string {
	return fmt.Sprintf("VirtualScan %s AS %s (~%d rows)", s.Table.Name(), s.Alias, s.Table.RowEstimate())
}

// FilterNode drops rows not satisfying Cond.
type FilterNode struct {
	Input Node
	Cond  sql.Expr
}

// Schema implements Node.
func (f *FilterNode) Schema() []string { return f.Input.Schema() }

// Children implements Node.
func (f *FilterNode) Children() []Node { return []Node{f.Input} }

// Describe implements Node.
func (f *FilterNode) Describe() string { return "Filter " + f.Cond.String() }

// JoinNode is an inner equi-join.
type JoinNode struct {
	Left, Right Node
	// LeftCol/RightCol are qualified column names in the child schemas.
	LeftCol, RightCol string

	// BuildSide, when non-zero, freezes the hash-join build side chosen
	// from cardinality estimates at plan time (BuildLeft or BuildRight).
	// The executor honours it without re-estimating, so a cached plan
	// carries its estimates with it and plan-cache hits never invoke an
	// estimator. Zero (BuildAuto) lets the executor estimate per run.
	BuildSide int
}

// BuildSide values for JoinNode.
const (
	BuildAuto  = 0
	BuildLeft  = 1
	BuildRight = 2
)

// AnnotateBuildSides walks the plan and freezes every hash join's build
// side using est (ties build left, matching the executor's default).
// Call it once at plan time, before caching: the estimates are computed
// here, stored on the nodes, and re-used by every execution of the
// cached plan.
func AnnotateBuildSides(n Node, est CardinalityEstimator) {
	if j, ok := n.(*JoinNode); ok {
		if EstimateRows(j.Right, est) < EstimateRows(j.Left, est) {
			j.BuildSide = BuildRight
		} else {
			j.BuildSide = BuildLeft
		}
	}
	for _, c := range n.Children() {
		AnnotateBuildSides(c, est)
	}
}

// Schema implements Node.
func (j *JoinNode) Schema() []string {
	return append(append([]string{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Children implements Node.
func (j *JoinNode) Children() []Node { return []Node{j.Left, j.Right} }

// Describe implements Node.
func (j *JoinNode) Describe() string {
	return fmt.Sprintf("HashJoin %s = %s", j.LeftCol, j.RightCol)
}

// ProjectNode computes output expressions.
type ProjectNode struct {
	Input Node
	Items []sql.SelectItem
	names []string
}

// Schema implements Node.
func (p *ProjectNode) Schema() []string { return p.names }

// Children implements Node.
func (p *ProjectNode) Children() []Node { return []Node{p.Input} }

// Describe implements Node.
func (p *ProjectNode) Describe() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// AggregateNode groups and aggregates.
type AggregateNode struct {
	Input   Node
	GroupBy []sql.Expr
	Items   []sql.SelectItem
	names   []string
}

// Schema implements Node.
func (a *AggregateNode) Schema() []string { return a.names }

// Children implements Node.
func (a *AggregateNode) Children() []Node { return []Node{a.Input} }

// Describe implements Node.
func (a *AggregateNode) Describe() string {
	return fmt.Sprintf("Aggregate (%d groups keys, %d outputs)", len(a.GroupBy), len(a.Items))
}

// SortNode orders rows.
type SortNode struct {
	Input Node
	Keys  []sql.OrderItem
}

// Schema implements Node.
func (s *SortNode) Schema() []string { return s.Input.Schema() }

// Children implements Node.
func (s *SortNode) Children() []Node { return []Node{s.Input} }

// Describe implements Node.
func (s *SortNode) Describe() string { return fmt.Sprintf("Sort (%d keys)", len(s.Keys)) }

// LimitNode truncates output.
type LimitNode struct {
	Input Node
	N     int
}

// Schema implements Node.
func (l *LimitNode) Schema() []string { return l.Input.Schema() }

// Children implements Node.
func (l *LimitNode) Children() []Node { return []Node{l.Input} }

// Describe implements Node.
func (l *LimitNode) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// DistinctNode removes duplicate rows.
type DistinctNode struct{ Input Node }

// Schema implements Node.
func (d *DistinctNode) Schema() []string { return d.Input.Schema() }

// Children implements Node.
func (d *DistinctNode) Children() []Node { return []Node{d.Input} }

// Describe implements Node.
func (d *DistinctNode) Describe() string { return "Distinct" }

// Build lowers a parsed SELECT into a left-deep logical plan in the order
// written (the optimizer packages may later reorder joins).
func Build(cat *catalog.Catalog, s *sql.SelectStmt) (Node, error) {
	root, err := buildSource(cat, s.Table, s.Alias)
	if err != nil {
		return nil, err
	}
	for _, j := range s.Joins {
		right, err := buildSource(cat, j.Table, j.Alias)
		if err != nil {
			return nil, err
		}
		lc, ok1 := j.On.Left.(*sql.ColumnRef)
		rc, ok2 := j.On.Right.(*sql.ColumnRef)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("plan: JOIN ON must compare two columns, got %s", j.On.String())
		}
		leftName, rightName := qualify(lc), qualify(rc)
		// If the "left" side actually belongs to the new table, swap.
		if refersTo(right.Schema(), leftName) && !refersTo(right.Schema(), rightName) {
			leftName, rightName = rightName, leftName
		}
		root = &JoinNode{Left: root, Right: right, LeftCol: leftName, RightCol: rightName}
	}
	if s.Where != nil {
		root = &FilterNode{Input: root, Cond: s.Where}
	}
	hasAgg := false
	for _, it := range s.Items {
		if exprHasAggregate(it.Expr) {
			hasAgg = true
			break
		}
	}
	if hasAgg || len(s.GroupBy) > 0 {
		agg := &AggregateNode{Input: root, GroupBy: s.GroupBy, Items: s.Items}
		agg.names = outputNames(s.Items)
		root = agg
		if s.Distinct {
			root = &DistinctNode{Input: root}
		}
		if len(s.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: s.OrderBy}
		}
		if s.Limit >= 0 {
			root = &LimitNode{Input: root, N: s.Limit}
		}
		return root, nil
	}
	if s.Distinct {
		// DISTINCT applies to projected output; sort and limit follow it.
		proj := &ProjectNode{Input: root, Items: s.Items}
		proj.names = outputNamesExpanded(s.Items, root.Schema())
		root = &DistinctNode{Input: proj}
		if len(s.OrderBy) > 0 {
			root = &SortNode{Input: root, Keys: s.OrderBy}
		}
		if s.Limit >= 0 {
			root = &LimitNode{Input: root, N: s.Limit}
		}
		return root, nil
	}
	// Plain query: sort and limit below the projection so ORDER BY may
	// reference non-projected columns (standard SQL behaviour).
	if len(s.OrderBy) > 0 {
		root = &SortNode{Input: root, Keys: s.OrderBy}
	}
	if s.Limit >= 0 {
		root = &LimitNode{Input: root, N: s.Limit}
	}
	proj := &ProjectNode{Input: root, Items: s.Items}
	proj.names = outputNamesExpanded(s.Items, root.Schema())
	return proj, nil
}

// buildSource resolves one FROM/JOIN table reference to its scan node:
// heap tables win, then the virtual-table namespace (system.*). The
// default alias is the name as written, so bare column references over
// "system.statements" resolve by suffix match like any other table.
func buildSource(cat *catalog.Catalog, name, alias string) (Node, error) {
	if alias == "" {
		alias = name
	}
	if t, err := cat.Table(name); err == nil {
		return &ScanNode{Table: t, Alias: alias}, nil
	} else if vt, verr := cat.Virtual(name); verr == nil {
		return &VirtualScanNode{Table: vt, Alias: alias}, nil
	} else {
		return nil, err
	}
}

func qualify(c *sql.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// refersTo reports whether name resolves against schema (exact qualified
// match or unique suffix match).
func refersTo(schema []string, name string) bool {
	for _, s := range schema {
		if s == name || strings.HasSuffix(s, "."+name) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e sql.Expr) bool {
	switch v := e.(type) {
	case *sql.FuncCall:
		switch v.Name {
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			return true
		}
		for _, a := range v.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *sql.BinaryExpr:
		return exprHasAggregate(v.Left) || exprHasAggregate(v.Right)
	case *sql.NotExpr:
		return exprHasAggregate(v.Inner)
	}
	return false
}

func outputNames(items []sql.SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		if it.Alias != "" {
			out[i] = it.Alias
		} else {
			out[i] = it.Expr.String()
		}
	}
	return out
}

// outputNamesExpanded handles * by splicing in the input schema.
func outputNamesExpanded(items []sql.SelectItem, inSchema []string) []string {
	var out []string
	for _, it := range items {
		if _, ok := it.Expr.(*sql.Star); ok {
			out = append(out, inSchema...)
			continue
		}
		if it.Alias != "" {
			out = append(out, it.Alias)
		} else {
			out = append(out, it.Expr.String())
		}
	}
	return out
}

// Explain renders the plan tree with indentation.
func Explain(n Node) string {
	var sb strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.Describe())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return sb.String()
}

// Fingerprint renders the plan's canonical shape string — operator
// kinds, base tables and join keys, but no cardinalities or constants —
// so repeated executions of the same plan shape collapse to one key in
// the statement store and workload-capture tooling.
func Fingerprint(n Node) string {
	var sb strings.Builder
	var walk func(n Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *ScanNode:
			fmt.Fprintf(&sb, "Scan(%s)", v.Table.Name)
			return
		case *IndexScanNode:
			fmt.Fprintf(&sb, "IndexScan(%s.%s)", v.Table.Name, v.Table.Schema.Columns[v.Column].Name)
			return
		case *VirtualScanNode:
			fmt.Fprintf(&sb, "VirtualScan(%s)", v.Table.Name())
			return
		case *FilterNode:
			sb.WriteString("Filter")
		case *JoinNode:
			fmt.Fprintf(&sb, "HashJoin[%s=%s]", v.LeftCol, v.RightCol)
		case *ProjectNode:
			sb.WriteString("Project")
		case *AggregateNode:
			sb.WriteString("Aggregate")
		case *SortNode:
			sb.WriteString("Sort")
		case *LimitNode:
			sb.WriteString("Limit")
		case *DistinctNode:
			sb.WriteString("Distinct")
		default:
			fmt.Fprintf(&sb, "%T", n)
		}
		sb.WriteByte('(')
		for i, c := range n.Children() {
			if i > 0 {
				sb.WriteByte(',')
			}
			walk(c)
		}
		sb.WriteByte(')')
	}
	if n == nil {
		return ""
	}
	walk(n)
	return sb.String()
}

// Summary walks the plan and reports its operator count and depth —
// cheap shape tags for query-path tracing.
func Summary(n Node) (nodes, depth int) {
	if n == nil {
		return 0, 0
	}
	nodes, depth = 1, 1
	for _, c := range n.Children() {
		cn, cd := Summary(c)
		nodes += cn
		if cd+1 > depth {
			depth = cd + 1
		}
	}
	return nodes, depth
}
