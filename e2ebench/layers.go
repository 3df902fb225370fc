package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/core"
	"aidb/internal/obs"
	"aidb/internal/storage"
)

// spanFileStmts caps how many traced statements the span file holds;
// metrics use every traced statement, the file an evenly spaced sample.
const spanFileStmts = 1000

// tracedRun is the traced phase: client and server traces per session.
type tracedRun struct {
	phase *phase
	epoch time.Time
	probe *prober
	cli   []*traceBuf[cliTrace]
	srv   []*traceBuf[srvTrace]
}

// runTraced serves the second half of a traced run from the traced
// front end, recording client spans through the loop's hook.
func runTraced(db *core.DB, cfg config, reg *obs.Registry, streams []*stream, chk *checker) (*tracedRun, error) {
	tr := &tracedRun{epoch: time.Now()}
	for range streams {
		tr.cli = append(tr.cli, newTraceBuf(func(c cliTrace) int { return c.line }))
	}
	var err error
	if tr.probe, err = newProber(db, cfg.w); err != nil {
		return nil, err
	}
	fe, err := startTracedFrontEnd(db, tr.epoch, tr.probe)
	if err != nil {
		return nil, err
	}
	hooks := make([]stmtHook, len(streams))
	for i := range hooks {
		i := i
		hooks[i] = func(line int, st statement, sent, done time.Time) {
			tr.cli[i].add(line, cliTrace{session: i, line: line, kind: st.kind,
				sent: sent.Sub(tr.epoch).Nanoseconds(), done: done.Sub(tr.epoch).Nanoseconds()})
		}
	}
	tr.phase, err = runPhase(fe.addr(), cfg, reg, streams, chk, cfg.warmup/5, cfg.dur/2, hooks)
	tr.srv = fe.close()
	if err != nil {
		return nil, err
	}
	return tr, nil
}

// each calls fn for every statement sent in the traced phase's timed
// window that both sides kept, with its client and server traces, and
// returns how many.
func (tr *tracedRun) each(fn func(c cliTrace, s *srvTrace)) int {
	winStart := tr.phase.start.Sub(tr.epoch).Nanoseconds()
	n := 0
	for sess, cb := range tr.cli {
		if sess >= len(tr.srv) || tr.srv[sess] == nil {
			continue
		}
		sb := tr.srv[sess]
		stride := max(cb.stride, sb.stride)
		j := 0
		for _, c := range cb.items {
			if c.line%stride != 0 || c.sent < winStart {
				continue
			}
			for j < len(sb.items) && sb.items[j].line < c.line {
				j++
			}
			if j == len(sb.items) || sb.items[j].line != c.line {
				continue
			}
			if fn != nil {
				fn(c, &sb.items[j])
			}
			n++
		}
	}
	return n
}

// blockingSteps is the order the per-statement breakdown is printed in:
// every span kind on a statement's path, outermost first.
var blockingSteps = []string{
	"client.stmt", "serve.stmt", "core.session_exec", "aisql.execute",
	"sql.parse", "plan.build", "exec.run", "core.format", "serve.write",
	"probe.governance.admit", "probe.plancache.lookup", "probe.sql.parse",
	"probe.plan.build", "probe.obs.stmtstats_record",
}

func (tr *tracedRun) report(res *result, u *phase, db *core.DB, cfg config, pagesEnd, rowsEnd int) error {
	w, out := cfg.w, cfg.verbose
	total := tr.each(nil)
	if total == 0 {
		return fmt.Errorf("traced phase completed no statements")
	}
	step := max(1, total/spanFileStmts)
	var sample []span
	var candidates []statement // read statements for the exec probes
	var serveSelf, sessExec, format, execRun, updates, inserts []int64
	probes := map[string][]int64{}
	selfVals := map[string][]int64{}
	selfSum := map[string]int64{}
	var wallSum, maxResid int64
	attributed, i, id := 0, 0, 0
	tr.each(func(c cliTrace, s *srvTrace) {
		spans := stmtSpans(c, *s, &id)
		self, resid := selfTimes(spans)
		wall := c.done - c.sent
		var probeNs, execNs int64
		for _, sp := range spans {
			d := sp.End - sp.Start
			switch {
			case sp.Kind == "probe":
				probeNs += d
				name := strings.TrimPrefix(sp.Name, "probe.")
				probes[name] = append(probes[name], d)
			case sp.Name == "core.session_exec":
				execNs = d
			case sp.Name == "core.format":
				format = append(format, d)
			case sp.Name == "exec.run":
				execRun = append(execRun, d)
			case sp.Name == "aisql.execute":
				attributed++
				switch c.kind {
				case kindUpdate:
					updates = append(updates, self["aisql.execute"])
				case kindInsert:
					inserts = append(inserts, self["aisql.execute"])
				}
			}
		}
		sessExec = append(sessExec, execNs)
		serveSelf = append(serveSelf, wall-execNs-probeNs)
		for name, v := range self {
			selfVals[name] = append(selfVals[name], v)
			selfSum[name] += v
		}
		wallSum += wall
		maxResid = max(maxResid, abs(resid))
		if i%step == 0 {
			sample = append(sample, spans...)
		}
		if !c.kind.isWrite() && len(candidates) < 200 {
			candidates = append(candidates, statement{text: s.text, kind: c.kind})
		}
		i++
	})

	fmt.Fprintf(out, "  traced statements %d (engine spans attributed to %d); blocking steps, self time per statement:\n", total, attributed)
	for _, name := range blockingSteps {
		if vals := selfVals[name]; len(vals) > 0 {
			fmt.Fprintf(out, "    %-28s median %10.2f us  share of wall %6.2f%%  (%d statements)\n",
				name, pct(vals, 50)/1e3, 100*float64(selfSum[name])/float64(wallSum), len(vals))
		}
	}
	fmt.Fprintf(out, "    residual (wall - sum of self times): max |%d| ns over %d statements\n", maxResid, total)
	fmt.Fprintf(out, "    client.stmt self is wire and client time; probe.* spans are tracing overhead\n")
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, sample); err != nil {
			return err
		}
		fmt.Fprintf(out, "  spans: %d statements (every %d-th) written to %s\n", (total+step-1)/step, step, cfg.spans)
	}

	// Side probes, with no statement in flight.
	execNs, mallocs, bytes := tr.execProbes(candidates)
	if len(updates) == 0 {
		updates = dmlProbe(db, "UPDATE")
	}
	if len(inserts) == 0 {
		inserts = dmlProbe(db, "INSERT")
	}
	scan, err := scanProbe(db, w)
	if err != nil {
		return err
	}

	stmtsInWindow := u.delta("serve.statements")
	us := func(xs []int64) float64 { return pct(xs, 50) / 1e3 }
	ns := func(xs []int64) float64 { return pct(xs, 50) }
	res.put("serve.self_us", metric{us(serveSelf), "us", len(serveSelf), "wire round trip - Session.ExecScript - probes"})
	res.put("core.session_exec_us", metric{us(sessExec), "us", len(sessExec), "Session.ExecScript"})
	res.put("core.format_us", metric{us(format), "us", len(format), "core.Format"})
	res.put("governance.admit_wait_us", metric{us(probes["governance.admit"]), "us", len(probes["governance.admit"]), "AdmissionGate.Admit + release (probe)"})
	res.put("governance.shed_ratio", metric{ratio(u.delta("admission.shed"), stmtsInWindow), "ratio", int(stmtsInWindow), "admission.shed / statements (untraced half)"})
	res.put("plancache.hit_ratio", metric{ratio(u.delta("plancache.hits"), u.delta("plancache.hits")+u.delta("plancache.misses")), "ratio", int(stmtsInWindow), "hits / lookups (untraced half)"})
	res.put("plancache.evictions_per_stmt", metric{ratio(u.delta("plancache.evictions"), stmtsInWindow), "count", int(stmtsInWindow), "untraced half"})
	res.put("plancache.lookup_ns", metric{ns(probes["plancache.lookup"]), "ns", len(probes["plancache.lookup"]), "Cache.Lookup on the statement's key (probe)"})
	res.put("sql.parse_us", metric{us(probes["sql.parse"]), "us", len(probes["sql.parse"]), "sql.Parse on the statement text (probe)"})
	res.put("sql.parses_per_stmt", metric{ratio(u.delta("sql.parses"), stmtsInWindow), "count", int(stmtsInWindow), "engine parses / statements (untraced half)"})
	res.put("plan.build_us", metric{us(probes["plan.build"]), "us", len(probes["plan.build"]), "plan.Build + OptimizeFilters + AnnotateBuildSides on the SELECT (probe)"})
	res.put("plan.builds_per_stmt", metric{ratio(u.delta("plan.builds"), stmtsInWindow), "count", int(stmtsInWindow), "untraced half"})
	res.put("exec.run_us", metric{us(execRun), "us", len(execRun), "engine exec span (Executor.RunContext on the cached plan)"})
	res.put("exec.rows_scanned_per_row_out", metric{ratio(u.delta("exec.rows_scanned"), u.delta("exec.rows_output")), "ratio", int(stmtsInWindow), "untraced half"})
	res.put("exec.allocs_per_stmt", metric{median(mallocs), "count", len(mallocs), "mallocs in one RunContext on a cached plan (probe)"})
	res.put("exec.alloc_bytes_per_stmt", metric{median(bytes), "B", len(bytes), "bytes allocated in that RunContext (probe)"})
	res.put("exec.morsels_per_stmt", metric{ratio(u.delta("exec.morsels"), stmtsInWindow), "count", int(stmtsInWindow), "untraced half"})
	res.put("exec.chunk_pool.hit_ratio", metric{ratio(u.delta("exec.chunk_pool.hits"), u.delta("exec.chunk_pool.hits")+u.delta("exec.chunk_pool.misses")), "ratio", int(stmtsInWindow), "untraced half"})
	res.put("aisql.update_us", metric{us(updates), "us", len(updates), "engine root self time of UPDATE (path on read-write, else probe)"})
	res.put("aisql.insert_us", metric{us(inserts), "us", len(inserts), "engine root self time of INSERT (path on read-write, else probe)"})
	res.put("catalog.scan_us", metric{us(scan), "us", len(scan), "Table.ScanPagesInto over the workload's largest table, decode only (probe)"})
	res.put("catalog.heap_pages_per_1k_rows", metric{ratio(float64(pagesEnd), float64(rowsEnd)/1000), "count", 1, "accounts at run end"})
	res.put("storage.bufferpool.hit_rate", metric{ratio(u.delta("storage.bufferpool.hits"), u.delta("storage.bufferpool.hits")+u.delta("storage.bufferpool.misses")), "ratio", int(stmtsInWindow), "untraced half"})
	res.put("storage.bufferpool.evictions_per_stmt", metric{ratio(u.delta("storage.bufferpool.evictions"), stmtsInWindow), "count", int(stmtsInWindow), "untraced half"})
	res.put("obs.stmtstats_record_ns", metric{ns(probes["obs.stmtstats_record"]), "ns", len(probes["obs.stmtstats_record"]), "StatementStats.Record on a private store (probe)"})
	res.put("proc.gc_pause_ms_per_s", metric{ratio(u.gcPause.Seconds()*1e3, u.counterS), "ms/s", 1, "untraced half"})
	res.put("exec.run_probe_us", metric{median(execNs) / 1e3, "us", len(execNs), "the same RunContext probe, wall time"})
	uThr, _ := u.sliced(cfg.dur / 2)
	tThr, _ := tr.phase.sliced(cfg.dur / 2)
	untr, traced := median(uThr), median(tThr)
	res.put("trace.untraced_stmt_s", metric{untr, "1/s", len(u.t.lat), "untraced half, serve.Server"})
	res.put("trace.traced_stmt_s", metric{traced, "1/s", len(tr.phase.t.lat), "traced half, traced front end"})
	res.put("trace.overhead_stmt_s", metric{untr - traced, "1/s", 2, "untraced - traced throughput"})
	res.put("trace.attributed_ratio", metric{ratio(float64(attributed), float64(total)), "ratio", total, "statements whose engine spans were claimed"})
	return nil
}

// execProbes runs up to 20 distinct read statements' cached plans on a
// fresh executor, for at most about a second.
func (tr *tracedRun) execProbes(stmts []statement) (ns, mallocs, bytes []float64) {
	seen := map[string]bool{}
	deadline := time.Now().Add(time.Second)
	for _, st := range stmts {
		if len(ns) >= 20 || (len(ns) >= 3 && time.Now().After(deadline)) {
			break
		}
		if seen[st.text] {
			continue
		}
		seen[st.text] = true
		var params []catalog.Value
		if arg, ok := strings.CutPrefix(st.text, "EXECUTE lookup ("); ok {
			v, err := strconv.ParseInt(strings.TrimSuffix(arg, ")"), 10, 64)
			if err != nil {
				continue
			}
			params = []catalog.Value{v}
		}
		if n, m, b, ok := tr.probe.execAllocs(st.text, params); ok {
			ns, mallocs, bytes = append(ns, n), append(mallocs, m), append(bytes, b)
		}
	}
	return ns, mallocs, bytes
}

// dmlProbe times UPDATE or INSERT statements through the engine for
// workloads that issue none. It runs after the end-of-run checks.
func dmlProbe(db *core.DB, kind string) []int64 {
	var out []int64
	n := 20
	if kind == "UPDATE" {
		n = 5 // each is a full scan of accounts
	}
	for i := 0; i < n; i++ {
		id := int64(i * 997 % numAccounts)
		q := fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", id)
		if kind == "INSERT" {
			id = 2*insertBase + int64(i)
			q = fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, 0, 0)", id, acctBase+id)
		}
		t0 := time.Now()
		if _, err := db.Engine().ExecuteContext(context.Background(), q); err == nil {
			out = append(out, time.Since(t0).Nanoseconds())
		}
	}
	return out
}

// scanProbe decodes every row of the workload's largest table five
// times with one reused row buffer.
func scanProbe(db *core.DB, w *workload) ([]int64, error) {
	name := "accounts"
	if w.events {
		name = "events"
	}
	t, err := db.Catalog().Table(name)
	if err != nil {
		return nil, err
	}
	row := make(catalog.Row, len(t.Schema.Columns))
	alloc := func(int) catalog.Row { return row }
	var out []int64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := t.ScanPagesInto(t.PageIDs(), alloc, func(storage.RecordID, catalog.Row) bool { return true }); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Nanoseconds())
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
