package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"aidb/internal/catalog"
	"aidb/internal/core"
	"aidb/internal/exec"
	"aidb/internal/obs"
	"aidb/internal/plan"
	"aidb/internal/sql"
)

// The traced run cannot hook inside serve.Server, which exposes no
// per-statement seam. Its traced phase therefore serves the same line
// protocol from tracedFrontEnd: the loop of serve's connection handler
// (scan a line, Session.ExecScript, core.Format, write, flush) with a
// span around each call into a layer. Below the session, the engine's
// own tracer already records one root span per statement (parse, plan,
// exec children); each is claimed by the statement whose session call
// contains it and grafted under that call. Probes time further public
// entry points on the statement's own text (admission gate, plan-cache
// lookup, parse, plan build, statement-stats record); they run inside
// the statement's server span, are spans of their own, and are the
// traced run's overhead, not part of any layer's self time.

// probeEvery samples the probes: one statement in probeEvery carries
// them, which keeps their overhead off most traced statements. It is
// odd so that it never aliases with a traceBuf stride.
const probeEvery = 3

// traceCap bounds the traces kept per session and side.
const traceCap = 1 << 15

// traceBuf keeps one session's traces in line order, at most traceCap
// of them: when full it doubles its stride and drops the traces whose
// line the stride no longer divides, so a fast workload keeps an evenly
// spaced sample of its statements in bounded memory.
type traceBuf[T any] struct {
	stride int
	items  []T
	line   func(T) int
}

func newTraceBuf[T any](line func(T) int) *traceBuf[T] {
	return &traceBuf[T]{stride: 1, line: line}
}

func (b *traceBuf[T]) add(line int, t T) {
	if line%b.stride != 0 {
		return
	}
	b.items = append(b.items, t)
	if len(b.items) < traceCap {
		return
	}
	b.stride *= 2
	kept := b.items[:0]
	for _, x := range b.items {
		if b.line(x)%b.stride == 0 {
			kept = append(kept, x)
		}
	}
	b.items = kept
}

// srvTrace is the server side of one traced statement. Times are
// nanoseconds since the run's epoch.
type srvTrace struct {
	line int
	text string

	start, execStart, execEnd, fmtEnd, end int64
	probes                                 []probeSpan

	engine []engineSpan // claimed engine root then its children; nil when unattributed
}

// engineSpan is one span copied out of the engine's tracer.
type engineSpan struct {
	name string
	dur  int64
}

type probeSpan struct {
	name       string
	start, end int64
}

// cliTrace is the client side of one traced statement.
type cliTrace struct {
	session, line int
	kind          stmtKind
	sent, done    int64
}

// rootClaims hands each finished engine root span to exactly one
// statement. During the traced phase every engine root comes from one
// of the two sessions, and a session's root is filed before its call
// returns, so at most the other session's root can be pending beside it.
type rootClaims struct {
	tr      *obs.Tracer
	mu      sync.Mutex
	claimed map[*obs.Span]bool
}

func newRootClaims(tr *obs.Tracer) *rootClaims {
	c := &rootClaims{tr: tr, claimed: map[*obs.Span]bool{}}
	for _, r := range tr.Roots() {
		c.claimed[r] = true
	}
	return c
}

// claim returns the caller's engine root: the one unclaimed root no
// longer than the caller's session call, disambiguated by statement
// kind when two are pending. It returns nil (and retires both) when
// the two cannot be told apart.
func (c *rootClaims) claim(maxDur time.Duration, kind string) *obs.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	roots := c.tr.Roots()
	live := make(map[*obs.Span]bool, len(roots))
	var cand []*obs.Span
	for _, r := range roots {
		if c.claimed[r] {
			live[r] = true
		} else if r.Duration() <= maxDur {
			cand = append(cand, r)
		}
	}
	c.claimed = live // forget roots that left the tracer's ring
	if len(cand) > 1 {
		var match []*obs.Span
		for _, r := range cand {
			if r.Export().Tags["stmt"] == kind {
				match = append(match, r)
			}
		}
		if len(match) != 1 {
			for _, r := range cand {
				c.claimed[r] = true
			}
			return nil
		}
		cand = match
	}
	if len(cand) == 0 {
		return nil
	}
	c.claimed[cand[0]] = true
	return cand[0]
}

// engineKind is the stmt tag the engine puts on a statement's root.
func engineKind(text string) string {
	head, _, _ := strings.Cut(text, " ")
	return strings.ToUpper(head)
}

// tracedFrontEnd is the traced phase's line-protocol server.
type tracedFrontEnd struct {
	db     *core.DB
	ln     net.Listener
	epoch  time.Time
	claims *rootClaims
	probe  *prober

	wg     sync.WaitGroup
	mu     sync.Mutex
	traces []*traceBuf[srvTrace] // per accepted connection, in accept order
	conns  []net.Conn
}

func startTracedFrontEnd(db *core.DB, epoch time.Time, p *prober) (*tracedFrontEnd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &tracedFrontEnd{db: db, ln: ln, epoch: epoch, probe: p,
		claims: newRootClaims(db.Telemetry().Tracer)}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

func (f *tracedFrontEnd) addr() string { return f.ln.Addr().String() }

func (f *tracedFrontEnd) now() int64 { return time.Since(f.epoch).Nanoseconds() }

func (f *tracedFrontEnd) accept() {
	defer f.wg.Done()
	for session := 0; ; session++ {
		c, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.mu.Lock()
		f.traces = append(f.traces, nil)
		f.conns = append(f.conns, c)
		f.mu.Unlock()
		f.wg.Add(1)
		go f.handle(c, session)
	}
}

// close stops the listener, closes every connection and waits for the
// handlers, then returns the server-side traces per session.
func (f *tracedFrontEnd) close() []*traceBuf[srvTrace] {
	f.ln.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
	return f.traces
}

func (f *tracedFrontEnd) handle(c net.Conn, session int) {
	defer f.wg.Done()
	defer c.Close()
	sess := f.db.NewSession()
	defer sess.Close()
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	w := bufio.NewWriter(c)
	traces := newTraceBuf(func(t srvTrace) int { return t.line })
	defer func() {
		f.mu.Lock()
		f.traces[session] = traces
		f.mu.Unlock()
	}()
	for line := 0; sc.Scan(); {
		start := f.now()
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if text == `\quit` {
			return
		}
		t := srvTrace{line: line, text: text, start: start}
		line++
		if line%probeEvery == 0 {
			t.probes = f.probe.run(text, f.now)
		}
		t.execStart = f.now()
		res, err := sess.ExecScript(context.Background(), text)
		t.execEnd = f.now()
		if kind := engineKind(text); kind != "PREPARE" {
			if r := f.claims.claim(time.Duration(t.execEnd-t.execStart), kind); r != nil {
				t.engine = []engineSpan{{"aisql.execute", r.Duration().Nanoseconds()}}
				for _, ch := range r.Children() {
					t.engine = append(t.engine, engineSpan{engineChildName(ch.Name), ch.Duration().Nanoseconds()})
				}
			}
		}
		var out string
		if err != nil {
			out = fmt.Sprintf("ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		} else {
			out = core.Format(res)
		}
		t.fmtEnd = f.now()
		io.WriteString(w, out)
		io.WriteString(w, ".\n")
		werr := w.Flush()
		t.end = f.now()
		traces.add(t.line, t)
		if werr != nil {
			return
		}
	}
}

// prober times calls into public entry points on a statement's text.
type prober struct {
	db       *core.DB
	cat      *catalog.Catalog
	prepSel  *sql.SelectStmt // the point-scan prepared SELECT
	prepKey  string          // its plan-cache key
	offStats *obs.StatementStats
}

func newProber(db *core.DB, w *workload) (*prober, error) {
	p := &prober{db: db, cat: db.Catalog(), offStats: obs.NewStatementStats(0)}
	if w.prepare != "" {
		_, inner, _ := strings.Cut(w.prepare, " AS ")
		st, err := sql.Parse(inner)
		if err != nil {
			return nil, err
		}
		p.prepSel = st.(*sql.SelectStmt)
		p.prepKey = "stmt:" + sql.Deparse(p.prepSel)
	}
	return p, nil
}

// cacheKey is the plan-cache key the engine looks the statement up by.
func (p *prober) cacheKey(text string) string {
	if strings.HasPrefix(text, "EXECUTE ") {
		return p.prepKey
	}
	return "text:" + text
}

func (p *prober) run(text string, now func() int64) []probeSpan {
	if strings.HasPrefix(text, "PREPARE ") {
		return nil
	}
	spans := make([]probeSpan, 0, 5)
	mark := func(name string, start int64) {
		spans = append(spans, probeSpan{name: name, start: start, end: now()})
	}

	t := now()
	if release, err := p.db.AdmissionGate().Admit(context.Background()); err == nil {
		release()
		mark("governance.admit", t)
	}

	t = now()
	ent := p.db.PlanCache().Lookup(p.cacheKey(text))
	mark("plancache.lookup", t)

	t = now()
	st, err := sql.Parse(text)
	mark("sql.parse", t)
	if err != nil {
		return spans
	}

	sel, _ := st.(*sql.SelectStmt)
	if _, ok := st.(*sql.ExecuteStmt); ok {
		sel = p.prepSel
	}
	if sel != nil {
		t = now()
		if n, err := plan.Build(p.cat, sel); err == nil {
			n = plan.OptimizeFilters(n)
			plan.AnnotateBuildSides(n, plan.HistogramEstimator{})
			mark("plan.build", t)
		}
	}

	// The engine records under the plan fingerprint, known here only
	// when the plan is cached.
	if ent != nil {
		t = now()
		p.offStats.Record(obs.StmtObservation{Fingerprint: ent.Fingerprint, Query: text, Outcome: obs.StmtOK, LatencyNs: 1000, Rows: 1})
		mark("obs.stmtstats_record", t)
	}
	return spans
}

// execAllocs runs a statement's cached plan on a fresh executor and
// reports the wall time, mallocs and bytes of that one RunContext. It
// runs with no other query in flight, so the process-wide allocation
// counters belong to the executor.
func (p *prober) execAllocs(text string, params []catalog.Value) (ns, mallocs, bytes float64, ok bool) {
	ent := p.db.PlanCache().Lookup(p.cacheKey(text))
	if ent == nil {
		return 0, 0, 0, false
	}
	ex := exec.New(nil)
	ex.Parallelism = p.db.Parallelism()
	ex.Params = params
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := ex.RunContext(context.Background(), ent.Plan)
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return 0, 0, 0, false
	}
	return float64(d.Nanoseconds()), float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc), true
}

// span is one exported trace record. kind is "path" for spans timed
// by the benchmark around a call, "engine" for the engine's own spans
// grafted under the session call (the engine records durations only,
// so their start is laid out back to back, ending at the session
// call's end), and "probe" for timed side calls.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Stmt   string `json:"stmt"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// stmtSpans builds one statement's span tree: client.stmt, serve.stmt,
// probes, core.session_exec (with the grafted engine tree),
// core.format and serve.write.
func stmtSpans(c cliTrace, s srvTrace, nextID *int) []span {
	id := func() int { *nextID++; return *nextID }
	stmt := fmt.Sprintf("s%d-%d", c.session, c.line)
	root := span{ID: id(), Stmt: stmt, Name: "client.stmt", Kind: "path", Start: c.sent, End: c.done}
	srv := span{ID: id(), Parent: root.ID, Stmt: stmt, Name: "serve.stmt", Kind: "path", Start: s.start, End: s.end}
	out := []span{root, srv}
	for _, p := range s.probes {
		out = append(out, span{ID: id(), Parent: srv.ID, Stmt: stmt, Name: "probe." + p.name, Kind: "probe", Start: p.start, End: p.end})
	}
	sx := span{ID: id(), Parent: srv.ID, Stmt: stmt, Name: "core.session_exec", Kind: "path", Start: s.execStart, End: s.execEnd}
	out = append(out, sx)
	if len(s.engine) > 0 {
		qs := s.execEnd - s.engine[0].dur
		qspan := span{ID: id(), Parent: sx.ID, Stmt: stmt, Name: s.engine[0].name, Kind: "engine", Start: qs, End: s.execEnd}
		out = append(out, qspan)
		at := qs
		for _, ch := range s.engine[1:] {
			out = append(out, span{ID: id(), Parent: qspan.ID, Stmt: stmt, Name: ch.name, Kind: "engine", Start: at, End: at + ch.dur})
			at += ch.dur
		}
	}
	out = append(out,
		span{ID: id(), Parent: srv.ID, Stmt: stmt, Name: "core.format", Kind: "path", Start: s.execEnd, End: s.fmtEnd},
		span{ID: id(), Parent: srv.ID, Stmt: stmt, Name: "serve.write", Kind: "path", Start: s.fmtEnd, End: s.end})
	return out
}

func engineChildName(n string) string {
	switch n {
	case "parse":
		return "sql.parse"
	case "plan":
		return "plan.build"
	case "exec":
		return "exec.run"
	}
	return "aisql." + n
}

// selfTimes returns each span's self time (duration minus the part its
// children cover) keyed by name, and the statement's wall time minus
// the sum of all self times (the residual; zero when spans nest).
func selfTimes(spans []span) (map[string]int64, int64) {
	childSum := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	var sum int64
	for _, s := range spans {
		v := s.End - s.Start - childSum[s.ID]
		self[s.Name] += v
		sum += v
	}
	return self, spans[0].End - spans[0].Start - sum
}

// writeSpans writes spans as JSON lines, creating the directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
