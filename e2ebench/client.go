package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// reply is one parsed line-protocol response.
type reply struct {
	err  string // message after "ERR ", "" on success
	rows [][]string
}

// readReply reads one response up to its lone "." terminator. Result
// cells hold no spaces in these workloads, so rows split on whitespace.
func readReply(br *bufio.Reader) (reply, error) {
	var lines []string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return reply{}, fmt.Errorf("read reply: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		if line == "." {
			break
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return reply{}, fmt.Errorf("empty reply")
	}
	if msg, ok := strings.CutPrefix(lines[0], "ERR "); ok {
		return reply{err: msg}, nil
	}
	if lines[0] == "OK" {
		return reply{}, nil
	}
	if len(lines) < 3 {
		return reply{}, fmt.Errorf("malformed reply %q", lines)
	}
	var rep reply
	for _, l := range lines[2 : len(lines)-1] {
		rep.rows = append(rep.rows, strings.Fields(l))
	}
	return rep, nil
}

// conn is one client session's line-protocol connection.
type conn struct {
	c     net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	lines int // lines sent, so the next line's index on the connection
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

func (c *conn) send(text string) error {
	c.lines++
	c.bw.WriteString(text)
	c.bw.WriteByte('\n')
	return c.bw.Flush()
}

func (c *conn) roundTrip(text string) (reply, error) {
	if err := c.send(text); err != nil {
		return reply{}, err
	}
	return readReply(c.br)
}

func (c *conn) close() {
	c.send(`\quit`)
	c.c.Close()
}

// checker holds the model every reply is verified against. Static
// workloads compare exactly; read-write tracks, per account, how many
// increments were sent and how many were acknowledged.
type checker struct {
	d      *dataset
	static bool

	issued []atomic.Int64 // UPDATEs sent per id
	acked  []atomic.Int64 // UPDATEs acknowledged per id

	mu       sync.Mutex
	inserted map[int64]int64 // acknowledged INSERTs: id -> balance
}

func newChecker(w *workload, d *dataset) *checker {
	return &checker{
		d:        d,
		static:   w.name != "read-write",
		issued:   make([]atomic.Int64, numAccounts),
		acked:    make([]atomic.Int64, numAccounts),
		inserted: map[int64]int64{},
	}
}

func (c *checker) before(st statement) {
	if st.kind == kindUpdate {
		c.issued[st.id].Add(1)
	}
}

// after checks one reply. It returns "" when the reply is right, else
// what was wrong; ERR replies are reported by the caller.
func (c *checker) after(st statement, rep reply) string {
	switch st.kind {
	case kindUpdate:
		c.acked[st.id].Add(1)
		return ""
	case kindInsert:
		c.mu.Lock()
		c.inserted[st.id] = st.balance
		c.mu.Unlock()
		return ""
	case kindRead:
		if len(rep.rows) != 1 {
			return fmt.Sprintf("id %d: %d rows, want 1", st.id, len(rep.rows))
		}
		row := rep.rows[0]
		if len(row) != 2 {
			return fmt.Sprintf("id %d: %d columns, want 2", st.id, len(row))
		}
		id, err1 := strconv.ParseInt(row[0], 10, 64)
		bal, err2 := strconv.ParseInt(row[1], 10, 64)
		if err1 != nil || err2 != nil || id != st.id {
			return fmt.Sprintf("id %d: row %q", st.id, row)
		}
		lo := c.d.balance[st.id]
		hi := lo
		if !c.static {
			hi += c.issued[st.id].Load()
		}
		if bal < lo || bal > hi {
			return fmt.Sprintf("id %d: balance %d, want [%d, %d]", st.id, bal, lo, hi)
		}
		return ""
	default:
		return c.checkAgg(st.text, rep)
	}
}

func (c *checker) checkAgg(text string, rep reply) string {
	want := c.d.aggs[text]
	if len(rep.rows) != len(want) {
		return fmt.Sprintf("%d groups, want %d", len(rep.rows), len(want))
	}
	for _, row := range rep.rows {
		if len(row) != 3 {
			return fmt.Sprintf("row %q, want 3 columns", row)
		}
		key, err := strconv.ParseInt(row[0], 10, 64)
		g, ok := want[key]
		if err != nil || !ok {
			return fmt.Sprintf("unexpected group %q", row[0])
		}
		n, err1 := strconv.ParseFloat(row[1], 64)
		s, err2 := strconv.ParseFloat(row[2], 64)
		if err1 != nil || err2 != nil || n != float64(g.count) || math.Abs(s-float64(g.sum)) > 0.5 {
			return fmt.Sprintf("group %d: %q, want count %d sum %d", key, row, g.count, g.sum)
		}
	}
	return ""
}

// tally counts what a session saw. Latencies are kept for the timed
// window only; attempted/errors cover every statement sent, warm-up
// included, because every reply is verified.
type tally struct {
	lat      []int64 // ns, timed statements
	sentAt   []int64 // ns since the window start, parallel to lat
	ok       []bool  // reply verified correct, parallel to lat
	writeLat []int64 // ns, timed UPDATE/INSERT statements

	attempted int64
	errReply  int64 // ERR replies
	wrong     int64 // replies that failed verification
	firstBad  string
}

func (t *tally) merge(o *tally) {
	t.lat = append(t.lat, o.lat...)
	t.sentAt = append(t.sentAt, o.sentAt...)
	t.ok = append(t.ok, o.ok...)
	t.writeLat = append(t.writeLat, o.writeLat...)
	t.attempted += o.attempted
	t.errReply += o.errReply
	t.wrong += o.wrong
	if t.firstBad == "" {
		t.firstBad = o.firstBad
	}
}

// window is the span of one closed-loop phase: statements sent before
// start are warm-up, none are sent at or after end.
type window struct{ start, end time.Time }

// stmtHook, when set, observes each statement's line index on its
// connection and its client-side send and completion times (the traced
// run's client span).
type stmtHook func(line int, st statement, sent, done time.Time)

// runLoop drives one session in a closed loop: send, wait for the
// reply, verify it, repeat until the window ends.
func runLoop(c *conn, s *stream, chk *checker, win window, t *tally, hook stmtHook) error {
	for time.Now().Before(win.end) {
		st := s.next()
		sent := time.Now()
		chk.before(st)
		line := c.lines
		rep, err := c.roundTrip(st.text)
		if err != nil {
			return err
		}
		done := time.Now()
		t.attempted++
		good := false
		if rep.err != "" {
			t.errReply++
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("%s: ERR %s", st.text, rep.err)
			}
		} else if bad := chk.after(st, rep); bad != "" {
			t.wrong++
			if t.firstBad == "" {
				t.firstBad = fmt.Sprintf("%s: %s", st.text, bad)
			}
		} else {
			good = true
		}
		if hook != nil {
			hook(line, st, sent, done)
		}
		if !sent.Before(win.start) {
			ns := done.Sub(sent).Nanoseconds()
			t.lat = append(t.lat, ns)
			t.sentAt = append(t.sentAt, sent.Sub(win.start).Nanoseconds())
			t.ok = append(t.ok, good)
			if st.kind.isWrite() {
				t.writeLat = append(t.writeLat, ns)
			}
		}
	}
	return nil
}
