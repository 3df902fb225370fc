package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStatementStatsRecordAndSnapshot(t *testing.T) {
	s := NewStatementStats(0)
	obsv := func(outcome StmtOutcome, lat int64, rows int64) {
		s.Record(StmtObservation{
			Fingerprint: "Filter(Scan(t))", Query: "SELECT a FROM t WHERE b < ?",
			Outcome: outcome, LatencyNs: lat, Rows: rows, Chunks: 2, PeakBytes: lat * 2,
		})
	}
	obsv(StmtOK, 1000, 10)
	obsv(StmtOK, 3000, 30)
	obsv(StmtError, 9000, 0)
	obsv(StmtCancel, 500, 0)
	obsv(StmtShed, 100, 0)

	snap := s.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snap))
	}
	e := snap[0]
	if e.Fingerprint != "Filter(Scan(t))" || e.Query != "SELECT a FROM t WHERE b < ?" {
		t.Fatalf("identity = %q / %q", e.Fingerprint, e.Query)
	}
	if e.Calls != 5 || e.Errors != 1 || e.Cancels != 1 || e.Sheds != 1 {
		t.Fatalf("counts = calls %d errors %d cancels %d sheds %d", e.Calls, e.Errors, e.Cancels, e.Sheds)
	}
	if e.Rows != 40 || e.TotalNs != 13600 || e.Chunks != 10 {
		t.Fatalf("sums = rows %d total %d chunks %d", e.Rows, e.TotalNs, e.Chunks)
	}
	if e.MinNs != 100 || e.MaxNs != 9000 || e.PeakBytes != 18000 {
		t.Fatalf("extrema = min %d max %d peak %d", e.MinNs, e.MaxNs, e.PeakBytes)
	}
	if e.P50Ns <= 0 || e.P95Ns < e.P50Ns || e.P99Ns < e.P95Ns {
		t.Fatalf("quantiles not monotone: p50 %d p95 %d p99 %d", e.P50Ns, e.P95Ns, e.P99Ns)
	}
	now := time.Now().UnixNano()
	if e.FirstSeenNs <= 0 || e.LastSeenNs < e.FirstSeenNs || e.LastSeenNs > now {
		t.Fatalf("seen range = [%d, %d] vs now %d", e.FirstSeenNs, e.LastSeenNs, now)
	}
	if s.Len() != 1 || s.Evicted() != 0 {
		t.Fatalf("len %d evicted %d", s.Len(), s.Evicted())
	}
}

func TestStatementStatsEvictionAtCap(t *testing.T) {
	s := NewStatementStats(2)
	for i := 0; i < 3; i++ {
		s.Record(StmtObservation{Fingerprint: fmt.Sprintf("fp%d", i), Outcome: StmtOK, LatencyNs: 1})
		time.Sleep(time.Millisecond) // order last-seen distinctly
	}
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Fatalf("len %d evicted %d, want 2 / 1", s.Len(), s.Evicted())
	}
	// fp0 was least recently seen; fp1 and fp2 survive.
	for _, e := range s.Snapshot() {
		if e.Fingerprint == "fp0" {
			t.Fatal("least-recently-seen entry was not the one evicted")
		}
	}
	// A recorded fingerprint that survived keeps accumulating, not
	// re-inserting.
	s.Record(StmtObservation{Fingerprint: "fp2", Outcome: StmtOK, LatencyNs: 1})
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Fatalf("after re-record: len %d evicted %d", s.Len(), s.Evicted())
	}
}

// TestStatementStatsConcurrent hammers Record from many goroutines
// while others snapshot and serialize — the -race run is the assertion,
// plus conservation of the call count.
func TestStatementStatsConcurrent(t *testing.T) {
	s := NewStatementStats(64)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Record(StmtObservation{
					Fingerprint: fmt.Sprintf("fp%d", i%16),
					Outcome:     StmtOutcome(i % 4),
					LatencyNs:   int64(i + 1),
					Rows:        1,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			var calls uint64
			for _, e := range s.Snapshot() {
				calls += e.Calls
			}
			if calls != writers*perWriter {
				t.Fatalf("calls = %d, want %d", calls, writers*perWriter)
			}
			return
		default:
			_ = s.Snapshot()
			var buf bytes.Buffer
			if _, err := s.WriteJSONTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStatementStatsNilSafe(t *testing.T) {
	var s *StatementStats
	s.Record(StmtObservation{Fingerprint: "fp"})
	if s.Snapshot() != nil || s.Len() != 0 || s.Evicted() != 0 {
		t.Fatal("nil store is not inert")
	}
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestStatementStatsJSONRoundTrip(t *testing.T) {
	s := NewStatementStats(0)
	s.Record(StmtObservation{Fingerprint: "fp", Query: "SELECT 1", Outcome: StmtOK, LatencyNs: 42, Rows: 1})
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []StatementStat
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 1 || decoded[0].Fingerprint != "fp" || decoded[0].Calls != 1 {
		t.Fatalf("round trip = %+v", decoded)
	}
}

// TestSlowLogNilSafe checks that a nil store stays inert when fed the
// exemplar fields (profile, chaos fires) that system.slow_queries projects.
func TestSlowLogNilSafe(t *testing.T) {
	var s *StatementStats
	s.Record(StmtObservation{Fingerprint: "fp", Outcome: StmtOK, Profile: "Scan t", ChaosFires: map[string]uint64{"exec.scan": 1}})
	if s.Snapshot() != nil || s.Len() != 0 || s.Evicted() != 0 {
		t.Fatal("nil store is not inert")
	}
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatalf("nil store WriteJSONTo: %v", err)
	}
	if got := string(bytes.TrimSpace(buf.Bytes())); got != "[]" {
		t.Errorf("nil store dumped entries: %s", buf.String())
	}
}

// TestSlowLogJSONAndDump checks that the JSON dump of the store keeps a
// fingerprint's exemplar (latency, rows, profile, chaos fires) through a
// round trip and omits the optional exemplar fields on quiet entries.
func TestSlowLogJSONAndDump(t *testing.T) {
	s := NewStatementStats(0)
	s.Record(StmtObservation{Fingerprint: "fp", Query: "SELECT 1", Outcome: StmtOK, LatencyNs: 42, Rows: 1})
	s.Record(StmtObservation{
		Fingerprint: "Project(Filter(Scan(t)))", Query: "SELECT a FROM t WHERE a < 3",
		Outcome: StmtOK, LatencyNs: 1500, Rows: 2,
		Profile:    "Scan t (est=4 act=4 rows)\n",
		ChaosFires: map[string]uint64{"exec.scan": 2},
	})
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []StatementStat
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("JSON dump does not round-trip: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 || decoded[1].Fingerprint != "fp" || decoded[1].Calls != 1 {
		t.Fatalf("round trip = %+v", decoded)
	}
	ex := decoded[0]
	if ex.Query != "SELECT a FROM t WHERE a < 3" || ex.Fingerprint != "Project(Filter(Scan(t)))" {
		t.Errorf("round trip lost the statement: %+v", ex)
	}
	if ex.LastLatencyNs != 1500 || ex.LastRows != 2 || ex.ChaosFires["exec.scan"] != 2 || ex.Profile != "Scan t (est=4 act=4 rows)\n" {
		t.Fatalf("round trip lost the exemplar: %+v", ex)
	}
	// Quiet entries omit the optional exemplar fields entirely.
	if bytes.Count(buf.Bytes(), []byte(`"chaos_fires"`)) != 1 || bytes.Count(buf.Bytes(), []byte(`"profile"`)) != 1 {
		t.Fatalf("quiet entry serialized empty exemplar fields:\n%s", buf.String())
	}
}

// TestSlowLogConcurrent records executions carrying profiles and chaos
// fires from many goroutines while another snapshots and serializes.
// The -race run is the assertion (the exemplar takes no lock), plus
// conservation of the call count and whole fires maps: every snapshot
// sees one execution's map, never a torn mix of two.
func TestSlowLogConcurrent(t *testing.T) {
	s := NewStatementStats(64)
	const writers = 8
	const perWriter = 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				o := StmtObservation{Fingerprint: fmt.Sprintf("fp%d", i%8), Outcome: StmtOK, LatencyNs: 1, Rows: 1}
				switch i % 3 {
				case 1:
					o.Profile = fmt.Sprintf("profile %d", w)
				case 2:
					o.ChaosFires = map[string]uint64{"exec.scan": uint64(w + 1), "kv.get": uint64(w + 1)}
				}
				s.Record(o)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			var calls uint64
			for _, e := range s.Snapshot() {
				calls += e.Calls
			}
			if calls != writers*perWriter {
				t.Fatalf("calls = %d, want %d", calls, writers*perWriter)
			}
			if s.Len() != 8 {
				t.Errorf("len = %d, want 8 fingerprints", s.Len())
			}
			return
		default:
			for _, e := range s.Snapshot() {
				if f := e.ChaosFires; f != nil && f["exec.scan"] != f["kv.get"] {
					t.Fatalf("torn fires map %v", f)
				}
			}
			var buf bytes.Buffer
			if _, err := s.WriteJSONTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSlowLogFingerprintFold pins the exemplar that system.slow_queries
// projects: executions sharing a fingerprint fold into one entry whose
// latency, rows and chaos fires are the latest successful execution's
// (chaos attribution stays per execution, never cumulative), whose
// profile is the latest non-empty one, and whose query text is the
// first-seen one.
func TestSlowLogFingerprintFold(t *testing.T) {
	s := NewStatementStats(0)
	for i := 0; i < 100; i++ {
		s.Record(StmtObservation{
			Fingerprint: "fp-hot", Query: "SELECT * FROM hot",
			Outcome: StmtOK, LatencyNs: int64(10 + i%7), Rows: int64(i),
		})
	}
	s.Record(StmtObservation{Fingerprint: "fp-other", Query: "SELECT 1", Outcome: StmtOK, LatencyNs: 5})
	hot := func() StatementStat {
		t.Helper()
		snap := s.Snapshot()
		if len(snap) != 2 {
			t.Fatalf("store holds %d entries, want 2 (100 hot executions fold into one)", len(snap))
		}
		return snap[0]
	}
	h := hot()
	if h.Calls != 100 || h.MaxNs != 16 {
		t.Errorf("hot calls/max = %d/%d, want 100/16", h.Calls, h.MaxNs)
	}
	if h.LastLatencyNs != int64(10+99%7) || h.LastRows != 99 {
		t.Errorf("hot exemplar = %d ns / %d rows, want the latest execution's %d / 99", h.LastLatencyNs, h.LastRows, 10+99%7)
	}

	// A profiled, chaos-hit execution becomes the exemplar.
	s.Record(StmtObservation{
		Fingerprint: "fp-hot", Query: "EXPLAIN ANALYZE SELECT * FROM hot",
		Outcome: StmtOK, LatencyNs: 12, Rows: 7, Profile: "Scan hot 99 rows",
		ChaosFires: map[string]uint64{"exec.scan": 1},
	})
	if h = hot(); h.Profile != "Scan hot 99 rows" || h.ChaosFires["exec.scan"] != 1 || h.LastRows != 7 {
		t.Errorf("profiled execution not folded: %+v", h)
	}
	// Failures leave the exemplar alone.
	s.Record(StmtObservation{Fingerprint: "fp-hot", Outcome: StmtError, LatencyNs: 999})
	if h = hot(); h.LastLatencyNs != 12 || h.ChaosFires["exec.scan"] != 1 {
		t.Errorf("failed execution replaced the exemplar: %+v", h)
	}
	// A later plain execution keeps the profile but clears the fires.
	s.Record(StmtObservation{Fingerprint: "fp-hot", Query: "SELECT * FROM hot", Outcome: StmtOK, LatencyNs: 13, Rows: 3})
	h = hot()
	if h.Profile != "Scan hot 99 rows" {
		t.Errorf("profile dropped by a plain execution: %q", h.Profile)
	}
	if len(h.ChaosFires) != 0 {
		t.Errorf("chaos fires = %v, want cleared by the quiet execution", h.ChaosFires)
	}
	if h.LastLatencyNs != 13 || h.LastRows != 3 || h.Calls != 103 {
		t.Errorf("hot after plain run = %+v", h)
	}
	if h.Query != "SELECT * FROM hot" {
		t.Errorf("canonical text = %q, want first-seen", h.Query)
	}
}

func TestRegisterProcMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"proc.uptime_ns", "proc.goroutines", "proc.heap_alloc_bytes", "proc.gc_pause_total_ns"} {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s not registered (have %v)", name, snap)
		}
		if name != "proc.gc_pause_total_ns" && v <= 0 {
			t.Fatalf("%s = %v, want > 0", name, v)
		}
	}
	// The sampler caches MemStats between reads; values must still be
	// readable repeatedly (and uptime must advance).
	u1 := snap["proc.uptime_ns"]
	time.Sleep(time.Millisecond)
	u2 := reg.Snapshot()["proc.uptime_ns"]
	if u2 <= u1 {
		t.Fatalf("uptime did not advance: %v -> %v", u1, u2)
	}
}
