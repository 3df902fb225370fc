package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultStatementCap bounds the number of distinct fingerprints the
// statement store keeps before evicting the least recently seen one.
const DefaultStatementCap = 512

// StmtOutcome classifies how one statement execution finished.
type StmtOutcome int

// Statement outcomes.
const (
	StmtOK StmtOutcome = iota
	StmtError
	StmtCancel
	StmtShed
)

// StmtObservation is one statement execution reported to the store.
// Fingerprint is the plan-shape key executions aggregate under; Query
// is a representative text kept from the fingerprint's first sighting.
// Profile is the per-operator summary of a profiled (EXPLAIN ANALYZE)
// run, "" otherwise; ChaosFires maps each chaos injection site to the
// faults it fired while the statement ran (nil when none fired, and
// never mutated after Record).
type StmtObservation struct {
	Fingerprint string
	Query       string
	Outcome     StmtOutcome
	LatencyNs   int64
	Rows        int64
	Chunks      int64
	PeakBytes   int64
	Profile     string
	ChaosFires  map[string]uint64
}

// stmtLatBuckets cover query latencies from ~1µs to ~275s in powers of
// four — wider than DefBuckets because statement latencies routinely
// exceed a second under chaos injection.
var stmtLatBuckets = ExpBuckets(1024, 4, 16)

// stmtEntry is the hot-path record for one fingerprint. The map only
// guards entry discovery; every field update is atomic so concurrent
// recorders never serialize on a lock.
type stmtEntry struct {
	fingerprint string
	query       string // first-seen representative text, immutable
	firstSeenNs int64  // immutable

	lastSeenNs atomic.Int64
	calls      atomic.Uint64
	errors     atomic.Uint64
	cancels    atomic.Uint64
	sheds      atomic.Uint64
	rows       atomic.Int64
	totalNs    atomic.Int64
	minNs      atomic.Int64 // math.MaxInt64 until first observation
	maxNs      atomic.Int64
	chunks     atomic.Int64
	peakBytes  atomic.Int64 // high-water mark across executions
	lat        *Histogram

	// The exemplar: the latest successful execution's latency, rows and
	// chaos fires, plus the latest non-empty profile. Each field holds
	// its own latest write, so under concurrent executions of one
	// fingerprint the fields may come from different executions.
	lastNs   atomic.Int64
	lastRows atomic.Int64
	fires    atomic.Pointer[map[string]uint64] // nil when the latest success saw no fault
	profile  atomic.Pointer[string]
}

// StatementStats is a cumulative, bounded per-fingerprint statement
// statistics store: the one workload-capture store behind
// system.statements, system.slow_queries and the /statements endpoint.
// Recording takes a read lock plus atomic updates on the entry; only
// first sightings (and evictions) take the write lock. All methods are
// nil-safe.
type StatementStats struct {
	mu      sync.RWMutex
	byFP    map[string]*stmtEntry
	cap     int
	evicted atomic.Uint64
}

// NewStatementStats creates a store keeping at most capacity distinct
// fingerprints (<=0 selects DefaultStatementCap).
func NewStatementStats(capacity int) *StatementStats {
	if capacity <= 0 {
		capacity = DefaultStatementCap
	}
	return &StatementStats{byFP: make(map[string]*stmtEntry), cap: capacity}
}

// Record folds one execution into its fingerprint's entry. A
// successful execution also becomes the entry's exemplar; chaos
// attribution stays per execution, so a quiet run clears the fires of
// an earlier faulty one.
func (s *StatementStats) Record(o StmtObservation) {
	if s == nil {
		return
	}
	now := time.Now().UnixNano()
	s.mu.RLock()
	e := s.byFP[o.Fingerprint]
	s.mu.RUnlock()
	if e == nil {
		e = s.insert(o.Fingerprint, o.Query, now)
	}
	e.lastSeenNs.Store(now)
	e.calls.Add(1)
	switch o.Outcome {
	case StmtError:
		e.errors.Add(1)
	case StmtCancel:
		e.cancels.Add(1)
	case StmtShed:
		e.sheds.Add(1)
	}
	e.rows.Add(o.Rows)
	e.totalNs.Add(o.LatencyNs)
	e.chunks.Add(o.Chunks)
	atomicMin(&e.minNs, o.LatencyNs)
	atomicMax(&e.maxNs, o.LatencyNs)
	atomicMax(&e.peakBytes, o.PeakBytes)
	e.lat.Observe(float64(o.LatencyNs))
	if o.Outcome != StmtOK {
		return
	}
	e.lastNs.Store(o.LatencyNs)
	e.lastRows.Store(o.Rows)
	// Copies keep o itself off the heap; only runs that carry fires or
	// a profile allocate.
	if len(o.ChaosFires) > 0 {
		fires := o.ChaosFires
		e.fires.Store(&fires)
	} else if e.fires.Load() != nil {
		e.fires.Store(nil)
	}
	if o.Profile != "" {
		prof := o.Profile
		e.profile.Store(&prof)
	}
}

// insert registers a new fingerprint, evicting the least recently seen
// entry when the store is full.
func (s *StatementStats) insert(fp, query string, now int64) *stmtEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byFP[fp]; ok {
		return e
	}
	if len(s.byFP) >= s.cap {
		var victim string
		oldest := int64(math.MaxInt64)
		for k, e := range s.byFP {
			if seen := e.lastSeenNs.Load(); seen < oldest {
				oldest, victim = seen, k
			}
		}
		delete(s.byFP, victim)
		s.evicted.Add(1)
	}
	e := &stmtEntry{
		fingerprint: fp,
		query:       query,
		firstSeenNs: now,
		lat:         newHistogram(stmtLatBuckets),
	}
	e.minNs.Store(math.MaxInt64)
	s.byFP[fp] = e
	return e
}

func atomicMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// StatementStat is a point-in-time summary of one fingerprint.
type StatementStat struct {
	Fingerprint string `json:"fingerprint"`
	Query       string `json:"query"`
	Calls       uint64 `json:"calls"`
	Errors      uint64 `json:"errors"`
	Cancels     uint64 `json:"cancels"`
	Sheds       uint64 `json:"sheds"`
	Rows        int64  `json:"rows"`
	TotalNs     int64  `json:"total_ns"`
	MinNs       int64  `json:"min_ns"`
	MaxNs       int64  `json:"max_ns"`
	P50Ns       int64  `json:"p50_ns"`
	P95Ns       int64  `json:"p95_ns"`
	P99Ns       int64  `json:"p99_ns"`
	Chunks      int64  `json:"chunks"`
	PeakBytes   int64  `json:"peak_bytes"`
	FirstSeenNs int64  `json:"first_seen_ns"`
	LastSeenNs  int64  `json:"last_seen_ns"`
	// The exemplar (zero until the first successful execution).
	LastLatencyNs int64             `json:"last_latency_ns"`
	LastRows      int64             `json:"last_rows"`
	Profile       string            `json:"profile,omitempty"`
	ChaosFires    map[string]uint64 `json:"chaos_fires,omitempty"`
}

// OK reports the fingerprint's successful executions.
func (s StatementStat) OK() uint64 { return s.Calls - s.Errors - s.Cancels - s.Sheds }

// Snapshot summarizes every tracked fingerprint, sorted by fingerprint
// for deterministic output. Safe to call concurrently with Record.
func (s *StatementStats) Snapshot() []StatementStat {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	entries := make([]*stmtEntry, 0, len(s.byFP))
	for _, e := range s.byFP {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	out := make([]StatementStat, 0, len(entries))
	for _, e := range entries {
		hs := e.lat.Snapshot()
		min := e.minNs.Load()
		if min == math.MaxInt64 {
			min = 0
		}
		st := StatementStat{
			Fingerprint:   e.fingerprint,
			Query:         e.query,
			Calls:         e.calls.Load(),
			Errors:        e.errors.Load(),
			Cancels:       e.cancels.Load(),
			Sheds:         e.sheds.Load(),
			Rows:          e.rows.Load(),
			TotalNs:       e.totalNs.Load(),
			MinNs:         min,
			MaxNs:         e.maxNs.Load(),
			P50Ns:         int64(hs.P50),
			P95Ns:         int64(hs.P95),
			P99Ns:         int64(hs.P99),
			Chunks:        e.chunks.Load(),
			PeakBytes:     e.peakBytes.Load(),
			FirstSeenNs:   e.firstSeenNs,
			LastSeenNs:    e.lastSeenNs.Load(),
			LastLatencyNs: e.lastNs.Load(),
			LastRows:      e.lastRows.Load(),
		}
		if f := e.fires.Load(); f != nil {
			st.ChaosFires = maps.Clone(*f)
		}
		if p := e.profile.Load(); p != nil {
			st.Profile = *p
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out
}

// Len reports the number of tracked fingerprints.
func (s *StatementStats) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byFP)
}

// Evicted reports how many fingerprints were dropped to stay under cap.
func (s *StatementStats) Evicted() uint64 {
	if s == nil {
		return 0
	}
	return s.evicted.Load()
}

// WriteJSONTo dumps the snapshot as a JSON array (the /statements
// endpoint body).
func (s *StatementStats) WriteJSONTo(w io.Writer) (int64, error) {
	snap := s.Snapshot()
	if snap == nil {
		snap = []StatementStat{}
	}
	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return 0, err
	}
	b = append(b, '\n')
	n, err := w.Write(b)
	return int64(n), err
}
