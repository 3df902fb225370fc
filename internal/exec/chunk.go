package exec

import (
	"sync"
	"sync/atomic"

	"aidb/internal/catalog"
)

// Chunk is the unit of data flow in the streaming executor: a batch of
// up to ~MorselSize rows handed from operator to operator. Fresh rows
// are carved out of the chunk's value arena (one slab per ~thousand
// rows instead of one allocation per row), so a chunk that cycles
// through the pool makes steady-state scans allocation-free.
//
// Ownership is linear: exactly one operator owns a chunk at a time.
// The owner either passes it downstream, recycles it (rows become
// invalid, storage is reused), or escapes it (rows outlive the
// pipeline — result sets, sort buffers, join build tables — and the
// chunk is never reused). Individual Values copied out of a row are
// always safe to retain; only the Row slice headers alias the arena.
type Chunk struct {
	rows []catalog.Row
	// vals is the current arena slab. newRow carves capacity-capped
	// sub-slices out of it; when the slab runs out a fresh one is
	// started and the old slab stays alive behind the rows that
	// reference it.
	vals []catalog.Value

	// charged is the byte count this chunk currently holds against the
	// run's memory budget (0 = uncharged). Set by runCtx.chargeEmit,
	// refunded by runCtx.recycle.
	charged int64
	// released guards against double-put: true while the chunk sits in
	// the free list or after it escaped.
	released bool
	// src is the pool the chunk came from; nil for static chunks
	// (aggregate/sort outputs) that are never pooled.
	src *chunkPool
}

// Rows exposes the chunk's row batch. The slice and its rows are only
// valid until the chunk is recycled.
func (c *Chunk) Rows() []catalog.Row { return c.rows }

// Len is the number of rows in the chunk.
func (c *Chunk) Len() int { return len(c.rows) }

// newRow carves a width-column row out of the arena. The sub-slice is
// capacity-capped, so appending to a returned row can never clobber a
// neighbor. Exhausting the slab starts a fresh one, twice as large but
// at least a full default chunk (DefaultMorselRows rows of this width);
// rows already carved keep the old slab alive through their own
// headers.
func (c *Chunk) newRow(width int) catalog.Row {
	n := len(c.vals)
	if n+width > cap(c.vals) {
		grow := max(2*cap(c.vals), DefaultMorselRows*width)
		c.vals = make([]catalog.Value, 0, grow)
		n = 0
	}
	c.vals = c.vals[:n+width]
	row := catalog.Row(c.vals[n : n+width : n+width])
	for i := range row {
		row[i] = nil
	}
	return row
}

// reserve pre-sizes an empty chunk for n rows of width columns: one
// exact arena slab and row-slice capacity up front, instead of letting
// newRow fall back to its full-chunk default. That default is right
// for recycled chunks (the slab amortizes across reuses) but wasteful
// for chunks that will escape the pipeline — narrow projection and
// join outputs were paying a full four-column slab per chunk. No-op on
// chunks that already hold rows or an adequate slab.
func (c *Chunk) reserve(n, width int) {
	if len(c.rows) > 0 || len(c.vals) > 0 || n <= 0 || width <= 0 {
		return
	}
	if need := n * width; cap(c.vals) < need {
		c.vals = make([]catalog.Value, 0, need)
	}
	if cap(c.rows) < n {
		c.rows = make([]catalog.Row, 0, n)
	}
}

// reset clears the chunk for reuse, keeping the rows slice and the
// current arena slab capacity.
func (c *Chunk) reset() {
	c.rows = c.rows[:0]
	c.vals = c.vals[:0]
	c.charged = 0
}

// maxPoolChunks bounds the free list; beyond it returned chunks are
// dropped for the GC. A pipeline keeps at most a couple of chunks per
// worker in flight, so 32 covers every configuration without pinning
// unbounded arenas.
const maxPoolChunks = 32

// chunkPool is a per-run free list of chunks. It meters hits and
// misses onto the executor's obs registry and keeps a local get/put
// balance so tests can assert no chunk leaks across cancellation and
// budget-abort teardowns.
type chunkPool struct {
	mu   sync.Mutex
	free []*Chunk
	// m points at the owning executor's metrics (nil-field metrics are
	// no-ops, so an uninstrumented run pays only the pointer check).
	m *Metrics

	gets    atomic.Int64
	puts    atomic.Int64
	escapes atomic.Int64
}

// get returns a reset chunk, reusing a pooled one when available.
func (p *chunkPool) get() *Chunk {
	p.gets.Add(1)
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		if p.m != nil {
			p.m.ChunkPoolHits.Inc()
		}
		c.released = false
		return c
	}
	p.mu.Unlock()
	if p.m != nil {
		p.m.ChunkPoolMisses.Inc()
	}
	return &Chunk{src: p}
}

// put returns a chunk to the free list. Double puts and puts of
// escaped or static chunks are no-ops.
func (p *chunkPool) put(c *Chunk) {
	if c == nil || c.released || c.src != p {
		return
	}
	c.released = true
	c.reset()
	p.puts.Add(1)
	p.mu.Lock()
	if len(p.free) < maxPoolChunks {
		p.free = append(p.free, c)
	}
	p.mu.Unlock()
}

// escape marks a chunk as permanently out of the pool: its rows are
// retained past the pipeline (result rows, sort buffers, join build
// tables), so its storage must never be reused.
func (p *chunkPool) escape(c *Chunk) {
	if c == nil || c.released || c.src != p {
		return
	}
	c.released = true
	p.escapes.Add(1)
}

// outstanding is the number of chunks handed out and neither returned
// nor escaped — zero after a fully torn-down run, leaks otherwise.
func (p *chunkPool) outstanding() int64 {
	return p.gets.Load() - p.puts.Load() - p.escapes.Load()
}
