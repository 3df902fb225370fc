// Package catalog maintains aidb's schema objects: tables (heap files over
// the storage layer), column definitions, and per-column statistics
// (equi-width histograms, distinct counts, most-common values) used by the
// traditional optimizer baselines.
package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"aidb/internal/storage"
)

// ColType enumerates supported column types.
type ColType int

// Supported column types.
const (
	Int64 ColType = iota
	Float64
	String
)

func (t ColType) String() string {
	switch t {
	case Int64:
		return "INT"
	case Float64:
		return "FLOAT"
	default:
		return "TEXT"
	}
}

// Value is a dynamically typed cell: int64, float64 or string.
type Value any

// Row is one tuple.
type Row []Value

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Table is a named heap file with a schema and optional statistics.
type Table struct {
	Name   string
	Schema Schema

	mu    sync.RWMutex
	pool  *storage.BufferPool
	pages []storage.PageID
	rows  int
	Stats *TableStats
}

// Catalog is the collection of tables in one database.
type Catalog struct {
	mu      sync.RWMutex
	pool    *storage.BufferPool
	tables  map[string]*Table
	virtual map[string]VirtualTable
}

// New creates a catalog whose tables store pages in pool.
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{pool: pool, tables: make(map[string]*Table)}
}

// NewMem creates a catalog over a fresh in-memory disk and pool, sized for
// tests and examples.
func NewMem() *Catalog {
	pool, err := storage.NewBufferPool(storage.NewMemDisk(), 1024)
	if err != nil {
		// The constant capacity is valid by construction; reaching this
		// means NewBufferPool's contract changed under us — fail loudly
		// instead of returning a catalog with a nil pool.
		panic(fmt.Sprintf("catalog: NewMem pool: %v", err))
	}
	return New(pool)
}

// Pool exposes the catalog's buffer pool so callers can instrument it
// (obs) or inspect hit rates.
func (c *Catalog) Pool() *storage.BufferPool { return c.pool }

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, schema Schema) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; ok {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	if len(schema.Columns) == 0 {
		return nil, errors.New("catalog: table needs at least one column")
	}
	t := &Table{Name: name, Schema: schema, pool: c.pool}
	c.tables[name] = t
	return t, nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, name)
	return nil
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Tables lists table names in sorted order.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// encodeRow serializes a row against a schema.
func encodeRow(schema *Schema, row Row) ([]byte, error) {
	if len(row) != len(schema.Columns) {
		return nil, fmt.Errorf("catalog: row has %d values, schema has %d columns", len(row), len(schema.Columns))
	}
	var buf []byte
	var scratch [8]byte
	for i, col := range schema.Columns {
		switch col.Type {
		case Int64:
			v, ok := row[i].(int64)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects int64, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint64(scratch[:], uint64(v))
			buf = append(buf, scratch[:]...)
		case Float64:
			v, ok := row[i].(float64)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects float64, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
			buf = append(buf, scratch[:]...)
		case String:
			v, ok := row[i].(string)
			if !ok {
				return nil, fmt.Errorf("catalog: column %q expects string, got %T", col.Name, row[i])
			}
			binary.LittleEndian.PutUint32(scratch[:4], uint32(len(v)))
			buf = append(buf, scratch[:4]...)
			buf = append(buf, v...)
		}
	}
	return buf, nil
}

// decodeRow deserializes a row against a schema.
func decodeRow(schema *Schema, b []byte) (Row, error) {
	row := make(Row, len(schema.Columns))
	if err := decodeInto(schema, b, row, nil); err != nil {
		return nil, err
	}
	return row, nil
}

// decodeInto deserializes a record against a schema into caller-owned
// storage with one slot per schema column. A nil want decodes every
// column; otherwise only the columns with want[i] set are stored and
// the rest of row is left as it was. Every column is bounds-checked in
// order either way, so a truncated record fails with the same error
// however few columns are wanted.
func decodeInto(schema *Schema, b []byte, row Row, want []bool) error {
	off := 0
	for i, col := range schema.Columns {
		store := want == nil || want[i]
		switch col.Type {
		case Int64:
			if off+8 > len(b) {
				return errors.New("catalog: truncated int64 value")
			}
			if store {
				row[i] = int64(binary.LittleEndian.Uint64(b[off : off+8]))
			}
			off += 8
		case Float64:
			if off+8 > len(b) {
				return errors.New("catalog: truncated float64 value")
			}
			if store {
				row[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off : off+8]))
			}
			off += 8
		case String:
			if off+4 > len(b) {
				return errors.New("catalog: truncated string length")
			}
			l := int(binary.LittleEndian.Uint32(b[off : off+4]))
			off += 4
			if off+l > len(b) {
				return errors.New("catalog: truncated string value")
			}
			if store {
				row[i] = string(b[off : off+l])
			}
			off += l
		}
	}
	return nil
}

// Insert appends a row and returns its record id.
func (t *Table) Insert(row Row) (storage.RecordID, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec, err := encodeRow(&t.Schema, row)
	if err != nil {
		return storage.RecordID{}, err
	}
	// Try the last page first.
	if n := len(t.pages); n > 0 {
		id := t.pages[n-1]
		p, err := t.pool.Fetch(id)
		if err != nil {
			return storage.RecordID{}, err
		}
		slot, ierr := p.Insert(rec)
		if uerr := t.pool.Unpin(id, ierr == nil); uerr != nil {
			return storage.RecordID{}, uerr
		}
		if ierr == nil {
			t.rows++
			return storage.RecordID{Page: id, Slot: slot}, nil
		}
		if !errors.Is(ierr, storage.ErrPageFull) {
			return storage.RecordID{}, ierr
		}
	}
	p, err := t.pool.NewPage()
	if err != nil {
		return storage.RecordID{}, err
	}
	t.pages = append(t.pages, p.ID)
	slot, ierr := p.Insert(rec)
	if uerr := t.pool.Unpin(p.ID, true); uerr != nil {
		return storage.RecordID{}, uerr
	}
	if ierr != nil {
		return storage.RecordID{}, ierr
	}
	t.rows++
	return storage.RecordID{Page: p.ID, Slot: slot}, nil
}

// Get fetches the row at rid.
func (t *Table) Get(rid storage.RecordID) (Row, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	b, gerr := p.Get(rid.Slot)
	if uerr := t.pool.Unpin(rid.Page, false); uerr != nil {
		return nil, uerr
	}
	if gerr != nil {
		return nil, gerr
	}
	return decodeRow(&t.Schema, b)
}

// Delete tombstones the row at rid.
func (t *Table) Delete(rid storage.RecordID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, err := t.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	derr := p.Delete(rid.Slot)
	if uerr := t.pool.Unpin(rid.Page, derr == nil); uerr != nil {
		return uerr
	}
	if derr == nil {
		t.rows--
	}
	return derr
}

// NumRows reports the live row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// PageIDs returns a point-in-time copy of the table's page list in heap
// order. It is the partitioning handle for morsel-driven scans: split
// the list with storage.PartitionPages and hand each range to ScanPages
// on its own worker.
func (t *Table) PageIDs() []storage.PageID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]storage.PageID(nil), t.pages...)
}

// Scan streams every live row (with its record id) to fn; returning false
// stops the scan.
func (t *Table) Scan(fn func(rid storage.RecordID, row Row) bool) error {
	return t.ScanPages(t.PageIDs(), fn)
}

// ScanPages streams the live rows of just the given pages to fn in page
// order; returning false stops the scan. It is safe to call concurrently
// from multiple goroutines over disjoint page ranges — the buffer pool
// and page decode path are shared-read safe — which is how the parallel
// executor scans one morsel per worker.
func (t *Table) ScanPages(pages []storage.PageID, fn func(rid storage.RecordID, row Row) bool) error {
	return t.ScanPagesInto(pages, func(cols int) Row { return make(Row, cols) }, fn)
}

// ScanPagesInto is ScanPages with caller-owned row storage: each row is
// decoded into a slice obtained from alloc, so a streaming executor can
// carve rows out of a per-chunk arena instead of allocating one slice
// per row. The row passed to fn is only valid until fn returns if the
// allocator recycles storage; callers that retain rows must copy them.
func (t *Table) ScanPagesInto(pages []storage.PageID, alloc func(cols int) Row, fn func(rid storage.RecordID, row Row) bool) error {
	return t.scanPages(pages, nil, nil, alloc, fn)
}

// ScanPagesWhere is ScanPagesInto with a pushed-down filter (late
// materialization). Every live record is validated exactly as a full
// decode validates it, but only the columns listed in cols are decoded
// — into a scratch row of full schema width whose other slots are
// unspecified — before keep sees it. keep sees every live record in
// scan order; only a record it accepts is decoded in full, into
// storage from alloc, and passed to fn. An error from keep stops the
// scan and is returned.
func (t *Table) ScanPagesWhere(pages []storage.PageID, cols []int, keep func(scratch Row) (bool, error), alloc func(cols int) Row, fn func(rid storage.RecordID, row Row) bool) error {
	want := make([]bool, len(t.Schema.Columns))
	for _, c := range cols {
		want[c] = true
	}
	return t.scanPages(pages, want, keep, alloc, fn)
}

// scanPages is the shared scan loop; a nil keep decodes every record
// in full.
func (t *Table) scanPages(pages []storage.PageID, want []bool, keep func(Row) (bool, error), alloc func(cols int) Row, fn func(rid storage.RecordID, row Row) bool) error {
	cols := len(t.Schema.Columns)
	var scratch Row
	if keep != nil {
		scratch = make(Row, cols)
	}
	for _, id := range pages {
		p, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		stop := false
		for s := 0; s < p.Slots(); s++ {
			// A borrowed view is enough: decodeInto boxes every value
			// (strings included) before the page is unpinned.
			b, gerr := p.GetRef(s)
			if gerr != nil {
				if errors.Is(gerr, storage.ErrRecordDeleted) {
					continue
				}
				t.pool.Unpin(id, false)
				return gerr
			}
			if keep != nil {
				derr := decodeInto(&t.Schema, b, scratch, want)
				ok := false
				if derr == nil {
					ok, derr = keep(scratch)
				}
				if derr != nil {
					t.pool.Unpin(id, false)
					return derr
				}
				if !ok {
					continue
				}
			}
			row := alloc(cols)
			if derr := decodeInto(&t.Schema, b, row, nil); derr != nil {
				t.pool.Unpin(id, false)
				return derr
			}
			if !fn(storage.RecordID{Page: id, Slot: s}, row) {
				stop = true
				break
			}
		}
		if err := t.pool.Unpin(id, false); err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// AllRows materializes every live row; convenient for small tables.
func (t *Table) AllRows() ([]Row, error) {
	var rows []Row
	err := t.Scan(func(_ storage.RecordID, r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}
