package catalog

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"aidb/internal/storage"
)

func testSchema() Schema {
	return Schema{Columns: []Column{
		{Name: "id", Type: Int64},
		{Name: "score", Type: Float64},
		{Name: "name", Type: String},
	}}
}

func TestCreateInsertGet(t *testing.T) {
	c := NewMem()
	tab, err := c.CreateTable("users", testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rid, err := tab.Insert(Row{int64(1), 3.14, "alice"})
	if err != nil {
		t.Fatal(err)
	}
	row, err := tab.Get(rid)
	if err != nil {
		t.Fatal(err)
	}
	if row[0].(int64) != 1 || row[1].(float64) != 3.14 || row[2].(string) != "alice" {
		t.Errorf("row = %v", row)
	}
}

func TestInsertTypeMismatch(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	if _, err := tab.Insert(Row{"wrong", 1.0, "x"}); err == nil {
		t.Error("expected type error")
	}
	if _, err := tab.Insert(Row{int64(1)}); err == nil {
		t.Error("expected arity error")
	}
}

func TestDuplicateTable(t *testing.T) {
	c := NewMem()
	if _, err := c.CreateTable("t", testSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", testSchema()); err == nil {
		t.Error("expected duplicate-table error")
	}
}

func TestDropTable(t *testing.T) {
	c := NewMem()
	c.CreateTable("t", testSchema())
	if err := c.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("t"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestScanSpansPages(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("big", testSchema())
	const n = 2000 // enough rows to span many 4KB pages
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(Row{int64(i), float64(i), "row"}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != n {
		t.Fatalf("NumRows = %d, want %d", tab.NumRows(), n)
	}
	count := 0
	sum := int64(0)
	err := tab.Scan(func(_ storage.RecordID, r Row) bool {
		count++
		sum += r[0].(int64)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Errorf("scanned %d rows, want %d", count, n)
	}
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestScanEarlyStop(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	for i := 0; i < 100; i++ {
		tab.Insert(Row{int64(i), 0.0, ""})
	}
	count := 0
	tab.Scan(func(_ storage.RecordID, r Row) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Errorf("scan visited %d rows after early stop, want 10", count)
	}
}

func TestDeleteHidesRow(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	rid, _ := tab.Insert(Row{int64(1), 1.0, "x"})
	tab.Insert(Row{int64(2), 2.0, "y"})
	if err := tab.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Errorf("NumRows = %d after delete, want 1", tab.NumRows())
	}
	if _, err := tab.Get(rid); !errors.Is(err, storage.ErrRecordDeleted) {
		t.Errorf("Get deleted: %v", err)
	}
	rows, _ := tab.AllRows()
	if len(rows) != 1 || rows[0][0].(int64) != 2 {
		t.Errorf("AllRows = %v", rows)
	}
}

// Property: rows of every type round-trip through encode/decode.
func TestRowRoundTripProperty(t *testing.T) {
	schema := testSchema()
	f := func(id int64, score float64, name string) bool {
		b, err := encodeRow(&schema, Row{id, score, name})
		if err != nil {
			return false
		}
		row, err := decodeRow(&schema, b)
		if err != nil {
			return false
		}
		// NaN != NaN; compare bit patterns via equality only for non-NaN.
		if score == score && row[1].(float64) != score {
			return false
		}
		return row[0].(int64) == id && row[2].(string) == name
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	schema := testSchema()
	b, _ := encodeRow(&schema, Row{int64(1), 2.0, "hello"})
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeRow(&schema, b[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(b))
		}
	}
}

// insertRaw appends a raw record to the table's last page, bypassing
// encodeRow — the way to plant a corrupt record.
func insertRaw(t *testing.T, tab *Table, rec []byte) {
	t.Helper()
	id := tab.pages[len(tab.pages)-1]
	p, err := tab.pool.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatal(err)
	}
	if err := tab.pool.Unpin(id, true); err != nil {
		t.Fatal(err)
	}
}

// TestScanPagesWhereMatchesFullScan checks late materialization: a
// filter that reads one column keeps exactly the rows a full decode
// followed by the same filter keeps, fully decoded, and sees every row.
func TestScanPagesWhereMatchesFullScan(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	for i := 0; i < 500; i++ {
		if _, err := tab.Insert(Row{int64(i), float64(i) / 2, fmt.Sprintf("n%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	all, err := tab.AllRows()
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, r := range all {
		if r[0].(int64)%7 == 0 {
			want = append(want, r)
		}
	}
	var got []Row
	seen := 0
	err = tab.ScanPagesWhere(tab.PageIDs(), []int{0},
		func(scratch Row) (bool, error) {
			seen++
			if scratch[1] != nil || scratch[2] != nil {
				return false, fmt.Errorf("unwanted columns decoded: %v", scratch)
			}
			return scratch[0].(int64)%7 == 0, nil
		},
		func(cols int) Row { return make(Row, cols) },
		func(_ storage.RecordID, r Row) bool {
			got = append(got, r)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(all) {
		t.Errorf("filter saw %d rows, table has %d", seen, len(all))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kept %d rows, want %d:\n%v\n%v", len(got), len(want), got, want)
	}
}

// TestScanPagesWhereTruncatedRejectedRow plants a record truncated
// inside a column the filter never reads, in a row the filter rejects:
// the scan must still fail with the error a full decode reports.
func TestScanPagesWhereTruncatedRejectedRow(t *testing.T) {
	c := NewMem()
	schema := testSchema()
	tab, _ := c.CreateTable("t", schema)
	for i := 0; i < 10; i++ {
		if _, err := tab.Insert(Row{int64(i), 1.5, "ok"}); err != nil {
			t.Fatal(err)
		}
	}
	good, _ := encodeRow(&schema, Row{int64(-1), 2.5, "truncated name"})
	insertRaw(t, tab, good[:len(good)-3])
	alloc := func(cols int) Row { return make(Row, cols) }
	keepAll := func(storage.RecordID, Row) bool { return true }
	fullErr := tab.ScanPagesInto(tab.PageIDs(), alloc, keepAll)
	if fullErr == nil || fullErr.Error() != "catalog: truncated string value" {
		t.Fatalf("full scan error = %v, want catalog: truncated string value", fullErr)
	}
	err := tab.ScanPagesWhere(tab.PageIDs(), []int{0},
		func(scratch Row) (bool, error) { return scratch[0].(int64) >= 0, nil },
		alloc, keepAll)
	if err == nil || err.Error() != fullErr.Error() {
		t.Fatalf("filtered scan error = %v, want %v", err, fullErr)
	}
}

// FuzzDecodeRow decodes arbitrary bytes against an arbitrary schema in
// full and partially (a random column subset): both must fail with the
// same error or succeed, and on success every decoded column must hold
// the full decode's value while the others stay untouched.
func FuzzDecodeRow(f *testing.F) {
	schema := testSchema()
	rec, _ := encodeRow(&schema, Row{int64(7), 2.5, "hello"})
	types := []byte{byte(Int64), byte(Float64), byte(String)}
	for cut := 0; cut <= len(rec); cut += 3 {
		f.Add(types, uint8(0b101), rec[:cut])
	}
	f.Add([]byte{byte(String), byte(String)}, uint8(0b10), []byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Fuzz(func(t *testing.T, types []byte, mask uint8, rec []byte) {
		if len(types) == 0 || len(types) > 8 {
			return
		}
		var s Schema
		want := make([]bool, len(types))
		for i, ty := range types {
			s.Columns = append(s.Columns, Column{Name: fmt.Sprintf("c%d", i), Type: ColType(ty % 3)})
			want[i] = mask&(1<<i) != 0
		}
		full := make(Row, len(types))
		part := make(Row, len(types))
		fullErr := decodeInto(&s, rec, full, nil)
		partErr := decodeInto(&s, rec, part, want)
		if fmt.Sprint(fullErr) != fmt.Sprint(partErr) {
			t.Fatalf("full decode error %v, partial %v", fullErr, partErr)
		}
		if fullErr != nil {
			return
		}
		for i := range types {
			switch {
			case !want[i] && part[i] != nil:
				t.Fatalf("column %d not wanted but decoded to %v", i, part[i])
			case want[i] && fmt.Sprintf("%#v", part[i]) != fmt.Sprintf("%#v", full[i]):
				t.Fatalf("column %d: partial %#v, full %#v", i, part[i], full[i])
			}
		}
	})
}

func TestHistogramEstimates(t *testing.T) {
	vals := make([]int64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vals = append(vals, int64(i%100)) // uniform over [0,100)
	}
	h := NewHistogram(vals, 10)
	// Exactly 10% of values in [0,9].
	est := h.EstimateRange(0, 9)
	if est < 80 || est > 120 {
		t.Errorf("EstimateRange(0,9) = %v, want ~100", est)
	}
	if s := h.Selectivity(0, 99); s < 0.99 {
		t.Errorf("full-range selectivity = %v, want ~1", s)
	}
	if s := h.Selectivity(200, 300); s != 0 {
		t.Errorf("out-of-range selectivity = %v, want 0", s)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil, 10)
	if h.EstimateRange(0, 10) != 0 {
		t.Error("empty histogram should estimate 0")
	}
}

func TestAnalyzeComputesStats(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", Schema{Columns: []Column{
		{Name: "a", Type: Int64},
		{Name: "s", Type: String},
	}})
	for i := 0; i < 500; i++ {
		tab.Insert(Row{int64(i % 10), "x"})
	}
	if err := tab.Analyze(8, 3); err != nil {
		t.Fatal(err)
	}
	if tab.Stats.RowCount != 500 {
		t.Errorf("RowCount = %d", tab.Stats.RowCount)
	}
	cs := tab.Stats.Cols[0]
	if cs == nil {
		t.Fatal("no stats for int column")
	}
	if cs.NDV != 10 {
		t.Errorf("NDV = %d, want 10", cs.NDV)
	}
	if len(cs.MCVs) != 3 {
		t.Errorf("MCVs = %d entries, want 3", len(cs.MCVs))
	}
	if cs.MCVs[0].Count != 50 {
		t.Errorf("top MCV count = %d, want 50", cs.MCVs[0].Count)
	}
	if _, ok := tab.Stats.Cols[1]; ok {
		t.Error("string column should not get int stats")
	}
	// Selectivity of a = 0..4 should be about half.
	sel := tab.EstimateSelectivity(0, 0, 4)
	if sel < 0.4 || sel > 0.6 {
		t.Errorf("selectivity = %v, want ~0.5", sel)
	}
}

func TestEstimateSelectivityDefaults(t *testing.T) {
	c := NewMem()
	tab, _ := c.CreateTable("t", testSchema())
	if s := tab.EstimateSelectivity(0, 0, 10); s != 1.0/3 {
		t.Errorf("no-stats selectivity = %v, want 1/3", s)
	}
}
