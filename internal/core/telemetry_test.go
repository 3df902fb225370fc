package core

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestTelemetryEndToEnd drives queries through a DB with the HTTP
// telemetry server up and checks the whole monitoring plane — metric
// exposition, sampled time series, statements, traces, alerts — over the
// wire.
func TestTelemetryEndToEnd(t *testing.T) {
	db := Open()
	seedTable(t, db, 500)
	srv, err := db.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Series().Running() {
		t.Fatal("Serve did not start the sampler")
	}

	if _, err := db.Exec("SELECT COUNT(*) FROM t WHERE b < 25"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("EXPLAIN ANALYZE SELECT a FROM t WHERE b < 10"); err != nil {
		t.Fatal(err)
	}
	// Deterministic window instead of waiting for the 1s ticker.
	db.Series().SampleOnce()
	db.Series().SampleOnce()

	client := &http.Client{Timeout: 5 * time.Second}
	get := func(p string) string {
		t.Helper()
		resp, err := client.Get("http://" + srv.Addr() + p)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", p, resp.Status)
		}
		return string(body)
	}

	if prom := get("/metrics"); !strings.Contains(prom, "exec_queries") {
		t.Errorf("/metrics missing exec_queries:\n%.400s", prom)
	}
	var idx struct {
		Series  []string `json:"series"`
		Windows uint64   `json:"windows"`
	}
	if err := json.Unmarshal([]byte(get("/timeseries")), &idx); err != nil {
		t.Fatal(err)
	}
	if idx.Windows < 2 {
		t.Errorf("windows = %d, want >= 2", idx.Windows)
	}
	found := false
	for _, s := range idx.Series {
		if s == "exec.queries" {
			found = true
		}
	}
	if !found {
		t.Errorf("/timeseries index missing exec.queries: %v", idx.Series)
	}
	if stmts := get("/statements"); !strings.Contains(stmts, "fingerprint") {
		t.Errorf("/statements missing entries:\n%.400s", stmts)
	}
	if traces := get("/traces"); !strings.Contains(traces, `"name": "query"`) {
		t.Errorf("/traces missing exported query span:\n%.400s", traces)
	}
	if alerts := get("/alerts"); strings.TrimSpace(alerts) != "[]" {
		t.Errorf("/alerts on a healthy run = %q, want empty array", alerts)
	}
	if db.Alerts() == nil || db.Series() == nil {
		t.Error("telemetry accessors returned nil")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db.Series().Running() {
		t.Error("sampler still running after Close")
	}
}

func TestStartStopTelemetry(t *testing.T) {
	db := Open()
	db.StartTelemetry(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for db.Series().Windows() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	db.StopTelemetry()
	if w := db.Series().Windows(); w < 3 {
		t.Fatalf("sampled %d windows, want >= 3", w)
	}
	if db.Series().Running() {
		t.Error("sampler running after StopTelemetry")
	}
	// Close without Serve is fine.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
