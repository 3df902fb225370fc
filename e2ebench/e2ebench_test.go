package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// streamDigest hashes the load script and the first n statements of
// both sessions' streams: everything the server would receive.
func streamDigest(w *workload, seed int64, n int) string {
	d := genDataset(seed, w.events)
	h := sha256.New()
	for _, q := range d.loadScript() {
		io.WriteString(h, q+"\n")
	}
	io.WriteString(h, w.prepare+"\n")
	for session := 0; session < 2; session++ {
		s := newStream(w, d, seed, session)
		for i := 0; i < n; i++ {
			io.WriteString(h, s.next().text+"\n")
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := streamDigest(w, 7, 5000), streamDigest(w, 7, 5000)
		if a != b {
			t.Errorf("%s: seed 7 gave two different streams: %s vs %s", w.name, a, b)
		}
		if c := streamDigest(w, 8, 5000); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", w.name, a)
		}
	}
}

func TestCheckerRejectsWrongReplies(t *testing.T) {
	d := genDataset(3, true)
	pi, _ := findWorkload("point-index")
	chk := newChecker(pi, d)
	read := statement{kind: kindRead, id: 5}
	good := reply{rows: [][]string{{"5", fmt.Sprint(d.balance[5])}}}
	if bad := chk.after(read, good); bad != "" {
		t.Fatalf("right read rejected: %s", bad)
	}
	for _, rep := range []reply{
		{},
		{rows: [][]string{{"5", fmt.Sprint(d.balance[5] + 1)}}},
		{rows: [][]string{{"6", fmt.Sprint(d.balance[5])}}},
		{rows: [][]string{good.rows[0], good.rows[0]}},
	} {
		if chk.after(read, rep) == "" {
			t.Errorf("wrong read %v accepted", rep.rows)
		}
	}
	q := aggQueries()[0]
	var rows [][]string
	for k, g := range d.aggs[q.text] {
		rows = append(rows, []string{fmt.Sprint(k), fmt.Sprint(g.count), fmt.Sprint(g.sum)})
	}
	if bad := chk.checkAgg(q.text, reply{rows: rows}); bad != "" {
		t.Fatalf("right aggregate rejected: %s", bad)
	}
	rows[0][2] = fmt.Sprint(d.aggs[q.text][0].sum + 1000)
	if chk.checkAgg(q.text, reply{rows: rows}) == "" {
		t.Error("wrong aggregate accepted")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSelfTest runs every workload once untraced and once traced, in a
// short mode, and checks that each metric BENCHMARK.json names is
// emitted with its unit and a sample count, that no other metric is,
// and that the listed workloads verify clean.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var listed []workload
	for _, w := range workloads {
		if w.unlisted == "" {
			listed = append(listed, w)
		}
	}
	if len(spec.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark lists %d", len(spec.Workloads), len(listed))
	}
	for i, sw := range spec.Workloads {
		if w := listed[i]; sw.Name != w.name || sw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, sw.Name, sw.Why, w.name, w.why)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		// scan-agg statements take a fifth of a second, ten times that
		// under the race detector: give each traced half a few of them.
		dur := 2 * time.Second
		if w.events {
			dur = 8 * time.Second
		}
		for _, traced := range []bool{false, true} {
			cfg := config{w: w, seed: 11, dur: dur, warmup: 200 * time.Millisecond,
				trace: traced, setups: 1, verbose: io.Discard}
			if traced {
				cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.name, traced, m.Name)
				case got.unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.name, traced, m.Name, got.unit, m.Unit)
				case got.samples <= 0:
					t.Errorf("%s trace=%v: metric %s has no samples", w.name, traced, m.Name)
				}
			}
			if w.unlisted == "" && (!res.correct || res.failed != 0) {
				t.Errorf("%s trace=%v: verification failed (%d failures)", w.name, traced, res.failed)
			}
			if res.attempted == 0 {
				t.Errorf("%s trace=%v: no statements attempted", w.name, traced)
			}
			if traced {
				if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written (%v)", w.name, err)
				}
			}
		}
	}
}
