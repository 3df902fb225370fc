package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
)

// Telemetry bundles one process's observability surfaces behind a
// single HTTP handler — the monitoring plane lives entirely off the
// request hot path (Baihe's separation-of-concerns rule): handlers only
// read atomics, ring copies, and cached series, never engine locks.
//
// Endpoints:
//
//	/metrics              Prometheus-style text (?format=json | text for
//	                      the JSON / internal expositions)
//	/timeseries           JSON series index {series, windows, capacity}
//	/timeseries?name=N&window=K  last K points of series N
//	/statements           per-fingerprint statement statistics as a JSON array
//	/traces               exported span trees as a JSON array
//	/alerts               KPI anomaly alerts as a JSON array
//	/debug/pprof/*        the standard Go profiling endpoints
//
// Any field may be nil; the corresponding endpoint degrades to an empty
// document. Telemetry is itself an http.Handler.
type Telemetry struct {
	Registry *Registry
	Series   *TimeSeries
	Tracer   *Tracer
	// Alerts is the anomaly-alert ring (monitor.AlertLog satisfies
	// this; an interface keeps obs free of a monitor dependency).
	Alerts JSONDumper
	// Statements is the per-fingerprint statement statistics store —
	// the same store system.statements scans.
	Statements *StatementStats

	once sync.Once
	mux  *http.ServeMux
}

// JSONDumper renders a component as a self-contained JSON document.
// StatementStats, TimeSeries (curried), and monitor.AlertLog satisfy it.
type JSONDumper interface {
	WriteJSONTo(w io.Writer) (int64, error)
}

// ServeHTTP implements http.Handler, routing to the telemetry
// endpoints above.
func (t *Telemetry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t.once.Do(t.buildMux)
	t.mux.ServeHTTP(w, r)
}

func (t *Telemetry) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("/", t.handleIndex)
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/timeseries", t.handleTimeseries)
	mux.HandleFunc("/statements", t.handleStatements)
	mux.HandleFunc("/traces", t.handleTraces)
	mux.HandleFunc("/alerts", t.handleAlerts)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	t.mux = mux
}

func (t *Telemetry) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, `aidb telemetry
/metrics       Prometheus text (?format=json|text)
/timeseries    series index; ?name=&window= for points
/statements    per-fingerprint statement statistics (JSON)
/traces        exported span trees (JSON)
/alerts        KPI anomaly alerts (JSON)
/debug/pprof/  Go profiling
`)
}

func (t *Telemetry) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		t.Registry.WriteJSONTo(w)
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		t.Registry.WriteTo(w)
	default:
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.Registry.WritePromTo(w)
	}
}

func (t *Telemetry) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	name := r.URL.Query().Get("name")
	if name == "" {
		names := t.Series.Names()
		if names == nil {
			names = []string{}
		}
		buf, _ := json.MarshalIndent(struct {
			Series   []string `json:"series"`
			Windows  uint64   `json:"windows"`
			Capacity int      `json:"capacity"`
		}{names, t.Series.Windows(), t.Series.Capacity()}, "", "  ")
		w.Write(append(buf, '\n'))
		return
	}
	n, _ := strconv.Atoi(r.URL.Query().Get("window"))
	t.Series.WriteJSONTo(w, name, n)
}

func (t *Telemetry) handleStatements(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	t.Statements.WriteJSONTo(w)
}

func (t *Telemetry) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	exports := t.Tracer.Exports()
	if exports == nil {
		exports = []SpanExport{}
	}
	buf, err := json.MarshalIndent(exports, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(append(buf, '\n'))
}

func (t *Telemetry) handleAlerts(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if t.Alerts == nil {
		io.WriteString(w, "[]\n")
		return
	}
	t.Alerts.WriteJSONTo(w)
}

// Server is a started telemetry HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an HTTP telemetry server on addr (":0" picks a free
// port; read the bound address back with Addr). The listener is bound
// synchronously — a non-nil return means scrapes will be served — and
// requests are handled on background goroutines until Close.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: t}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr reports the server's bound address (host:port).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down, closing the listener and any active
// connections. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// WritePromTo renders the registry in the Prometheus text exposition
// format: names are sanitized to [a-zA-Z0-9_] (dots become
// underscores), counters and gauges are scalars with a # TYPE comment,
// and histograms render as a summary (quantile-labelled lines plus
// _sum/_count). Values are read outside the registry lock. A nil
// registry writes a disabled marker.
func (r *Registry) WritePromTo(w io.Writer) (int64, error) {
	if r == nil {
		n, err := io.WriteString(w, "# obs: registry disabled\n")
		return int64(n), err
	}
	var total int64
	write := func(s string) error {
		n, err := io.WriteString(w, s)
		total += int64(n)
		return err
	}
	// Two dotted names may sanitize to the same family ("a.b" and
	// "a_b"); the format forbids duplicate # TYPE lines, so collisions
	// get a numeric suffix instead of corrupting the exposition.
	seen := make(map[string]int)
	for _, m := range r.refs() {
		name := promName(m.name)
		if n := seen[name]; n > 0 {
			seen[name] = n + 1
			name = fmt.Sprintf("%s_%d", name, n)
		} else {
			seen[name] = 1
		}
		var err error
		switch {
		case m.c != nil:
			err = write(fmt.Sprintf("# TYPE %s counter\n%s %d\n", name, name, m.c.Value()))
		case m.g != nil:
			err = write(fmt.Sprintf("# TYPE %s gauge\n%s %s\n", name, name, promNum(m.g.Value())))
		case m.fn != nil:
			err = write(fmt.Sprintf("# TYPE %s gauge\n%s %s\n", name, name, promNum(m.fn())))
		case m.h != nil:
			s := m.h.Snapshot()
			err = write(fmt.Sprintf("# TYPE %s summary\n"+
				"%s{quantile=\"0.5\"} %s\n%s{quantile=\"0.95\"} %s\n%s{quantile=\"0.99\"} %s\n"+
				"%s_sum %s\n%s_count %d\n",
				name,
				name, promNum(s.P50), name, promNum(s.P95), name, promNum(s.P99),
				name, promNum(s.Sum), name, s.Count))
		}
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// promName sanitizes a dotted metric name into a Prometheus-legal one.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			sb.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promNum formats a float for the Prometheus text format (NaN and Inf
// are legal there, unlike JSON).
func promNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
