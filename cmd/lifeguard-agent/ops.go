package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"time"

	"lifeguard"
	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
)

// opsServer is the agent's embedded HTTP ops surface: liveness,
// membership, telemetry, Prometheus metrics and Go
// runtime profiles. It is read-only — every endpoint is a snapshot of
// node or process state, never a mutation.
type opsServer struct {
	srv *http.Server
	ln  net.Listener
}

// startOps binds addr and serves the ops endpoints in a background
// goroutine until close is called.
func startOps(addr string, node *lifeguard.Node, tr *lifeguard.UDPTransport, rec *telemetry.NodeRecorder, sink *metrics.MemSink, started time.Time) (*opsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: newOpsMux(node, tr, rec, sink, started)}
	go srv.Serve(ln)
	return &opsServer{srv: srv, ln: ln}, nil
}

// addr returns the bound listen address (useful with port 0).
func (o *opsServer) addr() string { return o.ln.Addr().String() }

// close shuts the server down, waiting briefly for in-flight requests.
func (o *opsServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	o.srv.Shutdown(ctx)
}

// healthResponse is the /healthz JSON shape.
type healthResponse struct {
	Status            string  `json:"status"`
	Name              string  `json:"name"`
	Addr              string  `json:"addr"`
	UptimeS           float64 `json:"uptime_s"`
	Members           int     `json:"members"`
	Alive             int     `json:"alive"`
	LHM               int     `json:"lhm"`
	PendingBroadcasts int     `json:"pending_broadcasts"`
}

// memberJSON is one entry in the /members JSON response.
type memberJSON struct {
	Name        string `json:"name"`
	Addr        string `json:"addr"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// membersResponse is the /members JSON shape.
type membersResponse struct {
	Members []memberJSON `json:"members"`
}

// countOpenFDs returns the process's open file-descriptor count from
// /proc/self/fd, or -1 where that isn't available (non-Linux); the
// corresponding gauge is simply omitted then.
func countOpenFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// newOpsMux builds the ops endpoint routing; split from startOps so
// httptest can exercise the handlers without a real listener. rec is
// never nil: the agent attaches a recorder whenever it serves ops.
func newOpsMux(node *lifeguard.Node, tr *lifeguard.UDPTransport, rec *telemetry.NodeRecorder, sink *metrics.MemSink, started time.Time) *http.ServeMux {
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	countAlive := func() (total, alive int) {
		ms := node.Members()
		for _, m := range ms {
			if m.State == lifeguard.StateAlive {
				alive++
			}
		}
		return len(ms), alive
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		total, alive := countAlive()
		writeJSON(w, healthResponse{
			Status:            "ok",
			Name:              node.Name(),
			Addr:              node.Addr(),
			UptimeS:           time.Since(started).Seconds(),
			Members:           total,
			Alive:             alive,
			LHM:               node.HealthScore(),
			PendingBroadcasts: node.PendingBroadcasts(),
		})
	})
	mux.HandleFunc("/members", func(w http.ResponseWriter, r *http.Request) {
		ms := node.Members()
		sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
		resp := membersResponse{Members: make([]memberJSON, 0, len(ms))}
		for _, m := range ms {
			resp.Members = append(resp.Members, memberJSON{
				Name:        m.Name,
				Addr:        m.Addr,
				State:       m.State.String(),
				Incarnation: m.Incarnation,
			})
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, rec.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WriteCounters(w, "lifeguard_", sink.Snapshot())
		total, alive := countAlive()
		telemetry.WriteGauge(w, "lifeguard_members", float64(total))
		telemetry.WriteGauge(w, "lifeguard_members_alive", float64(alive))
		telemetry.WriteGauge(w, "lifeguard_health_score", float64(node.HealthScore()))
		telemetry.WriteGauge(w, "lifeguard_pending_broadcasts", float64(node.PendingBroadcasts()))
		// Process-level leak gauges: the e2e soak harness snapshots these
		// before and after churn to assert the agent does not accumulate
		// goroutines or file descriptors.
		telemetry.WriteGauge(w, "lifeguard_goroutines", float64(runtime.NumGoroutine()))
		if fds := countOpenFDs(); fds >= 0 {
			telemetry.WriteGauge(w, "lifeguard_open_fds", float64(fds))
		}
		// Transport counters: stream_reuses / (stream_dials +
		// stream_reuses) is the share of reliable sends that found their
		// connection already open.
		ts := tr.Stats()
		telemetry.WriteCounters(w, "lifeguard_transport_", map[string]int64{
			"datagrams_sent":       int64(ts.DatagramsSent),
			"datagrams_received":   int64(ts.DatagramsReceived),
			"stream_dials":         int64(ts.StreamDials),
			"stream_dial_errors":   int64(ts.StreamDialErrors),
			"stream_reuses":        int64(ts.StreamReuses),
			"stream_stale_redials": int64(ts.StreamStaleRedials),
			"stream_drops":         int64(ts.StreamDrops),
			"oversize_rejects":     int64(ts.OversizeRejects),
		})
		telemetry.WriteGauge(w, "lifeguard_transport_open_streams", float64(ts.OpenStreams))
		snap := rec.Snapshot()
		telemetry.WriteGauge(w, "lifeguard_telemetry_samples", float64(snap.Samples))
		telemetry.WriteCounters(w, "lifeguard_", map[string]int64{
			"telemetry_evictions":  int64(snap.Evictions),
			"telemetry_overwrites": int64(snap.Overwrites),
			"lhm_changes":          int64(snap.LHMChanges),
		})
		telemetry.WriteHistogram(w, "lifeguard_probe_rtt_seconds", snap.RTT)
		telemetry.WriteHistogram(w, "lifeguard_suspicion_seconds", snap.Suspicion)
	})
	// Go's runtime profiles, on the same opt-in listener.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
