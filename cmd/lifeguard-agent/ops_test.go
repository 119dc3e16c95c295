package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"lifeguard"
	"lifeguard/internal/metrics"
	"lifeguard/internal/telemetry"
)

// newTestAgent starts a single live node on a loopback port and returns
// an httptest server over the ops mux, with the recorder and sink for
// direct seeding.
func newTestAgent(t *testing.T) (*httptest.Server, *telemetry.NodeRecorder, *metrics.MemSink) {
	t.Helper()
	tr, err := lifeguard.NewUDPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	cfg := lifeguard.DefaultConfig("ops-test")
	cfg.Addr = tr.LocalAddr()
	cfg.Transport = tr
	sink := metrics.NewMemSink()
	cfg.Metrics = sink
	rec, err := lifeguard.NewNodeTelemetry(telemetry.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = rec

	node, err := lifeguard.NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.Run(node.HandlePacket)
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Shutdown)

	srv := httptest.NewServer(newOpsMux(node, tr, rec, sink, time.Now()))
	t.Cleanup(srv.Close)
	return srv, rec, sink
}

// getJSON fetches path and decodes the response body into a generic
// map, failing on a non-200 status or a wrong content type.
func getJSON(t *testing.T, srv *httptest.Server, path string) map[string]any {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET %s: content type %q", path, ct)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return m
}

// assertKeys pins a JSON object's exact key set — the endpoint schema
// contract.
func assertKeys(t *testing.T, what string, m map[string]any, want ...string) {
	t.Helper()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s keys = %v, want %v", what, got, want)
	}
}

func TestOpsHealthz(t *testing.T) {
	srv, _, _ := newTestAgent(t)
	m := getJSON(t, srv, "/healthz")
	assertKeys(t, "/healthz", m,
		"status", "name", "addr", "uptime_s", "members", "alive", "lhm", "pending_broadcasts")
	if m["status"] != "ok" {
		t.Errorf("status = %v", m["status"])
	}
	if m["name"] != "ops-test" {
		t.Errorf("name = %v", m["name"])
	}
	if m["members"].(float64) < 1 || m["alive"].(float64) < 1 {
		t.Errorf("members/alive = %v/%v, want >= 1 (self)", m["members"], m["alive"])
	}
}

func TestOpsMembers(t *testing.T) {
	srv, _, _ := newTestAgent(t)
	m := getJSON(t, srv, "/members")
	assertKeys(t, "/members", m, "members")
	ms := m["members"].([]any)
	if len(ms) != 1 {
		t.Fatalf("members = %d, want 1 (self)", len(ms))
	}
	self := ms[0].(map[string]any)
	assertKeys(t, "/members entry", self, "name", "addr", "state", "incarnation")
	if self["name"] != "ops-test" || self["state"] != "alive" {
		t.Errorf("self = %v", self)
	}
}

func TestOpsTelemetry(t *testing.T) {
	srv, rec, _ := newTestAgent(t)
	rec.RecordRTT("peer-1", 12*time.Millisecond)
	rec.RecordProbe("peer-1", telemetry.OutcomeDirectAck)
	rec.RecordSuspicion("peer-1", time.Second, false)
	rec.RecordLHM(2)

	m := getJSON(t, srv, "/telemetry")
	assertKeys(t, "/telemetry", m,
		"peers", "rtt", "suspicion", "lhm", "lhm_changes",
		"samples", "evictions", "overwrites")
	for _, h := range []string{"rtt", "suspicion"} {
		assertKeys(t, "/telemetry "+h, m[h].(map[string]any), "bounds_ns", "counts", "count", "sum_ns")
	}
	peers := m["peers"].([]any)
	if len(peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(peers))
	}
	p := peers[0].(map[string]any)
	assertKeys(t, "/telemetry peer", p,
		"peer", "samples", "rtt_p50_ms", "rtt_p90_ms", "rtt_p99_ms",
		"direct_acks", "indirect_acks", "timeouts", "loss_rate", "suspicions", "deaths")
	if p["peer"] != "peer-1" || p["samples"].(float64) != 1 {
		t.Errorf("peer = %v", p)
	}
	if m["lhm"].(float64) != 2 {
		t.Errorf("lhm = %v", m["lhm"])
	}
}

func TestOpsMetricsExposition(t *testing.T) {
	srv, rec, sink := newTestAgent(t)
	sink.IncrCounter(metrics.CounterMsgsSent, 3)
	rec.RecordRTT("peer-1", 12*time.Millisecond)
	rec.RecordSuspicion("peer-1", time.Second, true)

	text := getMetricsText(t, srv)
	for _, want := range []string{
		"# TYPE lifeguard_msgs_sent counter\nlifeguard_msgs_sent 3\n",
		"# TYPE lifeguard_members gauge",
		"# TYPE lifeguard_members_alive gauge",
		"# TYPE lifeguard_health_score gauge",
		"# TYPE lifeguard_pending_broadcasts gauge",
		"# TYPE lifeguard_goroutines gauge",
		"# TYPE lifeguard_telemetry_samples gauge",
		"# TYPE lifeguard_probe_rtt_seconds histogram",
		"lifeguard_probe_rtt_seconds_bucket{le=\"+Inf\"} 1",
		"lifeguard_probe_rtt_seconds_count 1",
		"# TYPE lifeguard_suspicion_seconds histogram",
		"lifeguard_suspicion_seconds_count 1",
		"# TYPE lifeguard_telemetry_evictions counter",
		"# TYPE lifeguard_transport_datagrams_sent counter",
		"# TYPE lifeguard_transport_datagrams_received counter",
		"# TYPE lifeguard_transport_stream_dials counter\nlifeguard_transport_stream_dials 0\n",
		"# TYPE lifeguard_transport_stream_dial_errors counter",
		"# TYPE lifeguard_transport_stream_reuses counter",
		"# TYPE lifeguard_transport_stream_stale_redials counter",
		"# TYPE lifeguard_transport_stream_drops counter",
		"# TYPE lifeguard_transport_oversize_rejects counter",
		"# TYPE lifeguard_transport_open_streams gauge\nlifeguard_transport_open_streams 0\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestOpsPprof checks the Go runtime profiles are mounted on the ops
// mux: the index answers, and a one-second CPU profile comes back as a
// gzipped protocol buffer that decodes to the end and names its sample
// types.
func TestOpsPprof(t *testing.T) {
	srv, _, _ := newTestAgent(t)
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	if index := get("/debug/pprof/"); !strings.Contains(string(index), "goroutine") {
		t.Errorf("/debug/pprof/ index lists no goroutine profile:\n%s", index)
	}
	zr, err := gzip.NewReader(bytes.NewReader(get("/debug/pprof/profile?seconds=1")))
	if err != nil {
		t.Fatalf("CPU profile is not gzipped: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("CPU profile: %v", err)
	}
	strs, err := protoStrings(raw)
	if err != nil {
		t.Fatalf("CPU profile does not decode: %v", err)
	}
	// field 6 of a profile.proto Profile is its string table.
	if !slices.Contains(strs[6], "samples") || !slices.Contains(strs[6], "cpu") {
		t.Errorf("CPU profile's string table %q lacks its sample types", strs[6])
	}
}

// protoStrings walks one protocol-buffer message in wire format and
// returns its length-delimited fields' bytes, as strings, by field
// number; it errors unless every field decodes and the walk ends at
// the last byte.
func protoStrings(b []byte) (map[uint64][]string, error) {
	out := make(map[uint64][]string)
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad field key at %d bytes from the end", len(b))
		}
		b = b[n:]
		field, wire := key>>3, key&7
		switch wire {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				return nil, fmt.Errorf("field %d: bad varint", field)
			}
		case 1: // 64-bit
			n = 8
		case 2: // length-delimited
			l, m := binary.Uvarint(b)
			if m <= 0 || uint64(len(b)-m) < l {
				return nil, fmt.Errorf("field %d: bad length", field)
			}
			out[field] = append(out[field], string(b[m:m+int(l)]))
			n = m + int(l)
		case 5: // 32-bit
			n = 4
		default:
			return nil, fmt.Errorf("field %d: wire type %d", field, wire)
		}
		if n > len(b) {
			return nil, fmt.Errorf("field %d: truncated", field)
		}
		b = b[n:]
	}
	return out, nil
}

// TestOpsMetricsTransportCounters checks the transport series are the
// live counters, not constants: one datagram to a lone agent shows up
// as exactly one received.
func TestOpsMetricsTransportCounters(t *testing.T) {
	srv, _, _ := newTestAgent(t)
	conn, err := net.Dial("udp", getJSON(t, srv, "/healthz")["addr"].(string))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0}); err != nil { // undecodable: counted by the transport, dropped by the node
		t.Fatal(err)
	}
	const want = "lifeguard_transport_datagrams_received 1\n"
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(getMetricsText(t, srv), want) {
		if time.Now().After(deadline) {
			t.Fatalf("exposition never showed %q", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// getMetricsText scrapes /metrics, failing on a wrong content type.
func getMetricsText(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestOpsConcurrentScrapes races telemetry writes against snapshot
// reads through the HTTP surface; under -race this is the ops server's
// thread-safety proof.
func TestOpsConcurrentScrapes(t *testing.T) {
	srv, rec, sink := newTestAgent(t)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			rec.RecordRTT("peer-1", time.Duration(i)*time.Microsecond)
			rec.RecordProbe("peer-2", telemetry.OutcomeTimeout)
			rec.RecordLHM(i % 8)
			sink.IncrCounter(metrics.CounterProbes, 1)
			i++
		}
	}()
	var scrapers sync.WaitGroup
	for w := 0; w < 3; w++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 30; i++ {
				for _, path := range []string{"/telemetry", "/metrics", "/healthz"} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writer.Wait()
}
