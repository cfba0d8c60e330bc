package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/obs"
)

// scrapeMetrics renders the registry in Prometheus text format and parses it
// back into a name{labels} → value map, so tests can assert on exactly what
// an external scraper would see.
func scrapeMetrics(t testing.TB, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return parseMetrics(t, sb.String())
}

func parseMetrics(t testing.TB, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	return out
}

// TestServerObsEndToEnd runs a real multi-table workload with the full
// observability stack on — metrics registry, debug HTTP handler and
// scan-timeline tracer — and asserts the three outputs an operator would
// consume: a valid /metrics scrape, a decodable /statusz snapshot taken
// mid-run, and a well-formed Perfetto-loadable trace file.
func TestServerObsEndToEnd(t *testing.T) {
	const rows, tpc = 24_000, 1000
	nsm := newTestFileFormat(t, NSM, rows, tpc, 1)
	dsm := newTestFileFormat(t, DSM, rows, tpc, 2)
	n := nsm.NumChunks()

	reg := obs.NewRegistry()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	tracer, err := obs.CreateTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: 3 * (nsm.ChunkBytes() + dsm.ChunkBytes()),
		Obs:         reg,
		Trace:       tracer,
	}, nsm, dsm)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := httptest.NewServer(obs.Handler(reg, func() any { return srv.StatusSnapshot() }))
	defer hs.Close()

	// Drive overlapping scans on both tables; scrape /statusz from inside a
	// delivery callback so the snapshot is taken while scans are live.
	var statusMid Status
	var once sync.Once
	var wg sync.WaitGroup
	scan := func(table int, name string, onChunk func(int, ChunkData)) {
		defer wg.Done()
		if _, err := srv.ScanWith(context.Background(), ScanRequest{Table: table, Name: name, Ranges: rangeSet(0, n), Cols: Q6Cols()}, onChunk); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	wg.Add(3)
	go scan(0, "nsm-a", func(int, ChunkData) {
		once.Do(func() {
			resp, err := http.Get(hs.URL + "/statusz")
			if err != nil {
				t.Errorf("/statusz: %v", err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&statusMid); err != nil {
				t.Errorf("/statusz decode: %v", err)
			}
		})
	})
	go scan(0, "nsm-b", func(int, ChunkData) {})
	go scan(1, "dsm-a", func(int, ChunkData) {})
	wg.Wait()

	if statusMid.Policy != core.Relevance.String() {
		t.Errorf("mid-run /statusz policy = %q, want %q", statusMid.Policy, core.Relevance)
	}
	if len(statusMid.Tables) != 2 {
		t.Errorf("mid-run /statusz tables = %d, want 2", len(statusMid.Tables))
	}
	if statusMid.UptimeSeconds <= 0 {
		t.Errorf("mid-run /statusz uptime = %v, want > 0", statusMid.UptimeSeconds)
	}

	final := srv.StatusSnapshot()
	nsmName, dsmName := final.Tables[0].Name, final.Tables[1].Name

	// /metrics over HTTP: correct content type, parseable, and the counters
	// reflect the workload that just ran.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	m := parseMetrics(t, string(body))
	for _, key := range []string{
		"coopscan_load_inflight",
		"coopscan_load_read_bytes_total",
		"coopscan_load_read_seconds_count",
		"coopscan_load_pin_seconds_count",
		"coopscan_pool_resident_pages",
		"coopscan_pool_loaded_bytes_total",
		"coopscan_arbiter_rebalances_total",
		fmt.Sprintf("coopscan_scan_seconds_count{table=%q,policy=%q}", nsmName, "relevance"),
		fmt.Sprintf("coopscan_scan_useful_bytes_total{table=%q}", dsmName),
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics missing %s", key)
		}
	}
	if got := m[fmt.Sprintf("coopscan_scan_seconds_count{table=%q,policy=%q}", nsmName, "relevance")]; got != 2 {
		t.Errorf("nsm scan count = %v, want 2", got)
	}
	if m["coopscan_load_read_bytes_total"] <= 0 {
		t.Error("no read bytes recorded")
	}
	// pprof must be mounted and serving.
	resp, err = http.Get(hs.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp.StatusCode)
	}

	// Close the server, then the trace, and validate the file end to end.
	// After Close every cached view is released, so the pinned-pages gauge
	// must read zero.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m = scrapeMetrics(t, reg)
	if m["coopscan_pool_pinned_pages"] != 0 {
		t.Errorf("pinned pages after Close = %v, want 0", m["coopscan_pool_pinned_pages"])
	}
	if m["coopscan_load_inflight"] != 0 {
		t.Errorf("in-flight after Close = %v, want 0", m["coopscan_load_inflight"])
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	validateTraceFile(t, tracePath)
}

// validateTraceFile decodes a finished trace file as strict Chrome
// trace-event JSON and asserts the shape Perfetto requires: a JSON array of
// events, metadata naming every track, complete spans with non-negative
// durations, and the span names the scan/load pipelines emit.
func validateTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	tracks := make(map[float64]string) // tid → thread_name
	spanNames := make(map[string]bool)
	for i, ev := range events {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			if name, _ := ev["name"].(string); name == "thread_name" {
				args := ev["args"].(map[string]any)
				tracks[ev["tid"].(float64)] = args["name"].(string)
			}
		case "X":
			dur, ok := ev["dur"].(float64)
			if !ok || dur < 0 {
				t.Errorf("event %d: complete span with bad dur %v", i, ev["dur"])
			}
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("event %d: span missing ts", i)
			}
			spanNames[ev["name"].(string)] = true
		case "i":
			if s, _ := ev["s"].(string); s != "t" {
				t.Errorf("event %d: instant scope = %q, want \"t\"", i, ev["s"])
			}
		case "":
			t.Errorf("event %d: missing ph", i)
		}
	}
	var sawScan, sawLane bool
	for _, name := range tracks {
		if strings.HasPrefix(name, "scan ") {
			sawScan = true
		}
		if strings.HasPrefix(name, "load ") {
			sawLane = true
		}
	}
	if !sawScan || !sawLane {
		t.Errorf("trace tracks = %v, want both scan and load lanes", tracks)
	}
	for _, want := range []string{"read", "pin", "deliver", "process"} {
		if !spanNames[want] {
			t.Errorf("trace has no %q span (saw %v)", want, spanNames)
		}
	}
}

// TestDeviceModelTimedApart checks that the ReadBandwidth sleep is metered
// as its own stage: it lands in coopscan_load_device_model_seconds, not in
// coopscan_load_read_seconds, and each load lane draws it after the read
// and verify spans it follows.
func TestDeviceModelTimedApart(t *testing.T) {
	tf := newTestFile(t, 8_000, 1000, 3)
	reg := obs.NewRegistry()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	tracer, err := obs.CreateTrace(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   4 * tf.ChunkBytes(),
		ReadBandwidth: 16 << 20, // ~7 ms per 112 KB chunk, far above a page-cache read
		Obs:           reg,
		Trace:         tracer,
	}, tf)
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "q", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(int, ChunkData) {}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	m := scrapeMetrics(t, reg)
	model, read := m["coopscan_load_device_model_seconds_sum"], m["coopscan_load_read_seconds_sum"]
	if model <= 0 || model <= read {
		t.Errorf("device-model seconds %v, read seconds %v: want the model's sleep > 0 and above the read time", model, read)
	}
	if n := m["coopscan_load_device_model_seconds_count"]; n != m["coopscan_load_read_seconds_count"] {
		t.Errorf("device-model observations %v != read observations %v", n, m["coopscan_load_read_seconds_count"])
	}

	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Ph   string  `json:"ph"`
		Name string  `json:"name"`
		Tid  float64 `json:"tid"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	// Per lane, a load's spans come in pipeline order: each read is
	// followed by its verify, then by its device_model span.
	last := make(map[float64]string)
	var models int
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "read", "verify", "device_model":
			prev := last[ev.Tid]
			want := map[string]string{"verify": "read", "device_model": "verify"}[ev.Name]
			if want != "" && prev != want {
				t.Errorf("lane %v: %q span follows %q, want %q", ev.Tid, ev.Name, prev, want)
			}
			if ev.Name == "device_model" {
				models++
			}
			last[ev.Tid] = ev.Name
		}
	}
	if models == 0 {
		t.Error("trace has no device_model span")
	}
}
