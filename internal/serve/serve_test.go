package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// newTestTable writes a fresh NSM table file under t.TempDir.
func newTestTable(t *testing.T, rows, tpc int64, seed uint64) *engine.TableFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("tbl-%d.coop", seed))
	tf, err := engine.Create(path, rows, tpc, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	return tf
}

// goldenScan computes the reference per-chunk CRCs and Q6 aggregate by
// scanning the file through a private, immediately-closed engine.
func goldenScan(t *testing.T, tf *engine.TableFile, cols storage.ColSet) (map[int]uint32, exec.Q6Result) {
	t.Helper()
	eng, err := engine.NewServer(engine.ServerConfig{Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	crcs := make(map[int]uint32)
	var agg exec.Q6Result
	_, err = eng.ScanWith(context.Background(), engine.ScanRequest{Name: "golden", Ranges: storage.NewRangeSet(storage.Range{End: tf.NumChunks()}), Cols: cols}, func(c int, d engine.ChunkData) {
		crcs[c] = chunkCRC(cols, d)
		if cols.Intersect(engine.Q6Cols()) == engine.Q6Cols() {
			agg.Add(engine.Q6Chunk(d, exec.DefaultQ6()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return crcs, agg
}

// fixture is one front-end under httptest with its engine handles kept for
// post-shutdown audits.
type fixture struct {
	f   *Frontend
	eng *engine.Server
	ts  *httptest.Server
	url string
}

func newFixture(t *testing.T, ecfg engine.ServerConfig, cfg Config, tfs ...*engine.TableFile) *fixture {
	t.Helper()
	if ecfg.Policy == 0 {
		ecfg.Policy = core.Relevance
	}
	if ecfg.BufferBytes == 0 {
		ecfg.BufferBytes = 4 * tfs[0].ChunkBytes()
	}
	eng, err := engine.NewServer(ecfg, tfs...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		ts.Close()
		f.Shutdown(context.Background())
	})
	return &fixture{f: f, eng: eng, ts: ts, url: ts.URL}
}

// shutdown drains the front-end and asserts the engine leaked nothing.
func (fx *fixture) shutdown(t *testing.T, ctx context.Context) {
	t.Helper()
	if err := fx.f.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := fx.eng.AuditDrained(); err != nil {
		t.Errorf("drained audit: %v", err)
	}
}

func TestScanStreamsGolden(t *testing.T) {
	tf := newTestTable(t, 16_000, 1000, 21)
	crcs, agg := goldenScan(t, tf, engine.Q6Cols())
	fx := newFixture(t, engine.ServerConfig{}, Config{MaxLive: 4}, tf)
	table := fx.eng.TableName(0)

	res, err := RunScan(context.Background(), nil, fx.url, ScanParams{
		Table: table, Tier: TierInteractive, AggQ6: true, Name: "golden-check",
	}, nil)
	if err != nil {
		t.Fatalf("RunScan: %v", err)
	}
	if res.Header.Table != table || res.Header.Tier != "interactive" || res.Header.Name != "golden-check" {
		t.Fatalf("bad header %+v", res.Header)
	}
	if len(res.Chunks) != tf.NumChunks() {
		t.Fatalf("got %d chunk receipts, want %d", len(res.Chunks), tf.NumChunks())
	}
	for _, c := range res.Chunks {
		if want, ok := crcs[c.Chunk]; !ok || c.CRC != want {
			t.Fatalf("chunk %d CRC %d, want %d", c.Chunk, c.CRC, want)
		}
	}
	tr := res.Trailer
	if !tr.Done || tr.Tuples != tf.Rows() || tr.Chunks != tf.NumChunks() {
		t.Fatalf("bad trailer %+v", tr)
	}
	if tr.Q6Revenue != agg.Revenue || tr.Q6Rows != agg.Rows {
		t.Fatalf("trailer Q6 (%d, %d), want (%d, %d)", tr.Q6Revenue, tr.Q6Rows, agg.Revenue, agg.Rows)
	}
	ss := fx.f.Sessions()
	ti := ss.Tiers["interactive"]
	if ti.Admitted != 1 || ti.Completed != 1 {
		t.Errorf("interactive counters %+v, want admitted=completed=1", ti)
	}
	fx.shutdown(t, context.Background())
}

func TestScanRejectsBadRequests(t *testing.T) {
	tf := newTestTable(t, 8_000, 1000, 22)
	fx := newFixture(t, engine.ServerConfig{}, Config{}, tf)
	table := url.QueryEscape(fx.eng.TableName(0))

	for _, tc := range []struct {
		name, url string
		status    int
	}{
		{"unknown table", "/scan?table=nope", http.StatusNotFound},
		{"missing table", "/scan", http.StatusBadRequest},
		{"bad tier", "/scan?table=" + table + "&tier=gold", http.StatusBadRequest},
		{"bad range", "/scan?table=" + table + "&start=5&end=3", http.StatusBadRequest},
		{"range past end", "/scan?table=" + table + "&start=0&end=99", http.StatusBadRequest},
		{"bad cols", "/scan?table=" + table + "&cols=zap", http.StatusBadRequest},
		{"agg without q6 cols", "/scan?table=" + table + "&cols=9&agg=q6", http.StatusBadRequest},
		{"bad deadline", "/scan?table=" + table + "&deadline_ms=-5", http.StatusBadRequest},
	} {
		resp, err := http.Get(fx.url + tc.url)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
	if got := fx.f.Sessions().Tiers["batch"].Admitted; got != 0 {
		t.Errorf("rejected requests consumed %d admissions", got)
	}
}

// TestOverloadBoundedAdmissions is the acceptance overload test: with a
// ceiling of 2 and a queue of 4, 16 simultaneous clients against a
// bandwidth-throttled engine must see exactly 2+4 admissions and 10 typed
// sheds carrying a retry-after hint, and the drain afterwards must leak
// nothing.
func TestOverloadBoundedAdmissions(t *testing.T) {
	const ceiling, queue, clients = 2, 4, 16
	tf := newTestTable(t, 6_000, 1000, 23)
	// ~670KB of table at 1 MiB/s keeps the first sessions live for
	// hundreds of milliseconds — far longer than it takes 16 loopback
	// requests to arrive, so the admission picture is deterministic.
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20}, Config{MaxLive: ceiling, MaxQueue: queue}, tf)
	table := fx.eng.TableName(0)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunScan(context.Background(), nil, fx.url, ScanParams{
				Table: table, Name: fmt.Sprintf("c%d", i),
			}, nil)
		}()
	}
	wg.Wait()

	var ok, shed int
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrShed):
			shed++
			var se *ShedError
			if !errors.As(err, &se) || se.RetryAfter <= 0 {
				t.Errorf("client %d: shed without retry-after hint: %v", i, err)
			}
		default:
			t.Errorf("client %d: unexpected error %v", i, err)
		}
	}
	if ok != ceiling+queue || shed != clients-ceiling-queue {
		t.Fatalf("completed=%d shed=%d, want %d and %d", ok, shed, ceiling+queue, clients-ceiling-queue)
	}
	ss := fx.f.Sessions()
	if ss.PeakLive != ceiling {
		t.Errorf("peak live %d, want exactly the ceiling %d", ss.PeakLive, ceiling)
	}
	b := ss.Tiers["batch"]
	if b.Admitted != ceiling+queue || b.Completed != ceiling+queue || b.Shed != int64(shed) || b.Queued != queue {
		t.Errorf("batch counters %+v, want admitted=completed=%d shed=%d queued=%d", b, ceiling+queue, shed, queue)
	}
	fx.shutdown(t, context.Background())
}

// TestQueueDeadline: a session whose deadline expires while queued gets a
// typed 504 and gives up its queue slot.
func TestQueueDeadline(t *testing.T) {
	tf := newTestTable(t, 6_000, 1000, 24)
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20}, Config{MaxLive: 1, MaxQueue: 4}, tf)
	table := fx.eng.TableName(0)

	blockerDone := make(chan error, 1)
	go func() {
		_, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Name: "blocker"}, nil)
		blockerDone <- err
	}()
	waitFor(t, func() bool { return fx.f.Sessions().Live == 1 })

	_, err := RunScan(context.Background(), nil, fx.url, ScanParams{
		Table: table, Name: "impatient", DeadlineMS: 80,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded in admission queue") {
		t.Fatalf("queued-past-deadline err = %v, want 504 admission-queue deadline", err)
	}
	ss := fx.f.Sessions()
	if b := ss.Tiers["batch"]; b.DeadlineExceeded != 1 || b.Queued != 1 {
		t.Errorf("batch counters %+v, want deadline_exceeded=1 queued=1", b)
	}
	if ss.Queued != 0 {
		t.Errorf("expired waiter still occupies the queue (depth %d)", ss.Queued)
	}
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker scan: %v", err)
	}
	fx.shutdown(t, context.Background())
}

// TestDeadlineMidScan: a deadline expiring mid-stream cancels the scan —
// the trailer carries the error, the budget drains clean.
func TestDeadlineMidScan(t *testing.T) {
	tf := newTestTable(t, 6_000, 1000, 25)
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20}, Config{MaxLive: 2}, tf)
	table := fx.eng.TableName(0)

	res, err := RunScan(context.Background(), nil, fx.url, ScanParams{
		Table: table, Name: "deadline", DeadlineMS: 150, Tier: TierInteractive,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("mid-scan deadline err = %v, want remote deadline failure", err)
	}
	if len(res.Chunks) >= tf.NumChunks() {
		t.Fatalf("deadline scan delivered all %d chunks", len(res.Chunks))
	}
	if got := fx.f.Sessions().Tiers["interactive"].DeadlineExceeded; got != 1 {
		t.Errorf("deadline_exceeded = %d, want 1", got)
	}
	fx.shutdown(t, context.Background())
}

// TestTierPriorityOverHTTP: with a held slot, queued batch and interactive
// sessions both eventually complete once the slot cycles (the deterministic
// promotion-order assertion lives in the gate unit tests — at the HTTP
// layer, client read scheduling makes arrival order unobservable).
func TestTierPriorityOverHTTP(t *testing.T) {
	tf := newTestTable(t, 4_000, 1000, 26)
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20}, Config{MaxLive: 1, MaxQueue: 4}, tf)
	table := fx.eng.TableName(0)

	blockerDone := make(chan struct{})
	go func() {
		defer close(blockerDone)
		RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Name: "blocker"}, nil)
	}()
	waitFor(t, func() bool { return fx.f.Sessions().Live == 1 })

	var wg sync.WaitGroup
	for _, tier := range []Tier{TierBatch, TierInteractive} {
		tier := tier
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Tier: tier, Name: "queued-" + tier.String()}, nil); err != nil {
				t.Errorf("queued %v: %v", tier, err)
			}
		}()
		waitFor(t, func() bool { return fx.f.Sessions().Tiers[tier.String()].QueueDepth == 1 })
	}
	wg.Wait()
	<-blockerDone
	ss := fx.f.Sessions()
	if ss.Tiers["interactive"].Completed != 1 || ss.Tiers["batch"].Completed != 2 {
		t.Errorf("completions %+v, want interactive 1 and batch 2", ss.Tiers)
	}
	fx.shutdown(t, context.Background())
}

// TestDrain: Shutdown stops admissions (new sessions see 503), cancels
// stragglers when its context expires, closes the engine and leaks
// nothing.
func TestDrain(t *testing.T) {
	tf := newTestTable(t, 6_000, 1000, 27)
	fx := newFixture(t, engine.ServerConfig{ReadBandwidth: 1 << 20}, Config{MaxLive: 4}, tf)
	table := fx.eng.TableName(0)

	const live = 3
	done := make(chan error, live)
	for i := 0; i < live; i++ {
		i := i
		go func() {
			_, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table, Name: fmt.Sprintf("d%d", i)}, nil)
			done <- err
		}()
	}
	waitFor(t, func() bool { return fx.f.Sessions().Live == live })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	fx.shutdown(t, ctx)

	for i := 0; i < live; i++ {
		if err := <-done; err == nil {
			t.Errorf("straggler %d finished clean; want cancellation or disconnect", i)
		}
	}
	if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: table}, nil); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain scan err = %v, want ErrDraining", err)
	}
	if !fx.f.Sessions().Draining {
		t.Error("statusz does not report draining")
	}
	if err := fx.f.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestAdminAttachDetach exercises the table lifecycle over HTTP: attach a
// file, scan it golden-verified, walk the typed admin failure modes, then
// detach it and watch the name disappear from /scan.
func TestAdminAttachDetach(t *testing.T) {
	tf := newTestTable(t, 8_000, 1000, 28)
	extra := newTestTable(t, 8_000, 1000, 29)
	crcs, _ := goldenScan(t, extra, engine.Q6Cols())
	fx := newFixture(t, engine.ServerConfig{BufferBytes: 8 * tf.ChunkBytes()}, Config{MaxLive: 8, Obs: obs.NewRegistry()}, tf)

	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(fx.url+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 512)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := post("/admin/attach", fmt.Sprintf(`{"name":"extra","path":%q}`, extra.Path())); code != http.StatusOK {
		t.Fatalf("attach: %d %s", code, body)
	}
	res, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: "extra", Name: "post-attach"}, nil)
	if err != nil {
		t.Fatalf("scan attached table: %v", err)
	}
	for _, c := range res.Chunks {
		if crcs[c.Chunk] != c.CRC {
			t.Fatalf("attached-table chunk %d CRC mismatch", c.Chunk)
		}
	}

	// Typed admin failures.
	if code, _ := post("/admin/attach", fmt.Sprintf(`{"name":"extra","path":%q}`, extra.Path())); code != http.StatusConflict {
		t.Errorf("duplicate attach: status %d, want 409", code)
	}
	if code, _ := post("/admin/attach", `{"name":"ghost","path":"/nonexistent.coop"}`); code != http.StatusBadRequest {
		t.Errorf("attach bad path: status %d, want 400", code)
	}
	if code, _ := post("/admin/detach", `{"name":"ghost"}`); code != http.StatusNotFound {
		t.Errorf("detach unknown: status %d, want 404", code)
	}
	if code, _ := post("/admin/attach", `{"name":"x"}`); code != http.StatusBadRequest {
		t.Errorf("attach without path: status %d, want 400", code)
	}

	if code, body := post("/admin/detach", `{"name":"extra"}`); code != http.StatusOK {
		t.Fatalf("detach: %d %s", code, body)
	}
	if _, err := RunScan(context.Background(), nil, fx.url, ScanParams{Table: "extra"}, nil); err == nil {
		t.Error("scan after detach succeeded; want 404")
	}
	fx.shutdown(t, context.Background())
}

// TestHTTP2Stream verifies the Server() wrapper speaks unencrypted HTTP/2
// end to end.
func TestHTTP2Stream(t *testing.T) {
	tf := newTestTable(t, 4_000, 1000, 30)
	fx := newFixture(t, engine.ServerConfig{}, Config{}, tf)
	srv := fx.f.Server()
	ln := newLocalListener(t)
	go srv.Serve(ln)
	defer srv.Close()

	var protocols http.Protocols
	protocols.SetUnencryptedHTTP2(true)
	client := &http.Client{Transport: &http.Transport{Protocols: &protocols}}
	resp, err := client.Get("http://" + ln.Addr().String() + "/scan?table=" + url.QueryEscape(fx.eng.TableName(0)))
	if err != nil {
		t.Fatalf("h2c scan: %v", err)
	}
	defer resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("proto %s, want HTTP/2", resp.Proto)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	total := 0
	for {
		n, err := resp.Body.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	if total == 0 {
		t.Fatal("empty h2 stream")
	}
	fx.shutdown(t, context.Background())
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
