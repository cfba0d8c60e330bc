// Fault-domain tests: the engine under injected I/O faults. Transient
// faults must heal through retry with no observable effect on results;
// persistent faults must quarantine exactly the affected (chunk, column)
// part and fail exactly the scans that need it; cancellation must unblock
// waiting scans; and none of it may leak buffer budget or take the server
// down. The soak at the bottom runs all of it at once, multi-seed, against
// fault-free goldens, with the core's incremental-state audit running
// mid-flight.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
	"coopscan/internal/obs"
	"coopscan/internal/storage"
)

// injectFaults installs a deterministic fault injector behind tf's page
// reads and returns it for its counters. Call after computing any fault-free
// baselines from tf.
func injectFaults(tf *TableFile, plan iofault.Plan, seed uint64) *iofault.Injector {
	var inj *iofault.Injector
	tf.WrapReader(func(r io.ReaderAt) io.ReaderAt {
		inj = iofault.New(r, plan, seed)
		return inj
	})
	return inj
}

// sumQ6 folds the per-chunk baseline over a range.
func sumQ6(base []exec.Q6Result, start, end int) exec.Q6Result {
	var out exec.Q6Result
	for c := start; c < end; c++ {
		out.Add(base[c])
	}
	return out
}

// TestScanSurvivesTransientFaults drives full scans through an injector that
// fails every offset's first two reads: bounded retry must absorb all of it —
// results byte-identical to fault-free, no quarantines, clean close.
func TestScanSurvivesTransientFaults(t *testing.T) {
	for _, format := range []Format{NSM, DSM} {
		t.Run(format.String(), func(t *testing.T) {
			tf := newTestFileFormat(t, format, 16_000, 1000, 41)
			base := chunkQ6Baseline(t, tf)
			inj := injectFaults(tf, iofault.Plan{TransientProb: 1, TransientMax: 2}, 1)
			srv, err := NewServer(ServerConfig{
				Policy: core.Relevance, BufferBytes: 4 * tf.ChunkBytes(),
				LoadRetries: 4, RetryBackoff: 50 * time.Microsecond,
			}, tf)
			if err != nil {
				t.Fatal(err)
			}
			var got exec.Q6Result
			if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "q6", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, func(c int, d ChunkData) {
				got.Add(Q6Chunk(d, exec.DefaultQ6()))
			}); err != nil {
				t.Fatalf("Scan under transient faults: %v", err)
			}
			if want := sumQ6(base, 0, tf.NumChunks()); got != want {
				t.Errorf("Q6 = %+v, want %+v", got, want)
			}
			st := srv.Stats()
			if st.Faults.Retries == 0 {
				t.Error("no retries recorded under TransientProb=1")
			}
			if st.Faults.QuarantinedParts != 0 || st.Faults.FailedScans != 0 {
				t.Errorf("transient faults escalated: %+v", st.Faults)
			}
			if inj.Stats().Transients == 0 {
				t.Error("injector reports no transient faults")
			}
			if err := srv.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestQuarantineIsolatesPersistentFault aims a persistent bad range at one
// DSM (chunk, column) part and verifies the blast radius: scans whose range
// and projection touch the part fail with ErrChunkUnavailable; scans that
// skip the column — or the chunk — complete with fault-free results; the
// server keeps serving and closes cleanly.
func TestQuarantineIsolatesPersistentFault(t *testing.T) {
	tf := newTestFileFormat(t, DSM, 16_000, 1000, 43)
	base := chunkQ6Baseline(t, tf)
	const badChunk = 3
	off, size := tf.PartFileRange(badChunk, ColTax)
	injectFaults(tf, iofault.Plan{BadRanges: []iofault.Range{{Off: off, Len: size}}}, 2)
	srv, err := NewServer(ServerConfig{
		Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
		LoadRetries: 1, RetryBackoff: 50 * time.Microsecond,
	}, tf)
	if err != nil {
		t.Fatal(err)
	}
	n := tf.NumChunks()
	withTax := Q6Cols().Add(ColTax)

	// A scan that needs the dead part fails, typed and with the injected
	// cause still in the chain.
	_, err = srv.ScanWith(context.Background(), ScanRequest{Name: "needs-bad-part", Ranges: rangeSet(0, n), Cols: withTax}, nil)
	if !errors.Is(err, ErrChunkUnavailable) {
		t.Fatalf("scan needing bad part: err = %v, want ErrChunkUnavailable", err)
	}
	if !errors.Is(err, iofault.ErrInjected) {
		t.Errorf("quarantine error lost the injected cause: %v", err)
	}

	// Same columns, range clear of the bad chunk: completes.
	var gotC exec.Q6Result
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "skips-bad-chunk", Ranges: rangeSet(badChunk+1, n), Cols: withTax}, func(c int, d ChunkData) {
		gotC.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("scan skipping bad chunk: %v", err)
	}
	if want := sumQ6(base, badChunk+1, n); gotC != want {
		t.Errorf("skips-bad-chunk Q6 = %+v, want %+v", gotC, want)
	}

	// Full range, but a projection without the dead column: completes — the
	// quarantine is per part, not per chunk.
	var gotB exec.Q6Result
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "skips-bad-col", Ranges: rangeSet(0, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
		gotB.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("scan skipping bad column: %v", err)
	}
	if want := sumQ6(base, 0, n); gotB != want {
		t.Errorf("skips-bad-col Q6 = %+v, want %+v", gotB, want)
	}

	st := srv.Stats()
	if st.Faults.QuarantinedParts != 1 {
		t.Errorf("QuarantinedParts = %d, want 1", st.Faults.QuarantinedParts)
	}
	if st.Faults.FailedScans != 1 {
		t.Errorf("FailedScans = %d, want 1", st.Faults.FailedScans)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOnDiskCorruptionSurfacesAsChecksum flips a byte of one part directly
// in the file (no injector): the load must reject it at checksum
// verification, quarantine the part after retries, and fail only the scans
// that need it — with ErrChecksum still in the error chain.
func TestOnDiskCorruptionSurfacesAsChecksum(t *testing.T) {
	tf := newTestFileFormat(t, DSM, 16_000, 1000, 47)
	base := chunkQ6Baseline(t, tf)
	const badChunk = 5
	off, _ := tf.PartFileRange(badChunk, ColDiscount)
	f, err := os.OpenFile(tf.Path(), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, off+9); err != nil {
		t.Fatal(err)
	}
	f.Close()
	srv, err := NewServer(ServerConfig{
		Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes(),
		LoadRetries: 1, RetryBackoff: 50 * time.Microsecond,
	}, tf)
	if err != nil {
		t.Fatal(err)
	}
	n := tf.NumChunks()
	_, err = srv.ScanWith(context.Background(), ScanRequest{Name: "hits-corruption", Ranges: rangeSet(0, n), Cols: Q6Cols()}, nil)
	if !errors.Is(err, ErrChunkUnavailable) || !errors.Is(err, ErrChecksum) {
		t.Fatalf("scan over corrupt part: err = %v, want ErrChunkUnavailable wrapping ErrChecksum", err)
	}
	// The sibling columns of the corrupt chunk are fine: a projection
	// without the corrupt column reads the whole table.
	noDiscount := storage.Cols(ColShipDate, ColQuantity, ColExtendedPrice)
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "avoids-corruption", Ranges: rangeSet(0, n), Cols: noDiscount}, nil); err != nil {
		t.Fatalf("scan avoiding corrupt column: %v", err)
	}
	// And the rest of the corrupt column is fine too.
	var got exec.Q6Result
	if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: "rest-of-column", Ranges: rangeSet(badChunk+1, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
		got.Add(Q6Chunk(d, exec.DefaultQ6()))
	}); err != nil {
		t.Fatalf("scan over rest of column: %v", err)
	}
	if want := sumQ6(base, badChunk+1, n); got != want {
		t.Errorf("rest-of-column Q6 = %+v, want %+v", got, want)
	}
	st := srv.Stats()
	if st.Faults.ChecksumErrors == 0 {
		t.Error("no checksum errors counted")
	}
	if st.Faults.QuarantinedParts != 1 {
		t.Errorf("QuarantinedParts = %d, want 1", st.Faults.QuarantinedParts)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestScanContextCancellation verifies a context firing mid-scan unblocks
// the stream and returns ctx's error, while a concurrent uncancelled scan on
// the same server completes with correct results.
func TestScanContextCancellation(t *testing.T) {
	tf := newTestFile(t, 16_000, 1000, 51)
	base := chunkQ6Baseline(t, tf)
	srv, err := NewServer(ServerConfig{Policy: core.Attach, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n := tf.NumChunks()

	var wg sync.WaitGroup
	var goodErr error
	var good exec.Q6Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, goodErr = srv.ScanWith(context.Background(), ScanRequest{Name: "survivor", Ranges: rangeSet(0, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
			good.Add(Q6Chunk(d, exec.DefaultQ6()))
		})
	}()

	ctx, cancel := context.WithCancel(context.Background())
	delivered := 0
	_, err = srv.ScanWith(ctx, ScanRequest{Name: "cancelled", Ranges: rangeSet(0, n), Cols: Q6Cols()}, func(c int, d ChunkData) {
		delivered++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled scan err = %v, want context.Canceled", err)
	}
	if delivered == 0 || delivered == n {
		t.Errorf("cancelled scan delivered %d of %d chunks, want mid-scan stop", delivered, n)
	}
	wg.Wait()
	if goodErr != nil {
		t.Fatalf("concurrent scan: %v", goodErr)
	}
	if want := sumQ6(base, 0, n); good != want {
		t.Errorf("concurrent scan Q6 = %+v, want %+v", good, want)
	}

	// A context already expired at entry fails before any delivery.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	st, err := srv.ScanWith(expired, ScanRequest{Name: "expired", Ranges: rangeSet(0, n), Cols: Q6Cols()}, func(int, ChunkData) {
		t.Error("expired context delivered a chunk")
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired scan err = %v, want DeadlineExceeded", err)
	}
	if st.Chunks != 0 {
		t.Errorf("expired scan consumed %d chunks", st.Chunks)
	}
	if got := srv.Stats().Faults.CancelledScans; got != 2 {
		t.Errorf("CancelledScans = %d, want 2", got)
	}
}

// TestScanAfterCloseReturnsErrClosed pins the post-shutdown contract: a scan
// entered after Close fails fast with ErrClosed instead of registering a
// query no scheduler will ever serve.
func TestScanAfterCloseReturnsErrClosed(t *testing.T) {
	tf := newTestFile(t, 4_000, 1000, 53)
	srv, err := NewServer(ServerConfig{Policy: core.Normal, BufferBytes: 4 * tf.ChunkBytes()}, tf)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.ScanWith(context.Background(), ScanRequest{Name: "late", Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close Scan err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-close Scan hung")
	}
}

// TestFaultSoak is the randomized end-to-end fault soak: two tables (NSM +
// DSM) under one server, a fault plan mixing transient errors, short reads,
// silent corruption, latency spikes and one persistent bad range, concurrent
// streams on both tables — one aimed at the dead part, one cancelled mid-
// flight — across several seeds and policies. Every surviving stream must be
// byte-identical to the fault-free golden, the incremental scheduler state
// must audit clean mid-flight and after the drain, at least 100 faults must
// actually have been injected, and the server must close with no global
// failure and no leaked budget.
func TestFaultSoak(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		pol := core.Policies[int(seed)%len(core.Policies)]
		t.Run(fmt.Sprintf("seed=%d/%v", seed, pol), func(t *testing.T) {
			runFaultSoak(t, seed, pol)
		})
	}
}

func runFaultSoak(t *testing.T, seed uint64, pol core.Policy) {
	const rows, tpc = 32_000, 1000
	nsm := newTestFileFormat(t, NSM, rows, tpc, seed)
	dsm := newTestFileFormat(t, DSM, rows, tpc, seed+100)
	baseN := chunkQ6Baseline(t, nsm)
	baseD := chunkQ6Baseline(t, dsm)
	n := nsm.NumChunks()

	const badChunk = 20
	off, size := dsm.PartFileRange(badChunk, ColTax)
	plan := iofault.Plan{
		TransientProb: 0.6,
		ShortProb:     0.15,
		CorruptProb:   0.05,
		LatencyProb:   0.05,
		Latency:       200 * time.Microsecond,
	}
	injN := injectFaults(nsm, plan, seed*2+1)
	planD := plan
	planD.BadRanges = []iofault.Range{{Off: off, Len: size}}
	injD := injectFaults(dsm, planD, seed*2+2)

	reg := obs.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Policy:      pol,
		BufferBytes: 4 * (nsm.ChunkBytes() + dsm.ChunkBytes()),
		LoadRetries: 8, RetryBackoff: 50 * time.Microsecond,
		Obs: reg,
	}, nsm, dsm)
	if err != nil {
		t.Fatal(err)
	}

	// Mid-flight auditor: every few deliveries of one stream, freeze the
	// world and recompute every incremental scheduler structure from first
	// principles — while sibling loads are retrying, aborting and being
	// quarantined around it.
	var auditMu sync.Mutex
	var auditErr error
	audits := 0
	audit := func() {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		auditMu.Lock()
		defer auditMu.Unlock()
		audits++
		for _, tbl := range srv.tables {
			if err := tbl.abm.AuditIncremental(); err != nil && auditErr == nil {
				auditErr = fmt.Errorf("%s: %w", tbl.name, err)
			}
		}
	}

	type stream struct {
		name    string
		table   int
		ranges  storage.RangeSet
		cols    storage.ColSet
		want    exec.Q6Result
		wantErr error // nil: must succeed and match want
		cancel  bool  // cancelled after the first delivery
	}
	withTax := Q6Cols().Add(ColTax)
	streams := []*stream{
		{name: "nsm-full", table: 0, ranges: rangeSet(0, n), cols: Q6Cols(), want: sumQ6(baseN, 0, n)},
		{name: "nsm-head", table: 0, ranges: rangeSet(0, n/2), cols: Q6Cols(), want: sumQ6(baseN, 0, n/2)},
		{name: "nsm-tail", table: 0, ranges: rangeSet(n/3, n), cols: Q6Cols(), want: sumQ6(baseN, n/3, n)},
		{name: "nsm-cancelled", table: 0, ranges: rangeSet(0, n), cols: Q6Cols(), cancel: true, wantErr: context.Canceled},
		{name: "dsm-full", table: 1, ranges: rangeSet(0, n), cols: Q6Cols(), want: sumQ6(baseD, 0, n)},
		{name: "dsm-overlap", table: 1, ranges: rangeSet(n/4, n), cols: Q6Cols(), want: sumQ6(baseD, n/4, n)},
		{name: "dsm-needs-bad", table: 1, ranges: rangeSet(0, n), cols: withTax, wantErr: ErrChunkUnavailable},
		{name: "dsm-tax-safe", table: 1, ranges: rangeSet(0, badChunk), cols: withTax, want: sumQ6(baseD, 0, badChunk)},
	}

	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	results := make([]exec.Q6Result, len(streams))
	for i, sc := range streams {
		i, sc := i, sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			var cancel context.CancelFunc
			if sc.cancel {
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
			}
			delivered := 0
			_, errs[i] = srv.ScanWith(ctx, ScanRequest{Table: sc.table, Name: sc.name, Ranges: sc.ranges, Cols: sc.cols}, func(c int, d ChunkData) {
				results[i].Add(Q6Chunk(d, exec.DefaultQ6()))
				delivered++
				if sc.cancel {
					cancel()
				}
				if i == 0 && delivered%4 == 0 {
					audit()
				}
			})
		}()
	}
	wg.Wait()

	for i, sc := range streams {
		err := errs[i]
		if sc.wantErr != nil {
			if !errors.Is(err, sc.wantErr) {
				t.Errorf("%s: err = %v, want %v", sc.name, err, sc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", sc.name, err)
			continue
		}
		if results[i] != sc.want {
			t.Errorf("%s: Q6 = %+v, want %+v (fault-free golden)", sc.name, results[i], sc.want)
		}
	}
	if auditErr != nil {
		t.Errorf("mid-flight audit: %v", auditErr)
	}
	if audits == 0 {
		t.Error("mid-flight audit never ran")
	}

	st := srv.Stats()
	if st.Faults.QuarantinedParts != 1 {
		t.Errorf("QuarantinedParts = %d, want 1 (the bad range)", st.Faults.QuarantinedParts)
	}
	if st.Faults.FailedScans != 1 {
		t.Errorf("FailedScans = %d, want 1", st.Faults.FailedScans)
	}
	if st.Faults.CancelledScans != 1 {
		t.Errorf("CancelledScans = %d, want 1", st.Faults.CancelledScans)
	}
	if st.Faults.Retries == 0 {
		t.Error("soak recorded no retries")
	}
	if injected := injN.Stats().Injected() + injD.Stats().Injected(); injected < 100 {
		t.Errorf("only %d faults injected, want >= 100 (plan too tame for a soak)", injected)
	}

	// Zero global shutdowns and zero leaked budget: Close returns nil, and
	// every table passes the quiescent-state audit afterwards.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after soak: %v", err)
	}

	// After Close every worker has drained, so the registry's fault counters
	// must agree with the server's own FaultStats field for field — the
	// metrics are incremented at exactly the same sites.
	final := srv.Stats().Faults
	m := scrapeMetrics(t, reg)
	for _, c := range []struct {
		metric string
		want   int64
	}{
		{"coopscan_fault_retries_total", final.Retries},
		{"coopscan_fault_checksum_errors_total", final.ChecksumErrors},
		{"coopscan_fault_quarantined_parts_total", final.QuarantinedParts},
		{"coopscan_fault_failed_scans_total", final.FailedScans},
		{"coopscan_fault_cancelled_scans_total", final.CancelledScans},
	} {
		if got := int64(m[c.metric]); got != c.want {
			t.Errorf("%s = %d, want %d (FaultStats disagrees with scrape)", c.metric, got, c.want)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, tbl := range srv.tables {
		if err := tbl.abm.AuditDrained(); err != nil {
			t.Errorf("%s drained audit: %v", tbl.name, err)
		}
		if free := tbl.abm.FreeBytes(); free < 0 {
			t.Errorf("%s over budget after drain: free = %d", tbl.name, free)
		}
	}
}
