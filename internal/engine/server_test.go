// Server tests run real concurrent multi-table scans under every policy,
// verify true query results per table, and force the concurrent-load path
// to commit completions out of issue order. CI runs this package under
// -race.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/exec"
)

// newTestServer builds a server over freshly generated table files.
func newTestServer(t *testing.T, cfg ServerConfig, tfs ...*TableFile) *Server {
	t.Helper()
	srv, err := NewServer(cfg, tfs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// setLoadHook installs the test-only load delay hook. Taking the server
// lock publishes the write to the workers (they first observe a job only
// through a later lock acquisition by the scheduler).
func setLoadHook(s *Server, hook func(table, chunk int)) {
	s.mu.Lock()
	s.loadHook = hook
	s.mu.Unlock()
}

func TestServerMultiTableAllPolicies(t *testing.T) {
	tf1 := newTestFile(t, 48_000, 1000, 21) // 48 chunks
	tf2 := newTestFile(t, 32_000, 1000, 22) // 32 chunks
	base1 := chunkQ6Baseline(t, tf1)
	base2 := chunkQ6Baseline(t, tf2)
	bases := [][]exec.Q6Result{base1, base2}
	tfs := []*TableFile{tf1, tf2}
	budget := 4*tf1.ChunkBytes() + 4*tf2.ChunkBytes() // forces evictions

	for _, pol := range core.Policies {
		t.Run(pol.String(), func(t *testing.T) {
			srv := newTestServer(t, ServerConfig{Policy: pol, BufferBytes: budget}, tf1, tf2)
			var wg sync.WaitGroup
			var mu sync.Mutex
			var errs []error
			const streamsPerTable = 4
			for table := 0; table < 2; table++ {
				table := table
				n := tfs[table].NumChunks()
				for s := 0; s < streamsPerTable; s++ {
					s := s
					start := (s * 5) % (n / 2)
					end := start + n/2
					want := exec.Q6Result{}
					for c := start; c < end; c++ {
						want.Add(bases[table][c])
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						var got exec.Q6Result
						st, err := srv.ScanWith(context.Background(), ScanRequest{Table: table, Name: fmt.Sprintf("t%ds%d", table, s), Ranges: rangeSet(start, end), Cols: Q6Cols()},
							func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) })
						mu.Lock()
						defer mu.Unlock()
						if err != nil {
							errs = append(errs, err)
							return
						}
						if got != want {
							errs = append(errs, fmt.Errorf("t%ds%d: Q6 = %+v, want %+v", table, s, got, want))
						}
						if st.Chunks != end-start {
							errs = append(errs, fmt.Errorf("t%ds%d: %d chunks, want %d", table, s, st.Chunks, end-start))
						}
					}()
				}
			}
			wg.Wait()
			for _, err := range errs {
				t.Error(err)
			}
			stats := srv.Stats()
			if len(stats.Tables) != 2 {
				t.Fatalf("stats for %d tables", len(stats.Tables))
			}
			var granted int64
			for i, ts := range stats.Tables {
				if ts.ABM.Loads == 0 {
					t.Errorf("table %d (%s): no loads recorded", i, ts.Name)
				}
				granted += ts.BudgetBytes
			}
			if granted > budget {
				t.Errorf("granted budgets sum to %d, beyond the shared budget %d", granted, budget)
			}
			if stats.Pool.Misses == 0 {
				t.Error("no real I/O recorded in the shared pool")
			}
		})
	}
}

// Concurrent loads must commit correctly when completions land out of issue
// order: the hook sleeps longer for earlier-issued loads, so later reads
// overtake them inside the in-flight window. Run under -race in CI, this is
// the multi-entry load/commit/evict state machine's stress test.
func TestServerConcurrentLoadsOutOfOrder(t *testing.T) {
	tf1 := newTestFile(t, 48_000, 1000, 31)
	tf2 := newTestFile(t, 48_000, 1000, 32)
	base1 := chunkQ6Baseline(t, tf1)
	base2 := chunkQ6Baseline(t, tf2)
	srv := newTestServer(t, ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   6*tf1.ChunkBytes() + 6*tf2.ChunkBytes(),
		InFlightDepth: 4,
	}, tf1, tf2)

	var seq int64 // issue-ish sequence: order workers picked jobs up
	var inHook int64
	var maxInHook int64
	setLoadHook(srv, func(table, chunk int) {
		cur := atomic.AddInt64(&inHook, 1)
		for {
			old := atomic.LoadInt64(&maxInHook)
			if cur <= old || atomic.CompareAndSwapInt64(&maxInHook, old, cur) {
				break
			}
		}
		// Earlier pickups sleep longer: completions invert within the
		// in-flight window.
		n := atomic.AddInt64(&seq, 1)
		time.Sleep(time.Duration(8-(n%4)*2) * time.Millisecond)
		atomic.AddInt64(&inHook, -1)
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	for table, base := range [][]exec.Q6Result{base1, base2} {
		table := table
		want := exec.Q6Result{}
		for _, r := range base {
			want.Add(r)
		}
		for s := 0; s < 4; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				var got exec.Q6Result
				_, err := srv.ScanWith(context.Background(), ScanRequest{Table: table, Name: fmt.Sprintf("t%ds%d", table, s), Ranges: rangeSet(0, 48), Cols: Q6Cols()},
					func(c int, d ChunkData) { got.Add(Q6Chunk(d, exec.DefaultQ6())) })
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs = append(errs, err)
				} else if got != want {
					errs = append(errs, fmt.Errorf("t%ds%d: Q6 = %+v, want %+v", table, s, got, want))
				}
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		t.Error(err)
	}
	if got := atomic.LoadInt64(&maxInHook); got < 2 {
		t.Errorf("max concurrent in-flight loads observed = %d, want >= 2 (depth 4)", got)
	}
}

// Depth 1 must reproduce the one-read-at-a-time scheduler: the hook must
// never observe two loads in flight.
func TestServerDepthOneSerialisesLoads(t *testing.T) {
	tf := newTestFile(t, 24_000, 1000, 33)
	srv := newTestServer(t, ServerConfig{
		Policy:        core.Relevance,
		BufferBytes:   4 * tf.ChunkBytes(),
		InFlightDepth: 1,
	}, tf)
	var inHook int64
	var overlapped int64
	setLoadHook(srv, func(table, chunk int) {
		if atomic.AddInt64(&inHook, 1) > 1 {
			atomic.StoreInt64(&overlapped, 1)
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&inHook, -1)
	})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.ScanWith(context.Background(), ScanRequest{Name: fmt.Sprintf("s%d", s), Ranges: rangeSet(0, tf.NumChunks()), Cols: Q6Cols()}, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if atomic.LoadInt64(&overlapped) != 0 {
		t.Error("depth 1 allowed overlapping loads")
	}
}

// The budget arbiter must move the shared budget toward the table whose
// streams are demanding chunks, away from an idle one.
func TestServerBudgetFollowsDemand(t *testing.T) {
	tf1 := newTestFile(t, 48_000, 1000, 41)
	tf2 := newTestFile(t, 48_000, 1000, 42)
	srv := newTestServer(t, ServerConfig{
		Policy:      core.Relevance,
		BufferBytes: 16 * tf1.ChunkBytes(),
	}, tf1, tf2)

	scanDone := make(chan error, 1)
	go func() {
		// A slow consumer keeps demand on table 0 alive while we observe.
		_, err := srv.ScanWith(context.Background(), ScanRequest{Name: "hot", Ranges: rangeSet(0, tf1.NumChunks()), Cols: Q6Cols()}, func(int, ChunkData) {
			time.Sleep(2 * time.Millisecond)
		})
		scanDone <- err
	}()

	deadline := time.After(5 * time.Second)
	for {
		b := srv.Budgets()
		if b[0] > b[1] {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("budget never shifted to the demanding table: %v", b)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
}
