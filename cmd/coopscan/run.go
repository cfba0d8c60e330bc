package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"coopscan/internal/core"
	"coopscan/internal/engine"
	"coopscan/internal/exec"
	"coopscan/internal/iofault"
)

// runSpec parameterises one policy run of the live runner: the tables to
// serve, the server shape, and the workload. Per-table workloads are seeded
// seed+table.
type runSpec struct {
	tfs          []*engine.TableFile
	policy       core.Policy
	bufferBytes  int64
	inflight     int
	readBW       int64
	streams      int
	queries      int
	seed         uint64
	stagger      time.Duration
	measureSched bool
	faulty       bool
	prune        bool
	verbose      bool
}

// runPolicy builds one engine.Server over the spec's tables, drives the
// planned workload (streams × queries per table, staggered starts) to
// completion, and returns the outcomes with the server's final /statusz
// snapshot. It is the runner behind the multi subcommand.
func runPolicy(spec runSpec, rig *obsRig) (*runResult, error) {
	cfg := engine.ServerConfig{
		Policy:            spec.policy,
		BufferBytes:       spec.bufferBytes,
		InFlightDepth:     spec.inflight,
		ReadBandwidth:     spec.readBW,
		MeasureScheduling: spec.measureSched,
		Obs:               rig.registry(),
		Trace:             rig.trace(),
	}
	srv, err := engine.NewServer(cfg, spec.tfs...)
	if err != nil {
		return nil, err
	}
	rig.setServer(srv)
	defer rig.setServer(nil)
	defer srv.Close()
	res := &runResult{policy: spec.policy, verbose: spec.verbose, perTable: make([][]liveOutcome, len(spec.tfs))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	start := time.Now()
	for table := range spec.tfs {
		table := table
		// Each table runs the standard planned workload, seeded per table so
		// streams over different tables are decorrelated.
		plan := engine.PlanWorkload(spec.tfs[table].NumChunks(), spec.streams, spec.queries, spec.seed+uint64(table))
		for s := range plan {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(s) * spec.stagger)
				for _, q := range plan[s] {
					qStart := time.Now()
					req := engine.ScanRequest{
						Table: table, Name: q.Name, Ranges: q.Ranges, Cols: q.Cols,
					}
					if spec.prune && !q.Slow {
						// FAST streams run the Q6 kernel; handing its filter
						// ranges to the engine lets zonemaps drop chunks that
						// cannot match before they reach the scheduler.
						req.Preds = engine.Q6Preds(exec.DefaultQ6())
					}
					st, err := srv.ScanWith(context.Background(), req, liveOnChunk(q.Slow))
					mu.Lock()
					if err != nil {
						// Under an active fault plan a quarantined part fails
						// exactly the scans that need it; that is the designed
						// outcome, not a run-aborting error.
						if spec.faulty && errors.Is(err, engine.ErrChunkUnavailable) {
							res.unavailable++
						} else if firstErr == nil {
							firstErr = err
						}
					}
					res.perTable[table] = append(res.perTable[table], liveOutcome{
						name: q.Name, chunks: st.Chunks, latency: time.Since(qStart),
						useful: st.BytesUseful,
					})
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	res.total = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	res.status = srv.StatusSnapshot()
	res.realBytes = res.status.Pool.BytesLoaded
	for _, outs := range res.perTable {
		for _, o := range outs {
			res.usefulBytes += o.useful
		}
	}
	for table := range res.perTable {
		sort.Slice(res.perTable[table], func(i, j int) bool {
			return res.perTable[table][i].name < res.perTable[table][j].name
		})
	}
	return res, nil
}

// liveOnChunk returns the per-chunk execution body: the FAST Q6 kernel, or
// the SLOW Q1 kernel with extra arithmetic.
func liveOnChunk(slow bool) func(int, engine.ChunkData) {
	if slow {
		return func(_ int, d engine.ChunkData) { engine.Q1Chunk(d, 700, 8) }
	}
	pred := exec.DefaultQ6()
	return func(_ int, d engine.ChunkData) { engine.Q6Chunk(d, pred) }
}

func parsePolicies(s string) ([]core.Policy, error) {
	if s == "all" {
		return core.Policies, nil
	}
	for _, p := range core.Policies {
		if p.String() == s {
			return []core.Policy{p}, nil
		}
	}
	return nil, fmt.Errorf("unknown policy %q", s)
}

// applyFaultPlan parses a -fault-plan string and, when it injects anything,
// installs one deterministic injector per table (seeded seed+i). Returns nil
// injectors for an empty plan.
func applyFaultPlan(planStr string, seed uint64, tfs ...*engine.TableFile) ([]*iofault.Injector, error) {
	plan, err := iofault.ParsePlan(planStr)
	if err != nil {
		return nil, err
	}
	if plan.Zero() {
		return nil, nil
	}
	injs := make([]*iofault.Injector, len(tfs))
	for i, tf := range tfs {
		i := i
		tf.WrapReader(func(r io.ReaderAt) io.ReaderAt {
			injs[i] = iofault.New(r, plan, seed+uint64(i))
			return injs[i]
		})
	}
	return injs, nil
}

// printInjectorStats reports the cumulative injection counters (all policy
// runs of this invocation share the injectors, so transient windows carry
// over exactly as they would on a real flaky device).
func printInjectorStats(injs []*iofault.Injector) {
	if injs == nil {
		return
	}
	var total iofault.Stats
	for _, inj := range injs {
		st := inj.Stats()
		total.Reads += st.Reads
		total.Transients += st.Transients
		total.Shorts += st.Shorts
		total.Corruptions += st.Corruptions
		total.Delays += st.Delays
		total.BadReads += st.BadReads
	}
	fmt.Printf("injected: %d faults over %d reads (%d transient, %d short, %d corrupt, %d bad-range) + %d delays\n",
		total.Injected(), total.Reads, total.Transients, total.Shorts, total.Corruptions, total.BadReads, total.Delays)
}

// openOrCreate opens the table file at path, generating it only when the
// path does not exist yet. An existing file that fails to open (including a
// file of an older format version), or that stores the other physical
// format (including compressed vs raw), is an error — never overwritten
// (the user may have pointed -file or -dir at something else entirely).
func openOrCreate(path string, format engine.Format, compressed bool, rows, tpc int64, seed uint64) (*engine.TableFile, error) {
	if _, err := os.Stat(path); err == nil {
		tf, err := engine.Open(path)
		if err != nil {
			return nil, err
		}
		if tf.Format() != format || tf.Compressed() != compressed {
			tf.Close()
			return nil, fmt.Errorf("%s stores %s, want %s (pick another path or remove it)",
				path, describeFormat(tf), wantShape(format, compressed))
		}
		return tf, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	fmt.Printf("generating %s ...\n", path)
	if compressed {
		return engine.CreateCompressed(path, rows, tpc, seed)
	}
	return engine.CreateFormat(path, format, rows, tpc, seed)
}

// wantShape renders the requested physical shape for error messages.
func wantShape(format engine.Format, compressed bool) string {
	if compressed {
		return fmt.Sprintf("%s compressed", format)
	}
	return format.String()
}
