package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"coopscan/internal/engine"
)

// runMulti is the `coopscan multi` subcommand: N real table files served by
// one engine.Server under a single shared buffer budget, M concurrent query
// streams per table, reported per table and in aggregate. This is the
// paper's §7 multi-table scenario executed for real: per-table ABMs, the
// demand-driven budget arbiter, and a bounded in-flight load queue
// overlapping reads across tables. `-tables 1` is the single-table run.
// With -dsm the files are stored column-major, so queries read only the
// columns they project — the paper's §5 DSM cooperative scans — and the
// useful fraction approaches 1 where an NSM run pays the full row width.
func runMulti(args []string) {
	fs := flag.NewFlagSet("multi", flag.ExitOnError)
	dir := fs.String("dir", "", "directory for the table files (default $TMPDIR, created on demand)")
	dsm := fs.Bool("dsm", false, "store/open the tables column-major (DSM): queries pay only for the columns they read")
	compressFlag := fs.Bool("compress", false, "store/open the tables with compressed extents (requires -dsm)")
	prune := fs.Bool("prune", false, "register Q6 scans with predicate ranges so zonemaps prune non-matching chunks")
	tables := fs.Int("tables", 2, "number of tables")
	rows := fs.Int64("rows", 1_500_000, "rows per table when creating the files")
	tpc := fs.Int64("tuples-per-chunk", 32768, "tuples per chunk when creating the files")
	seed := fs.Uint64("seed", 1, "generator and workload seed")
	bufferMB := fs.Int64("buffer-mb", 24, "shared buffer budget in MiB, arbitrated across tables")
	inflight := fs.Int("inflight", 4, "bounded in-flight load queue depth (1 = serial loads)")
	readMBs := fs.Int64("read-mbps", 0, "per-load-stream device bandwidth model in MiB/s (0 = page-cache speed)")
	streams := fs.Int("streams", 8, "concurrent query streams per table")
	queries := fs.Int("queries", 2, "queries per stream")
	policy := fs.String("policy", "all", "normal|attach|elevator|relevance|all")
	stagger := fs.Duration("stagger", 20*time.Millisecond, "delay between stream starts")
	measureSched := fs.Bool("measure-sched", false, "meter scheduling decisions and report sched-ns/decision")
	httpAddr := fs.String("http", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. :9090)")
	tracePath := fs.String("trace", "", "write a Perfetto-loadable scan-timeline trace to this file")
	faultPlan := fs.String("fault-plan", "", "injected-fault plan, e.g. transient=0.2,short=0.05,corrupt=0.01,latency=0.1:2ms,bad=OFF:LEN (empty = no faults)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injection seed (per-table injectors seeded seed+i)")
	verbose := fs.Bool("v", false, "print per-query latencies")
	fs.Parse(args)

	policies, err := parsePolicies(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan multi:", err)
		os.Exit(2)
	}
	if *tables < 1 {
		fmt.Fprintln(os.Stderr, "coopscan multi: need at least one table")
		os.Exit(2)
	}
	if *compressFlag && !*dsm {
		fmt.Fprintln(os.Stderr, "coopscan multi: -compress requires -dsm (compressed extents are column-major)")
		os.Exit(2)
	}
	tfs := make([]*engine.TableFile, *tables)
	for i := range tfs {
		base := *dir
		if base == "" {
			base = os.TempDir()
		}
		format := engine.NSM
		if *dsm {
			format = engine.DSM
		}
		shape := format.String()
		if *compressFlag {
			shape += "c"
		}
		path := filepath.Join(base, fmt.Sprintf("coopscan-multi-%s-%d-%d-%d-t%d.tbl", shape, *rows, *tpc, *seed, i))
		tf, err := openOrCreate(path, format, *compressFlag, *rows, *tpc, *seed+uint64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "coopscan multi:", err)
			os.Exit(1)
		}
		defer tf.Close()
		tfs[i] = tf
	}
	injectors, err := applyFaultPlan(*faultPlan, *faultSeed, tfs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan multi:", err)
		os.Exit(2)
	}
	rig, err := newObsRig(*httpAddr, *tracePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan multi:", err)
		os.Exit(2)
	}
	defer rig.Close()
	var footprint int64
	for _, tf := range tfs {
		footprint += int64(tf.NumChunks()) * tf.ChunkBytes()
	}
	fmt.Printf("tables: %d × %d rows (%s, %d chunks × %s each, %s total)\n",
		*tables, *rows, describeFormat(tfs[0]), tfs[0].NumChunks(), fmtBytes(tfs[0].ChunkBytes()), fmtBytes(footprint))
	if tfs[0].Compressed() {
		var stored int64
		for _, tf := range tfs {
			stored += tf.StoredBytes()
		}
		fmt.Printf("stored: %s of %s raw (%.2fx compression)\n",
			fmtBytes(stored), fmtBytes(footprint), float64(footprint)/float64(stored))
	}
	fmt.Printf("workload: %d streams × %d queries per table, %s shared buffer, in-flight depth %d, stagger %v\n",
		*streams, *queries, fmtBytes(*bufferMB<<20), *inflight, *stagger)
	if injectors != nil {
		fmt.Printf("faults: plan %q, seed %d\n", *faultPlan, *faultSeed)
	}
	fmt.Println()

	for _, pol := range policies {
		res, err := runPolicy(runSpec{
			tfs:          tfs,
			policy:       pol,
			bufferBytes:  *bufferMB << 20,
			inflight:     *inflight,
			readBW:       *readMBs << 20,
			streams:      *streams,
			queries:      *queries,
			seed:         *seed,
			stagger:      *stagger,
			measureSched: *measureSched,
			faulty:       injectors != nil,
			prune:        *prune,
			verbose:      *verbose,
		}, rig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coopscan multi:", err)
			os.Exit(1)
		}
		fmt.Print(res)
	}
	printInjectorStats(injectors)
}
