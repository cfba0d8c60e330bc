package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/obs"
	"coopscan/internal/serve"
)

// runServe is the `coopscan serve` subcommand: the cooperative-scan engine
// behind the HTTP/2 chunked-streaming front-end. Tables come from -file
// paths or are generated on demand; admission control (ceiling + bounded
// wait queue + typed shedding), SLO tiers, per-request deadlines and
// heartbeats are the serve package's. The listen address also exposes
// /metrics, /statusz and /debug/pprof, plus /admin/attach and
// /admin/detach for table churn on the running server. SIGINT/SIGTERM
// triggers a graceful drain bounded by -drain-timeout.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	files := fs.String("file", "", "comma-separated table file paths (default: -tables generated files under $TMPDIR)")
	dsm := fs.Bool("dsm", false, "store/open generated tables column-major (DSM)")
	compressFlag := fs.Bool("compress", false, "store/open generated tables with compressed extents and zonemaps (v4; requires -dsm)")
	prune := fs.Bool("prune", false, "register Q6-aggregating scans with predicate ranges so zonemaps prune non-matching chunks")
	tables := fs.Int("tables", 1, "number of tables to generate when -file is empty")
	rows := fs.Int64("rows", 1_500_000, "rows per generated table")
	tpc := fs.Int64("tuples-per-chunk", 32768, "tuples per chunk for generated tables")
	seed := fs.Uint64("seed", 1, "generator seed")
	policy := fs.String("policy", "relevance", "normal|attach|elevator|relevance")
	bufferMB := fs.Int64("buffer-mb", 24, "shared buffer budget in MiB")
	inflight := fs.Int("inflight", 4, "bounded in-flight load queue depth")
	readMBs := fs.Int64("read-mbps", 0, "per-load-stream device bandwidth model in MiB/s (0 = page-cache speed)")
	maxLive := fs.Int("max-live", 64, "admission ceiling: concurrently running scan sessions")
	maxQueue := fs.Int("max-queue", 0, "admission wait-queue bound (0 = 4×max-live, <0 = shed at the ceiling)")
	heartbeat := fs.Duration("heartbeat", 5*time.Second, "idle heartbeat interval on scan streams (<0 disables)")
	writeTimeout := fs.Duration("write-timeout", 10*time.Second, "per-write client stall bound; a blown deadline cancels the scan (<0 disables)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain bound on shutdown; stragglers are cancelled at the deadline")
	faultPlan := fs.String("fault-plan", "", "injected-fault plan, e.g. transient=0.2,short=0.05,corrupt=0.01,latency=0.1:2ms,bad=OFF:LEN (empty = no faults)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injection seed (per-table injectors seeded seed+i)")
	fs.Parse(args)

	policies, err := parsePolicies(*policy)
	if err != nil || len(policies) != 1 {
		fmt.Fprintln(os.Stderr, "coopscan serve: -policy must name exactly one policy")
		os.Exit(2)
	}
	var tfs []*engine.TableFile
	if *files != "" {
		for _, p := range strings.Split(*files, ",") {
			tf, err := engine.Open(strings.TrimSpace(p))
			if err != nil {
				fmt.Fprintln(os.Stderr, "coopscan serve:", err)
				os.Exit(1)
			}
			defer tf.Close()
			tfs = append(tfs, tf)
		}
	} else {
		if *compressFlag && !*dsm {
			fmt.Fprintln(os.Stderr, "coopscan serve: -compress requires -dsm (compressed extents are column-major)")
			os.Exit(2)
		}
		format := engine.NSM
		if *dsm {
			format = engine.DSM
		}
		shape := format.String()
		if *compressFlag {
			shape += "c"
		}
		for i := 0; i < *tables; i++ {
			path := filepath.Join(os.TempDir(), fmt.Sprintf("coopscan-serve-%s-%d-%d-%d-t%d.tbl", shape, *rows, *tpc, *seed, i))
			tf, err := openOrCreate(path, format, *compressFlag, *rows, *tpc, *seed+uint64(i))
			if err != nil {
				fmt.Fprintln(os.Stderr, "coopscan serve:", err)
				os.Exit(1)
			}
			defer tf.Close()
			tfs = append(tfs, tf)
		}
	}
	injectors, err := applyFaultPlan(*faultPlan, *faultSeed, tfs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve:", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	eng, err := engine.NewServer(engine.ServerConfig{
		Policy:        policies[0],
		BufferBytes:   *bufferMB << 20,
		InFlightDepth: *inflight,
		ReadBandwidth: *readMBs << 20,
		Obs:           reg,
	}, tfs...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve:", err)
		os.Exit(1)
	}
	front, err := serve.New(serve.Config{
		Engine:       eng,
		MaxLive:      *maxLive,
		MaxQueue:     *maxQueue,
		Heartbeat:    *heartbeat,
		WriteTimeout: *writeTimeout,
		PruneQ6:      *prune,
		Obs:          reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve:", err)
		os.Exit(1)
	}
	srv := front.Server()
	for i, tf := range tfs {
		fmt.Printf("table %-14s %s (%s, %d chunks × %s)\n",
			eng.TableName(i), tf.Path(), describeFormat(tf), tf.NumChunks(), fmtBytes(tf.ChunkBytes()))
	}
	fmt.Printf("serving: http://%s/scan  (h2c; also /metrics /statusz /debug/pprof /admin/attach /admin/detach)\n", ln.Addr())
	fmt.Printf("admission: %d live, queue %d, policy %v, %s buffer\n", *maxLive, *maxQueue, policies[0], fmtBytes(*bufferMB<<20))
	if injectors != nil {
		fmt.Printf("faults: plan %q, seed %d\n", *faultPlan, *faultSeed)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		fmt.Printf("\n%v: draining (bound %v)...\n", sig, *drainTimeout)
	case err := <-done:
		fmt.Fprintln(os.Stderr, "coopscan serve:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "coopscan serve: drain:", err)
	}
	srv.Close()
	ss := front.Sessions()
	for _, tier := range []string{"interactive", "batch"} {
		c := ss.Tiers[tier]
		fmt.Printf("%-12s admitted %d (queued %d), completed %d, disconnected %d, deadline-exceeded %d, failed %d, shed %d\n",
			tier, c.Admitted, c.Queued, c.Completed, c.Disconnected, c.DeadlineExceeded, c.Failed, c.Shed)
	}
	fmt.Printf("peak live %d of %d\n", ss.PeakLive, ss.MaxLive)
	printInjectorStats(injectors)
}

// runScanClient is the `coopscan scan` subcommand: a minimal NDJSON client
// for a running `coopscan serve`, streaming one scan and reporting the
// per-chunk receipts and the trailer's totals. Typed shedding surfaces the
// server's retry-after hint.
func runScanClient(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	url := fs.String("url", "http://127.0.0.1:8080", "serve base URL")
	table := fs.String("table", "", "table name (required; see the server's /statusz)")
	start := fs.Int("start", 0, "first chunk (inclusive)")
	end := fs.Int("end", 0, "last chunk (exclusive; 0 = table end)")
	cols := fs.String("cols", "q6", "projection: q6|q1|all or comma-separated column indices")
	tier := fs.String("tier", "batch", "SLO tier: interactive|batch")
	deadlineMS := fs.Int64("deadline-ms", 0, "request deadline in milliseconds (0 = none)")
	aggQ6 := fs.Bool("q6", false, "fold the paper's Q6 aggregate server-side into the trailer")
	name := fs.String("name", "cli", "session name (shows up in /statusz and pprof labels)")
	quiet := fs.Bool("q", false, "suppress per-chunk lines")
	fs.Parse(args)
	if *table == "" {
		fmt.Fprintln(os.Stderr, "coopscan scan: -table is required")
		os.Exit(2)
	}

	t, err := serve.ParseTier(*tier)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coopscan scan:", err)
		os.Exit(2)
	}
	startAt := time.Now()
	res, err := serve.RunScan(context.Background(), nil, *url, serve.ScanParams{
		Table: *table, Start: *start, End: *end, Cols: *cols,
		Tier: t, DeadlineMS: *deadlineMS, Name: *name, AggQ6: *aggQ6,
	}, func(c serve.Chunk) {
		if !*quiet {
			fmt.Printf("chunk %4d  %6d tuples  crc %08x\n", c.Chunk, c.Tuples, c.CRC)
		}
	})
	if err != nil {
		var shed *serve.ShedError
		if errors.As(err, &shed) {
			fmt.Fprintf(os.Stderr, "coopscan scan: shed by admission control; retry after %v\n", shed.RetryAfter)
			os.Exit(3)
		}
		fmt.Fprintln(os.Stderr, "coopscan scan:", err)
		os.Exit(1)
	}
	elapsed := time.Since(startAt)
	tr := res.Trailer
	fmt.Printf("done: chunks %d, tuples %d, IOs %d, read %s, %v (%s/s)\n",
		tr.Chunks, tr.Tuples, tr.IOs, fmtBytes(tr.BytesRead), elapsed.Round(time.Millisecond),
		fmtBytes(int64(float64(tr.BytesRead)/elapsed.Seconds())))
	if *aggQ6 {
		fmt.Printf("q6: revenue %d over %d rows\n", tr.Q6Revenue, tr.Q6Rows)
	}
}
