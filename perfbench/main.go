// Command perfbench is the repository's benchmark. It runs one named
// workload (or all of them) against the live cooperative-scan engine from
// outside, through public entry points only, checks every result against
// an oracle built at set-up, and prints every metric by name and unit, the
// last line being one JSON object:
//
//	go build -o perfbench . && ./perfbench --workload paper-io --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload untraced and then traced, reports the per-layer
// metrics, and writes the traced run's spans as a Perfetto file under
// --dir. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 9

// calibrationPasses is how many ReadPageRange passes the traced run's
// per-scheme decode calibration takes the median of.
const calibrationPasses = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose measurement cannot be trusted (not a wrong
// result): no result line is printed for it.
var errInvalid = errors.New("invalid run")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-io, serve-io, decode-cpu, serve-mixed, or all")
	seed := fs.Uint64("seed", 1, "seed for the table data and the query plan or arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run (and write its trace)")
	dir := fs.String("dir", ".bench_build", "scratch directory for table files and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wls []workload
	if *name == "all" {
		wls = workloads
	} else if wl, ok := lookupWorkload(*name); ok {
		wls = []workload{wl}
	} else {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range wls {
		res, err := runWorkload(wl, *seed, dur, *trace == 1, *dir, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(wls) > 1 {
				k = wl.name + "/" + k
			}
			total.Metrics[k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !total.Correct {
		return 1
	}
	return 0
}

// runWorkload sets one workload up, measures it, and returns its result.
func runWorkload(wl workload, seed uint64, dur time.Duration, traced bool, dir string, stdout, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	work, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	path := func(i int) string { return filepath.Join(work, fmt.Sprintf("%s-%d.tbl", wl.name, i)) }

	// Set up setupReps times, keeping the last instance: setup_s is the
	// median, so one slow file creation does not move it.
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err = setup(wl, seed, path(i), nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := e.close(); err != nil {
				return result{}, err
			}
		}
	}
	o, err := buildOracle(e.tf)
	if err != nil {
		e.close()
		return result{}, err
	}
	m, err := measure(e, wl, o, seed, dur, nil)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	m.setupS = median(setups)
	reportFailures(stderr, wl.name, m.errs)
	if !traced {
		res := m.endToEnd()
		m.print(stdout, wl.name)
		return res, nil
	}

	sp := newSpans()
	te, err := setup(wl, seed, path(setupReps), sp)
	if err != nil {
		return result{}, err
	}
	tm, err := measure(te, wl, o, seed, dur, sp)
	if err == nil {
		err = tm.layers(te, m, calibrationPasses)
	}
	if cerr := te.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	reportFailures(stderr, wl.name, tm.errs)
	tracePath := filepath.Join(dir, "perfbench-"+wl.name+".trace.json")
	if err := sp.writeFile(tracePath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stderr, "perfbench: %s: trace written to %s\n", wl.name, tracePath)
	tm.print(stdout, wl.name)
	return tm.result(), nil
}

// measure runs the workload once against e and summarises it.
func measure(e *env, wl workload, o *oracle, seed uint64, dur time.Duration, sp *spans) (*summary, error) {
	if e.pread != nil {
		e.pread.reset() // the oracle's read pass is not the workload's
	}
	s := &summary{wl: wl}
	switch {
	case !wl.serve:
		s.closed = runClosed(e, wl, o, seed, dur, sp)
	case wl.streams > 0:
		s.serve = runServeClosed(e, wl, o, seed, dur, sp)
	default:
		s.serve = runOpen(e, wl, o, seed, dur, sp)
		if s.serve.lateMax > maxLateness {
			return nil, fmt.Errorf("%w: generator ran %v late (bound %v)", errInvalid, s.serve.lateMax, maxLateness)
		}
	}
	if wl.serve {
		if n := e.conns.Load(); n != 1 {
			s.errs = append(s.errs, fmt.Errorf("sessions used %d connections, want one shared h2c connection", n))
		}
		s.sessions = e.fe.Sessions()
	}
	s.stats = e.srv.Stats()
	if err := e.srv.AuditDrained(); err != nil {
		s.errs = append(s.errs, err)
	}
	s.rssMiB = maxRSSMiB()
	s.collect()
	return s, nil
}

// reportFailures prints the first few failures of a run.
func reportFailures(w io.Writer, name string, errs []error) {
	for i, err := range errs {
		if i == 5 {
			fmt.Fprintf(w, "perfbench: %s: ... %d more failures\n", name, len(errs)-i)
			return
		}
		fmt.Fprintf(w, "perfbench: %s: FAIL %v\n", name, err)
	}
}

// maxRSSMiB is the process's peak resident set size (getrusage).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// print writes the human-readable report.
func (s *summary) print(w io.Writer, name string) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", name, s.counts())
	for _, k := range slices.Sorted(maps.Keys(s.metrics)) {
		m := s.metrics[k]
		fmt.Fprintf(&b, "%-44s %14.4f %s\n", k, m.Value, m.Unit)
	}
	io.WriteString(w, b.String())
}
