package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"coopscan/internal/engine"
	"coopscan/internal/exec"
)

// tiny returns a named workload shrunk to a 16-chunk table with few
// streams, so a run takes a fraction of a second.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	wl, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	wl.rows, wl.tpc = 16*1024-100, 1024 // short last chunk
	if wl.streams > 0 {
		wl.streams = 3
	}
	if wl.readBW > 0 {
		wl.readBW = 1 << 30
	}
	return wl
}

func tinyEnv(t *testing.T, wl workload, sp *spans) (*env, *oracle) {
	t.Helper()
	e, err := setup(wl, 7, filepath.Join(t.TempDir(), wl.name+".tbl"), sp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	})
	o, err := buildOracle(e.tf)
	if err != nil {
		t.Fatal(err)
	}
	return e, o
}

func TestScanPhasesSumToWall(t *testing.T) {
	for _, name := range []string{"paper-io", "decode-cpu"} {
		t.Run(name, func(t *testing.T) {
			wl := tiny(t, name)
			sp := newSpans()
			e, o := tinyEnv(t, wl, sp)
			res := runClosed(e, wl, o, 3, 200*time.Millisecond, sp)
			if len(res.scans) == 0 {
				t.Fatal("no scans ran")
			}
			for i, r := range res.scans {
				if r.err != nil {
					t.Fatalf("scan %d: %v", i, r.err)
				}
				if sum := r.first + r.wait + r.kernel + r.finish; sum != r.wall {
					t.Fatalf("scan %d: phases sum to %v, wall %v", i, sum, r.wall)
				}
			}
			if sp.tr.Events() == 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

func TestOracleRejectsForgedAggregate(t *testing.T) {
	wl := tiny(t, "decode-cpu")
	e, o := tinyEnv(t, wl, nil)
	plan := engine.PlanWorkload(e.tf.NumChunks(), 1, 6, 1)[0]
	var fast, slow engine.PlannedQuery
	for _, q := range plan {
		if q.Slow {
			slow = q
		} else {
			fast = q
		}
	}
	for _, q := range []engine.PlannedQuery{fast, slow} {
		if rec, _ := runScan(e.srv, q, 0, o, nil); rec.err != nil {
			t.Fatalf("%s: honest scan rejected: %v", q.Name, rec.err)
		}
	}
	c := fast.Ranges.Min()
	o.q6[c].Revenue++
	if rec, _ := runScan(e.srv, fast, 1, o, nil); rec.err == nil {
		t.Fatal("forged Q6 aggregate accepted")
	}
	o.q6[c].Revenue--
	c = slow.Ranges.Min()
	o.q1[c][[2]byte{'X', 'X'}] = &exec.Q1Group{Flag: 'X', Status: 'X', Count: 1}
	if rec, _ := runScan(e.srv, slow, 1, o, nil); rec.err == nil {
		t.Fatal("forged Q1 aggregate accepted")
	}
}

func TestOracleRejectsForgedSession(t *testing.T) {
	wl := tiny(t, "serve-mixed")
	e, o := tinyEnv(t, wl, nil)
	res := runOpen(e, wl, o, 1, 50*time.Millisecond, nil)
	for _, r := range res.reqs {
		if r.err != nil {
			t.Fatalf("honest session rejected: %v", r.err)
		}
	}
	forge := []struct {
		name  string
		batch bool
		edit  func()
		undo  func()
	}{
		{"q6 trailer", false, func() { o.q6[o.q6Kept.Min()].Rows++ }, func() { o.q6[o.q6Kept.Min()].Rows-- }},
		{"q6 receipt crc", false, func() { o.crcQ6[o.q6Kept.Min()] ^= 1 }, func() { o.crcQ6[o.q6Kept.Min()] ^= 1 }},
		{"q1 receipt crc", true, func() { o.crcQ1[0] ^= 1 }, func() { o.crcQ1[0] ^= 1 }},
	}
	client := newClient()
	for _, f := range forge {
		f.edit()
		r := reqRec{batch: f.batch, end: len(o.tuples)}
		if err := session(client, e, o, "forged", &r, wl.prune); err == nil {
			t.Errorf("forged %s accepted", f.name)
		}
		f.undo()
		r = reqRec{batch: f.batch, end: len(o.tuples)}
		if err := session(client, e, o, "honest", &r, wl.prune); err != nil {
			t.Errorf("%s: honest session rejected: %v", f.name, err)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a := schedule(5, 200, 0.1, time.Second)
	if b := schedule(5, 200, 0.1, time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if c := schedule(6, 200, 0.1, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	if len(a) < 150 || len(a) > 250 {
		t.Fatalf("%d arrivals in 1s at 200/s", len(a))
	}
	p := engine.PlanWorkload(48, 4, 8, 5)
	if q := engine.PlanWorkload(48, 4, 8, 5); !reflect.DeepEqual(p, q) {
		t.Fatal("same seed gave different query plans")
	}
	wl := tiny(t, "decode-cpu")
	_, o1 := tinyEnv(t, wl, nil)
	_, o2 := tinyEnv(t, wl, nil)
	if !reflect.DeepEqual(o1.crcQ1, o2.crcQ1) || !reflect.DeepEqual(o1.q6, o2.q6) {
		t.Fatal("same seed gave different table data")
	}
}

func TestServeSmoke(t *testing.T) {
	for _, name := range []string{"serve-mixed", "serve-io"} {
		t.Run(name, func(t *testing.T) {
			wl := tiny(t, name)
			sp := newSpans()
			e, o := tinyEnv(t, wl, sp)
			s, err := measure(e, wl, o, 2, 500*time.Millisecond, sp)
			if err != nil {
				t.Fatal(err)
			}
			if s.attempted == 0 || s.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", s.attempted, s.failed, s.errs)
			}
			if err := s.layers(e, s, 1); err != nil {
				t.Fatal(err)
			}
			for _, l := range layerUnits {
				if _, ok := s.metrics[l.name]; !ok {
					t.Errorf("per-layer metric %s missing", l.name)
				}
			}
		})
	}
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errs); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("result printed for a failed run: %q", out.String())
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step: same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	s := &summary{wl: workloads[0]}
	s.collect()
	e2e := s.endToEnd().Metrics
	if len(e2e) != len(spec.EndToEnd) {
		t.Errorf("command prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): command prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(layerUnits) != len(spec.PerLayer) {
		t.Errorf("command prints %d per-layer metrics, BENCHMARK.json lists %d", len(layerUnits), len(spec.PerLayer))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerUnits) && (layerUnits[i].name != m.Name || layerUnits[i].unit != m.Unit) {
			t.Errorf("per-layer %d: BENCHMARK.json %s (%s), command %s (%s)", i, m.Name, m.Unit, layerUnits[i].name, layerUnits[i].unit)
		}
	}
}
