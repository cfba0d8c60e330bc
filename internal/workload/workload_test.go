package workload

import (
	"math"
	"testing"

	"coopscan/internal/core"
	"coopscan/internal/disk"
	"coopscan/internal/storage"
	"coopscan/internal/tpch"
)

func TestTemplateName(t *testing.T) {
	cases := map[Template]string{
		{Speed: Fast, Percent: 1}:    "F-01",
		{Speed: Fast, Percent: 10}:   "F-10",
		{Speed: Slow, Percent: 100}:  "S-100",
		{Speed: Slow, Percent: 12.5}: "S-12.5",
	}
	for tpl, want := range cases {
		if got := tpl.Name(); got != want {
			t.Errorf("%+v.Name() = %q, want %q", tpl, got, want)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("FFS-M")
	if err != nil {
		t.Fatal(err)
	}
	// 3 speed letters × 5 M-sizes = 15 templates, 2/3 fast.
	if len(m.Templates) != 15 {
		t.Fatalf("templates = %d", len(m.Templates))
	}
	fast := 0
	for _, tpl := range m.Templates {
		if tpl.Speed == Fast {
			fast++
		}
	}
	if fast != 10 {
		t.Errorf("fast templates = %d, want 10", fast)
	}
	for _, bad := range []string{"", "X-M", "F-Q", "F-MM", "F", "-M"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q): expected error", bad)
		}
	}
	if got := len(Figure5Mixes()); got != 15 {
		t.Errorf("Figure5Mixes = %d, want 15", got)
	}
	if got := len(StandardMix().Templates); got != 8 {
		t.Errorf("StandardMix templates = %d, want 8", got)
	}
}

// smallSpec builds a fast-running spec over a 40-chunk NSM table.
func smallSpec(policy core.Policy) Spec {
	tab := &storage.Table{
		Name:    "t",
		Columns: []storage.Column{{Name: "a", Type: storage.Int64, BitsPerValue: 64}},
		Rows:    40 * 131072,
	}
	layout := storage.NewNSMLayout(tab, 1<<20, 0)
	return Spec{
		Layout:           layout,
		DiskParams:       disk.Params{Bandwidth: 10 << 20, SeekTime: 5e-3},
		Core:             core.Config{Policy: policy, BufferBytes: 10 << 20},
		Streams:          4,
		QueriesPerStream: 3,
		StreamDelay:      0.5,
		Mix:              MustMix("SF-S"),
		Seed:             1,
	}
}

func TestRunProducesConsistentMetrics(t *testing.T) {
	res := smallSpec(core.Relevance).Run()
	if len(res.Queries) != 12 {
		t.Fatalf("queries = %d, want 12", len(res.Queries))
	}
	if res.AvgStreamTime <= 0 || res.Elapsed <= 0 {
		t.Errorf("non-positive times: %+v", res)
	}
	if res.AvgStreamTime > res.Elapsed {
		t.Errorf("avg stream time %v exceeds total %v", res.AvgStreamTime, res.Elapsed)
	}
	if res.CPUUtilisation <= 0 || res.CPUUtilisation > 1 {
		t.Errorf("CPU use = %v", res.CPUUtilisation)
	}
	if res.IORequests <= 0 {
		t.Error("no I/O requests recorded")
	}
	for _, o := range res.Queries {
		if o.Normalized < 0.6 {
			t.Errorf("%s normalised latency %.2f implausibly below 1", o.Stats.Query, o.Normalized)
		}
	}
	sumCount := 0
	for _, cs := range res.Classes {
		sumCount += cs.Count
		if cs.Standalone <= 0 {
			t.Errorf("class %s missing standalone baseline", cs.Template.Name())
		}
	}
	if sumCount != len(res.Queries) {
		t.Errorf("class counts %d != queries %d", sumCount, len(res.Queries))
	}
}

func TestRunDeterministic(t *testing.T) {
	a := smallSpec(core.Attach).Run()
	b := smallSpec(core.Attach).Run()
	if a.AvgStreamTime != b.AvgStreamTime || a.IORequests != b.IORequests ||
		a.AvgNormLatency != b.AvgNormLatency {
		t.Errorf("runs diverge: %+v vs %+v", a, b)
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	a := smallSpec(core.Normal)
	b := smallSpec(core.Normal)
	b.Seed = 99
	ra, rb := a.Run(), b.Run()
	if ra.IORequests == rb.IORequests && ra.AvgStreamTime == rb.AvgStreamTime {
		t.Error("different seeds should give different workloads")
	}
}

func TestPolicyOrderingOnSmallWorkload(t *testing.T) {
	// The paper's headline: relevance beats normal on both throughput and
	// latency; normal is the worst on I/O.
	results := smallSpec(core.Normal).RunAllPolicies()
	byPolicy := map[core.Policy]Result{}
	for _, r := range results {
		byPolicy[r.Policy] = r
	}
	norm, rel := byPolicy[core.Normal], byPolicy[core.Relevance]
	if rel.AvgStreamTime > norm.AvgStreamTime {
		t.Errorf("relevance stream time %.2f worse than normal %.2f", rel.AvgStreamTime, norm.AvgStreamTime)
	}
	if rel.IORequests > norm.IORequests {
		t.Errorf("relevance I/Os %d worse than normal %d", rel.IORequests, norm.IORequests)
	}
}

func TestStandaloneScalesWithPercent(t *testing.T) {
	s := smallSpec(core.Normal)
	t10 := s.Standalone(Template{Speed: Fast, Percent: 10})
	t50 := s.Standalone(Template{Speed: Fast, Percent: 50})
	if t50 < 3*t10 {
		t.Errorf("standalone 50%% (%v) should be ~5x 10%% (%v)", t50, t10)
	}
	slow := s.Standalone(Template{Speed: Slow, Percent: 50})
	if slow <= t50 {
		t.Errorf("slow standalone %v should exceed fast %v", slow, t50)
	}
}

func TestDSMSpecRuns(t *testing.T) {
	tab := tpch.LineitemTable(0.02)
	layout := storage.NewDSMLayout(tab, 10_000, 1<<14, 0)
	s := Spec{
		Layout:           layout,
		DiskParams:       disk.Params{Bandwidth: 10 << 20, SeekTime: 5e-3},
		Core:             core.Config{Policy: core.Relevance, BufferBytes: 8 << 20},
		Streams:          3,
		QueriesPerStream: 2,
		StreamDelay:      0.2,
		Mix:              MustMix("SF-S"),
		Seed:             5,
	}
	res := s.Run()
	if len(res.Queries) != 6 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	if res.BytesRead <= 0 {
		t.Error("no bytes read")
	}
	// Columnar: fast queries read 4 of 16 columns; a full-table fast scan
	// must read far less than the table's total footprint.
	if res.BytesRead > layout.TotalBytes()*3 {
		t.Errorf("read %d bytes total for narrow scans over %d-byte table", res.BytesRead, layout.TotalBytes())
	}
}

func TestTraceCapturedWhenEnabled(t *testing.T) {
	s := smallSpec(core.Elevator)
	s.TraceDisk = 10_000
	res := s.Run()
	if len(res.DiskTrace) == 0 {
		t.Error("no trace entries")
	}
	for i := 1; i < len(res.DiskTrace); i++ {
		if res.DiskTrace[i].Start < res.DiskTrace[i-1].Start {
			t.Fatal("trace not in time order")
		}
	}
}

func TestRNGDeterminismAndRange(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("rng not deterministic")
		}
	}
	r := NewRNG(3)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("intn(7) hit %d values", len(seen))
	}
}

func TestRangeForBounds(t *testing.T) {
	s := smallSpec(core.Normal)
	r := NewRNG(1)
	for i := 0; i < 200; i++ {
		for _, pct := range []float64{1, 10, 50, 100} {
			rs := rangeFor(s.Layout, Template{Speed: Fast, Percent: pct}, r)
			if rs.Empty() || rs.Max() >= s.Layout.NumChunks() || rs.Min() < 0 {
				t.Fatalf("bad range %v for %v%%", rs, pct)
			}
			want := int(math.Round(float64(s.Layout.NumChunks()) * pct / 100))
			if want < 1 {
				want = 1
			}
			if rs.Len() != want {
				t.Fatalf("range len %d, want %d", rs.Len(), want)
			}
		}
	}
}
