package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/serve"
)

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	tasks, err := taskCounts()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for _, tc := range []struct {
		name string
		at   func(int64) func(int) request
	}{
		{"serve-miss", func(s int64) func(int) request { return newMissPlan(s, tasks).at }},
		{"serve-hit", func(s int64) func(int) request { return newHitPlan(s).at }},
	} {
		h1, h2 := planHash(tc.at(7), n), planHash(tc.at(7), n)
		if h1 != h2 {
			t.Errorf("%s: seed 7 gave plan hashes %s and %s", tc.name, h1, h2)
		}
		if h3 := planHash(tc.at(8), n); h3 == h1 {
			t.Errorf("%s: seeds 7 and 8 gave the same plan hash %s", tc.name, h1)
		}
	}
}

func TestMissKeysPairwiseDistinct(t *testing.T) {
	tasks, err := taskCounts()
	if err != nil {
		t.Fatal(err)
	}
	p := newMissPlan(3, tasks)
	n := p.blockSize() * p.distinctBlocks()
	seen := make(map[serve.Key]int, n)
	var compares, jsons int
	for i := 0; i < n; i++ {
		r := p.at(i)
		k, err := r.cacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share a cache key: %s and %s", j, i, p.at(j).target(), r.target())
		}
		seen[k] = i
		if r.Compare {
			compares++
			if r.N > compareNMax {
				t.Fatalf("/compare at n=%d", r.N)
			}
		}
		if r.JSON {
			jsons++
		}
	}
	if compares*10 != n {
		t.Errorf("%d of %d requests are /compare, want 1 in 10", compares, n)
	}
	if jsons*2 != n {
		t.Errorf("%d of %d requests ask for JSON, want half", jsons, n)
	}
}

// The serve-miss warm-up must send keys no measured request uses: it lies
// inside the distinct-key range, past the ladder sample and past what the
// closed loop could reach in a minute at ten times today's capacity.
func TestMissWarmUpKeysAreNotMeasured(t *testing.T) {
	tasks, err := taskCounts()
	if err != nil {
		t.Fatal(err)
	}
	p := newMissPlan(3, tasks)
	spec := serveSpecFor("serve-miss", 3, tasks)
	end := spec.warmFrom + spec.warmCount
	if end > p.distinctBlocks()*p.blockSize() {
		t.Errorf("warm-up ends at request %d, past the %d distinct blocks", end, p.distinctBlocks())
	}
	if reach := spec.loadFrom + 60*250; spec.warmFrom < reach {
		t.Errorf("warm-up starts at request %d, before %d", spec.warmFrom, reach)
	}
}

// hpserve's default -cache-entries: each replica holds this many
// /schedule and as many /compare results.
const l1Capacity = 256

func TestHitKeysFitL1(t *testing.T) {
	p := newHitPlan(5)
	keys := map[serve.Key]bool{}
	var sched, compare int
	for _, r := range p.keys {
		k, err := r.cacheKey()
		if err != nil {
			t.Fatal(err)
		}
		if keys[k] {
			t.Fatalf("hit key %s repeats", r.target())
		}
		keys[k] = true
		if r.Compare {
			compare++
		} else {
			sched++
		}
	}
	// Even if the router placed every key on one replica, it fits.
	if sched > l1Capacity || compare > l1Capacity {
		t.Fatalf("%d /schedule and %d /compare keys exceed one replica's L1 of %d", sched, compare, l1Capacity)
	}
	warm := map[request]bool{}
	for _, r := range p.warmRequests() {
		warm[r] = true
	}
	for i := 0; i < 3*p.blockSize(); i++ {
		if r := p.at(i); !warm[r] {
			t.Fatalf("request %d (%s) was not warmed", i, r.target())
		}
	}
}

func TestLadderSumPlusResidualIsEndToEnd(t *testing.T) {
	ms := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	spans := []span{
		{Req: 0, Layer: "a", Dur: ms(1)}, {Req: 0, Layer: "b", Dur: ms(10)}, {Req: 0, Layer: "a", Dur: ms(1)},
		{Req: 1, Layer: "a", Dur: ms(3)}, {Req: 1, Layer: "b", Dur: ms(30)},
		{Req: 2, Layer: "a", Dur: ms(2)}, {Req: 2, Layer: "b", Dur: ms(20)},
		{Req: 9, Layer: "c", Dur: ms(99)}, // another class
	}
	e2e := map[int]float64{0: 15, 1: 40, 2: 25, 9: 100}
	l := buildLadder("x", []int{0, 1, 2}, e2e, spans)
	if len(l.rows) != 2 || l.rows[0].layer != "a" || l.rows[1].layer != "b" {
		t.Fatalf("rows %+v, want layers a then b", l.rows)
	}
	if l.rows[0].medianMS != 2 || l.rows[1].medianMS != 20 || l.rows[0].calls != 4.0/3 {
		t.Fatalf("rows %+v", l.rows)
	}
	if l.e2eMS != 25 || math.Abs(l.sumMS+l.residMS-l.e2eMS) > 1e-12 {
		t.Fatalf("e2e %v, sum %v, residual %v", l.e2eMS, l.sumMS, l.residMS)
	}
}

func TestClosedQuantileIgnoresOneStalledSlice(t *testing.T) {
	ph := &phases{}
	for i := 0; i < 4*minSliceSamples; i++ {
		d := time.Duration(1+i%10) * time.Millisecond
		if i < minSliceSamples {
			d *= 10 // the first slice ran during a stall
		}
		ph.closed = append(ph.closed, outcome{latency: d})
	}
	if got := ph.closedQuantile(0.5); got != 5.5 {
		t.Errorf("p50 %v ms, want 5.5 (the unstalled slices' median)", got)
	}
	ph.closed = ph.closed[:minSliceSamples] // too few answers to slice
	if got := ph.closedQuantile(0.5); got != 55 {
		t.Errorf("p50 %v ms over one slice, want 55", got)
	}
}

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(`# HELP hp_cache_hits_total x
# TYPE hp_cache_hits_total counter
hp_cache_hits_total 3
hp_latency_phase_us_bucket{phase="render",le="100"} 2 # {trace_id="ab"} 90
hp_latency_phase_us_sum{phase="render"} 150
hp_latency_phase_us_count{phase="render"} 2
`)
	if err != nil {
		t.Fatal(err)
	}
	before := metrics{`hp_latency_phase_us_sum{phase="render"}`: 50, `hp_latency_phase_us_count{phase="render"}`: 1}
	if got := delta(metrics{}, m, "hp_cache_hits_total"); got != 3 {
		t.Errorf("hits delta %v, want 3", got)
	}
	if mean, n := phaseMeanUS(before, m, "render"); mean != 100 || n != 1 {
		t.Errorf("render mean %v over %v, want 100 over 1", mean, n)
	}
}

func TestGoldenRowsMatchResults(t *testing.T) {
	for _, name := range []string{"fig6.csv", "fig7.csv"} {
		want, err := os.ReadFile("../results/" + name)
		if os.IsNotExist(err) {
			t.Skip("no results directory next to the benchmark")
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := golden.ReadFile("golden/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("golden/%s differs from results/%s", name, name)
		}
	}
	rows, err := goldenRows("fig7.csv", sweepNs)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 3*len(sweepNs); len(rows) != want {
		t.Fatalf("%d golden fig7 lines for N = %v, want %d", len(rows), sweepNs, want)
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json next to the benchmark")
	}
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(tc.listed) != len(tc.defs) {
			t.Errorf("%s lists %d metrics, the benchmark measures %d", tc.kind, len(tc.listed), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.listed[i].Name != d.name || tc.listed[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), the benchmark measures %s (%s)", tc.kind, i, tc.listed[i].Name, tc.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}
