package sched

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// scheduleHash fingerprints every recorded run of s (task, worker, exact
// start and end bits, abort and spoliation marks) in trace order, so a
// pin catches a changed assignment even when the makespan survives it.
func scheduleHash(s *sim.Schedule) uint64 {
	h := fnv.New64a()
	for _, e := range s.Entries {
		fmt.Fprintf(h, "%d %d %x %x %t %t;", e.TaskID, e.Worker,
			math.Float64bits(e.Start), math.Float64bits(e.End), e.Aborted, e.Spoliation)
	}
	return h.Sum64()
}

// TestZooDAGGolden pins the zoo's DAG entry points, as the experiment
// registry calls them, on the three factorizations and two platform
// shapes: makespan, run count and a fingerprint of the whole trace.
// HLP stays at the small sizes (<= 56 tasks) because its DAG LP grows
// cubically. Regenerate with -update after an intended change, and
// record the before/after makespans of every changed line.
func TestZooDAGGolden(t *testing.T) {
	algs := []struct {
		name  string
		large bool // also run at the larger size
		run   func(*dag.Graph, platform.Platform) (*sim.Schedule, error)
	}{
		{"ERLS-min", true, func(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
			return ERLSDAGWithPriorities(g, pl, dag.WeightMin)
		}},
		{"ERLS-avg", true, func(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
			return ERLSDAGWithPriorities(g, pl, dag.WeightAvg)
		}},
		{"HLP-min", false, func(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
			return HLPDAGWithPriorities(g, pl, dag.WeightMin)
		}},
		{"CLB2C", true, CLB2CDAG},
		{"PriorityAware-min", true, func(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
			return PriorityAwareDAGWithPriorities(g, pl, dag.WeightMin)
		}},
		{"Affinity", true, AffinityDAG},
	}
	sizes := []struct {
		f            workloads.Factorization
		small, large int
	}{
		{workloads.FactCholesky, 6, 10},
		{workloads.FactQR, 5, 8},
		{workloads.FactLU, 5, 8},
	}
	platforms := []platform.Platform{platform.NewPlatform(20, 4), platform.NewPlatform(2, 1)}
	var b strings.Builder
	for _, a := range algs {
		for _, sz := range sizes {
			ns := []int{sz.small}
			if a.large {
				ns = append(ns, sz.large)
			}
			for _, n := range ns {
				for _, pl := range platforms {
					g, err := workloads.Build(sz.f, n)
					if err != nil {
						t.Fatal(err)
					}
					s, err := a.run(g, pl)
					if err != nil {
						t.Fatalf("%s %s N=%d %v: %v", a.name, sz.f, n, pl, err)
					}
					if err := s.Validate(g.Tasks(), g); err != nil {
						t.Fatalf("%s %s N=%d %v: %v", a.name, sz.f, n, pl, err)
					}
					fmt.Fprintf(&b, "%s %s N=%d %d+%d tasks=%d makespan=%.17g runs=%d hash=%016x\n",
						a.name, sz.f, n, pl.CPUs, pl.GPUs, g.Len(), s.Makespan(), len(s.Entries), scheduleHash(s))
				}
			}
		}
	}
	checkGolden(t, filepath.Join("testdata", "zoo_dag.golden"), b.String())
}

// checkGolden compares got with the golden file, or rewrites it under
// -update. A mismatch reports each differing line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, g, w)
		}
	}
}
