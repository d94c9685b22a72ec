package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// theoremBound returns the proven approximation ratio of HeteroPrio for the
// platform shape (Table 2).
func theoremBound(pl platform.Platform) float64 {
	switch {
	case pl.CPUs == 1 && pl.GPUs == 1:
		return workloads.Phi // Theorem 7
	case pl.GPUs == 1:
		return 1 + workloads.Phi // Theorem 9
	default:
		return 2 + math.Sqrt2 // Theorem 12
	}
}

// TestApproximationBoundsRandom verifies Theorems 7, 9 and 12 empirically:
// on random small instances (where the exact optimum is computable), the
// HeteroPrio makespan never exceeds the proven bound for the platform
// shape.
func TestApproximationBoundsRandom(t *testing.T) {
	shapes := []struct {
		name string
		m, n int
	}{
		{"1CPU+1GPU", 1, 1},
		{"3CPU+1GPU", 3, 1},
		{"5CPU+1GPU", 5, 1},
		{"3CPU+2GPU", 3, 2},
		{"4CPU+3GPU", 4, 3},
	}
	rng := rand.New(rand.NewSource(2017))
	for _, shape := range shapes {
		pl := platform.NewPlatform(shape.m, shape.n)
		bound := theoremBound(pl)
		worst := 0.0
		for trial := 0; trial < 120; trial++ {
			T := 1 + rng.Intn(9)
			var in platform.Instance
			for i := 0; i < T; i++ {
				// Spread acceleration factors widely, including rho < 1.
				p := 0.1 + rng.Float64()*10
				accel := math.Exp(rng.Float64()*6 - 2) // ~[0.13, 55]
				in = append(in, platform.Task{ID: i, CPUTime: p, GPUTime: p / accel})
			}
			res, err := core.ScheduleIndependent(in, pl, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opt, err := sched.OptimalIndependent(in, pl)
			if err != nil {
				t.Fatal(err)
			}
			ratio := res.Makespan() / opt
			if ratio > bound+1e-6 {
				t.Fatalf("%s trial %d: ratio %v exceeds bound %v\ninstance: %v",
					shape.name, trial, ratio, bound, in)
			}
			worst = math.Max(worst, ratio)
		}
		t.Logf("%s: worst observed ratio %.4f (bound %.4f)", shape.name, worst, bound)
	}
}

// TestLemma3Corollary verifies corollary (iii) of Lemma 3: when every task
// satisfies max(p, q) <= C_max^Opt, HeteroPrio is a 2-approximation.
func TestLemma3Corollary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	checked := 0
	for trial := 0; trial < 400 && checked < 60; trial++ {
		pl := platform.NewPlatform(1+rng.Intn(3), 1+rng.Intn(2))
		T := 3 + rng.Intn(7)
		var in platform.Instance
		for i := 0; i < T; i++ {
			// Near-balanced tasks keep max(p,q) small relative to opt.
			p := 1 + rng.Float64()
			q := 1 + rng.Float64()
			in = append(in, platform.Task{ID: i, CPUTime: p, GPUTime: q})
		}
		opt, err := sched.OptimalIndependent(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		applies := true
		for _, task := range in {
			if task.MaxTime() > opt {
				applies = false
				break
			}
		}
		if !applies {
			continue
		}
		checked++
		res, err := core.ScheduleIndependent(in, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan() > 2*opt+1e-6 {
			t.Fatalf("trial %d: makespan %v > 2*opt %v", trial, res.Makespan(), 2*opt)
		}
	}
	if checked == 0 {
		t.Fatal("no instance satisfied the corollary's precondition")
	}
}
