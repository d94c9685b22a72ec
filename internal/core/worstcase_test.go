package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// TestTheorem11WorstCaseFamily runs HeteroPrio on the Theorem 11 instances
// and checks the adversarial makespan x + phi (optimum 1), approaching the
// tight bound 1 + phi as m grows.
func TestTheorem11WorstCaseFamily(t *testing.T) {
	for _, m := range []int{2, 5, 10, 40} {
		in, pl := workloads.Theorem11Instance(m, 4)
		res, err := core.ScheduleIndependent(in, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := workloads.Theorem11ExpectedMakespan(m)
		if math.Abs(res.Makespan()-want) > 1e-9 {
			t.Errorf("m=%d: makespan %v, want %v", m, res.Makespan(), want)
		}
	}
	// The ratio approaches 1 + phi from below.
	r40 := workloads.Theorem11ExpectedMakespan(40)
	if r40 < 2.5 || r40 > 1+workloads.Phi {
		t.Errorf("m=40 ratio %v not in (2.5, 1+workloads.Phi)", r40)
	}
}

// TestTheorem11OptimalIsOne verifies with the exact solver (small fillers)
// that the Theorem 11 instance has optimal makespan 1.
func TestTheorem11OptimalIsOne(t *testing.T) {
	// K=2 makes the fillers pack exactly: 3*eps + phi*eps = eps*(3+phi) = 1.
	in, pl := workloads.Theorem11Instance(3, 2)
	opt, err := sched.OptimalIndependent(in, pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-1) > 1e-9 {
		t.Errorf("optimal = %v, want 1", opt)
	}
}

// TestTheorem14BadListOrder checks the Figure 4 claim: the T2 set consumed
// in the bad order by a Graham list scheduler on n machines takes 2n-1,
// while the good packing achieves n.
func TestTheorem14BadListOrder(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		n := 6 * k
		ms, _ := sched.ListHomogeneous(workloads.Theorem14T2GPUTimes(k), n)
		if math.Abs(ms-float64(2*n-1)) > 1e-9 {
			t.Errorf("k=%d: bad list makespan %v, want %v", k, ms, 2*n-1)
		}
	}
}

// TestTheorem14WorstCaseFamily runs HeteroPrio on the full Theorem 14
// instance and checks the adversarial makespan x + n*r/3, i.e. a ratio
// approaching 2 + 2/sqrt(3) ~ 3.15.
func TestTheorem14WorstCaseFamily(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		in, pl := workloads.Theorem14Instance(k, 2)
		res, err := core.ScheduleIndependent(in, pl, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := workloads.Theorem14ExpectedMakespan(k)
		if math.Abs(res.Makespan()-want) > 1e-6 {
			t.Errorf("k=%d: makespan %v, want %v (ratio %v vs %v)",
				k, res.Makespan(), want,
				res.Makespan()/workloads.Theorem14OptimalMakespan(k),
				want/workloads.Theorem14OptimalMakespan(k))
		}
		ratio := res.Makespan() / workloads.Theorem14OptimalMakespan(k)
		if ratio > 2+2/math.Sqrt(3)+1e-9 {
			t.Errorf("k=%d: ratio %v above the 2+2/sqrt(3) limit", k, ratio)
		}
		// The family approaches the limit from below: x/n + r/3.
		n := 6 * k
		r := workloads.Theorem14R(n)
		x := float64(n*n-n) * float64(n) / (float64(n*n) + float64(n)*r)
		if wantRatio := x/float64(n) + r/3; math.Abs(ratio-wantRatio) > 1e-6 {
			t.Errorf("k=%d: ratio %v, want %v", k, ratio, wantRatio)
		}
	}
}

// TestTheorem14OptimalWitness builds the (near-)optimal schedule of the
// paper explicitly (Figure 5a) and validates it: T2 good-packed on the
// GPUs, T1 on n CPUs, T3/T4 filling the remaining m-n CPUs. With filler
// granularity K the makespan is within one filler length (r*x/K) of the
// optimum n, certifying the worst-case ratio of the family.
func TestTheorem14OptimalWitness(t *testing.T) {
	k, K := 2, 500
	in, pl := workloads.Theorem14Instance(k, K)
	n := 6 * k
	r := workloads.Theorem14R(n)
	x := float64(n*n-n) * float64(n) / (float64(n*n) + float64(n)*r)
	slack := r * x / float64(K)
	// Group tasks by name preserving order.
	byName := map[string][]int{}
	for i, task := range in {
		byName[task.Name] = append(byName[task.Name], i)
	}
	s := buildTheorem14Optimal(t, in, pl, byName, k, K)
	if err := s.Validate(in, nil); err != nil {
		t.Fatal(err)
	}
	ms := s.Makespan()
	if ms < float64(n)-1e-9 || ms > float64(n)+slack+1e-9 {
		t.Errorf("witness makespan %v, want within [%v, %v]", ms, n, float64(n)+slack)
	}
	// The certified ratio (HeteroPrio makespan over witness makespan) must
	// already be deep in worst-case territory, well above 2+sqrt(2)'s
	// little sibling bounds for the (m,1) case.
	res, err := core.ScheduleIndependent(in, pl, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Theory for k=2: x/n + r/3 ~ 2.68; the witness slack costs a few
	// percent. Anything >= 2.6 certifies the family is well beyond the
	// (m,1) bound of 1+phi and approaching 2+2/sqrt(3).
	ratio := res.Makespan() / ms
	if ratio < 2.6 {
		t.Errorf("certified ratio %v, want >= 2.6 (theory: -> %v)", ratio, 2+2/math.Sqrt(3))
	}
}
