package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

var phi = (1 + math.Sqrt(5)) / 2

func task(id int, p, q float64) platform.Task {
	return platform.Task{ID: id, CPUTime: p, GPUTime: q}
}

// noSpoliation returns S_HP^NS, the list schedule HeteroPrio builds on in
// with spoliation disabled: the analysis object of Section 4.
func noSpoliation(t testing.TB, in platform.Instance, pl platform.Platform) *sim.Schedule {
	t.Helper()
	res, err := ScheduleIndependent(in, pl, Options{DisableSpoliation: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue(false)
	q.Push(task(0, 1, 1)) // rho 1
	q.Push(task(1, 4, 1)) // rho 4
	q.Push(task(2, 2, 2)) // rho 1, after task 0 (stable)
	q.Push(task(3, 1, 2)) // rho 0.5
	if q.Len() != 4 {
		t.Fatalf("len = %d", q.Len())
	}
	if got := q.PopFront(); got.ID != 1 {
		t.Errorf("front = %d, want 1", got.ID)
	}
	if got := q.PopBack(); got.ID != 3 {
		t.Errorf("back = %d, want 3", got.ID)
	}
	if got := q.PopFront(); got.ID != 0 {
		t.Errorf("stable tie: front = %d, want 0", got.ID)
	}
}

func TestQueuePriorityTieBreak(t *testing.T) {
	// rho >= 1: higher priority toward the front.
	q := NewQueue(true)
	a := task(0, 2, 1)
	a.Priority = 1
	b := task(1, 2, 1)
	b.Priority = 9
	q.Push(a)
	q.Push(b)
	if got := q.PopFront(); got.ID != 1 {
		t.Errorf("front = %d, want high-priority 1", got.ID)
	}
	// rho < 1: higher priority toward the back (CPU side).
	q2 := NewQueue(true)
	c := task(0, 1, 2)
	c.Priority = 1
	d := task(1, 1, 2)
	d.Priority = 9
	q2.Push(c)
	q2.Push(d)
	if got := q2.PopBack(); got.ID != 1 {
		t.Errorf("back = %d, want high-priority 1", got.ID)
	}
}

func TestScheduleIndependentValidatesInput(t *testing.T) {
	if _, err := ScheduleIndependent(platform.Instance{task(0, -1, 1)}, platform.NewPlatform(1, 1), Options{}); err == nil {
		t.Error("invalid task accepted")
	}
	if _, err := ScheduleIndependent(platform.Instance{task(0, 1, 1)}, platform.Platform{}, Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestEmptyInstance(t *testing.T) {
	res, err := ScheduleIndependent(nil, platform.NewPlatform(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != 0 {
		t.Errorf("makespan = %v, want 0", res.Makespan())
	}
}

// TestTheorem8WorstCase reproduces the tight phi example of Theorem 8:
// tasks Y(p=1, q=1/phi) then X(p=phi, q=1), both with acceleration factor
// phi, on 1 CPU + 1 GPU. HeteroPrio reaches makespan phi while the optimum
// is 1, and the GPU must NOT spoliate X (equal completion time).
func TestTheorem8WorstCase(t *testing.T) {
	in := platform.Instance{
		task(0, 1, 1/phi), // Y first: stable sort keeps it at the front
		task(1, phi, 1),   // X
	}
	pl := platform.NewPlatform(1, 1)
	res, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan()-phi) > 1e-9 {
		t.Errorf("makespan = %v, want phi = %v", res.Makespan(), phi)
	}
	if res.Spoliations != 0 {
		t.Errorf("spoliations = %d, want 0 (equal completion must not spoliate)", res.Spoliations)
	}
}

func TestSpoliationImprovesMakespan(t *testing.T) {
	// GPU finishes the high-rho task at 1, then spoliates the CPU task
	// (1 + 2 = 3 < 10).
	in := platform.Instance{
		task(0, 10, 1), // rho 10 -> GPU
		task(1, 10, 2), // rho 5  -> CPU, then spoliated
	}
	pl := platform.NewPlatform(1, 1)
	res, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan()-3) > 1e-9 {
		t.Errorf("makespan = %v, want 3", res.Makespan())
	}
	if res.Spoliations != 1 {
		t.Errorf("spoliations = %d, want 1", res.Spoliations)
	}
	if ns := noSpoliation(t, in, pl).Makespan(); math.Abs(ns-10) > 1e-9 {
		t.Errorf("S_HP^NS makespan = %v, want 10", ns)
	}
	if res.TFirstIdle != 1 {
		t.Errorf("TFirstIdle = %v, want 1", res.TFirstIdle)
	}
}

func TestAblationSpoliationUnboundedGap(t *testing.T) {
	// Two tasks that should both run on the GPU; without spoliation the CPU
	// keeps one for time M (ratio M/2 vs opt), with spoliation makespan 2.
	const M = 1000.0
	in := platform.Instance{task(0, M, 1), task(1, M, 1)}
	pl := platform.NewPlatform(1, 1)
	with, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := ScheduleIndependent(in, pl, Options{DisableSpoliation: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(with.Makespan()-2) > 1e-9 {
		t.Errorf("with spoliation makespan = %v, want 2", with.Makespan())
	}
	if math.Abs(without.Makespan()-M) > 1e-9 {
		t.Errorf("without spoliation makespan = %v, want %v", without.Makespan(), M)
	}
}

func TestNoGPUPlatform(t *testing.T) {
	in := platform.Instance{task(0, 3, 1), task(1, 2, 1), task(2, 1, 1)}
	pl := platform.NewPlatform(2, 0)
	res, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(in, nil); err != nil {
		t.Fatal(err)
	}
	// CPUs pop from the back of the rho-sorted queue, so the p=1 and p=2
	// tasks start first and the p=3 task starts at time 1: makespan 4.
	if res.Makespan() != 4 {
		t.Errorf("makespan = %v, want 4", res.Makespan())
	}
}

func TestNoCPUPlatform(t *testing.T) {
	in := platform.Instance{task(0, 3, 2), task(1, 2, 2)}
	pl := platform.NewPlatform(0, 1)
	res, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != 4 {
		t.Errorf("makespan = %v, want 4", res.Makespan())
	}
}

// Emergent Lemma 4/5 properties: a task is aborted at most once, and a
// class that executes a spoliated task has no aborted run of its own.
func checkSpoliationLemmas(t *testing.T, s *sim.Schedule) {
	t.Helper()
	abortCount := map[int]int{}
	spoliatedOn := map[platform.Kind]bool{}
	abortedOn := map[platform.Kind]bool{}
	for _, e := range s.Entries {
		if e.Aborted {
			abortCount[e.TaskID]++
			abortedOn[e.Kind] = true
		} else if e.Spoliation {
			spoliatedOn[e.Kind] = true
		}
	}
	for id, c := range abortCount {
		if c > 1 {
			t.Errorf("task %d aborted %d times", id, c)
		}
	}
	for _, k := range []platform.Kind{platform.CPU, platform.GPU} {
		if spoliatedOn[k] && abortedOn[k] {
			t.Errorf("Lemma 5 violated: class %v both executes spoliated tasks and loses tasks to spoliation", k)
		}
	}
}

func TestRandomIndependentInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(3)
		T := 1 + rng.Intn(25)
		var in platform.Instance
		for i := 0; i < T; i++ {
			in = append(in, task(i, 0.1+rng.Float64()*10, 0.1+rng.Float64()*10))
		}
		pl := platform.NewPlatform(m, n)
		res, err := ScheduleIndependent(in, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ns := noSpoliation(t, in, pl)
		if err := ns.Validate(in, nil); err != nil {
			t.Fatalf("trial %d NS: %v", trial, err)
		}
		checkSpoliationLemmas(t, res.Schedule)
		// Spoliation can only help.
		if res.Makespan() > ns.Makespan()+1e-9 {
			t.Fatalf("trial %d: spoliation worsened makespan %v -> %v",
				trial, ns.Makespan(), res.Makespan())
		}
		// Lemma 3 corollary: T_FirstIdle <= AreaBound(I).
		ab, err := bounds.AreaBound(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.TFirstIdle > ab+1e-6 && !math.IsInf(res.TFirstIdle, 1) {
			t.Fatalf("trial %d: TFirstIdle %v > area bound %v", trial, res.TFirstIdle, ab)
		}
	}
}

func TestScheduleDAGChain(t *testing.T) {
	g := dag.Chain(5, platform.Task{CPUTime: 4, GPUTime: 1})
	pl := platform.NewPlatform(1, 1)
	res, err := ScheduleDAG(g, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g.Tasks(), g); err != nil {
		t.Fatal(err)
	}
	// All five tasks run on the GPU back to back.
	if res.Makespan() != 5 {
		t.Errorf("makespan = %v, want 5", res.Makespan())
	}
}

func TestScheduleDAGValidatesInput(t *testing.T) {
	g := dag.New()
	a := g.AddTask(task(0, 1, 1))
	b := g.AddTask(task(1, 1, 1))
	g.AddEdge(a, b)
	g.AddEdge(b, a)
	if _, err := ScheduleDAG(g, platform.NewPlatform(1, 1), Options{}); err == nil {
		t.Error("cyclic graph accepted")
	}
	if _, err := ScheduleDAG(dag.New(), platform.Platform{}, Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestScheduleDAGForkJoinSpoliation(t *testing.T) {
	// Source and sink prefer GPU; the wide middle has mixed affinities so
	// both classes work, and the run must respect all dependencies.
	src := platform.Task{CPUTime: 4, GPUTime: 1}
	body := platform.Task{CPUTime: 3, GPUTime: 2}
	sink := platform.Task{CPUTime: 8, GPUTime: 1}
	g := dag.ForkJoin(6, src, body, sink)
	pl := platform.NewPlatform(2, 1)
	res, err := ScheduleDAG(g, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g.Tasks(), g); err != nil {
		t.Fatal(err)
	}
	checkSpoliationLemmas(t, res.Schedule)
}

func TestScheduleDAGRandomInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		g := dag.RandomLayered(dag.DefaultRandomLayeredConfig(), rng)
		pl := platform.NewPlatform(1+rng.Intn(4), 1+rng.Intn(2))
		if _, err := g.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			t.Fatal(err)
		}
		res, err := ScheduleDAG(g, pl, Options{UsePriorities: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(g.Tasks(), g); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Makespan is at least the DAG lower bound.
		lb, err := bounds.DAGLower(g, pl)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan() < lb-1e-6 {
			t.Fatalf("trial %d: makespan %v below lower bound %v", trial, res.Makespan(), lb)
		}
	}
}

func TestPriorityTieBreakChangesDAGChoice(t *testing.T) {
	// Two ready tasks with identical (p, q) but different priorities; the
	// single GPU must take the high-priority one first under UsePriorities.
	g := dag.New()
	lo := g.AddTask(platform.Task{CPUTime: 10, GPUTime: 1, Priority: 1})
	hi := g.AddTask(platform.Task{CPUTime: 10, GPUTime: 1, Priority: 5})
	pl := platform.NewPlatform(0, 1)
	res, err := ScheduleDAG(g, pl, Options{UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Schedule.Entries[0]
	if first.TaskID != hi {
		t.Errorf("GPU started task %d first, want high-priority %d (lo=%d)", first.TaskID, hi, lo)
	}
}

func TestResultMakespanAccessor(t *testing.T) {
	in := platform.Instance{task(0, 1, 1)}
	res, err := ScheduleIndependent(in, platform.NewPlatform(1, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != res.Schedule.Makespan() {
		t.Error("Makespan accessor mismatch")
	}
}
