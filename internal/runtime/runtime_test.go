package runtime

import (
	"errors"
	"math"
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tile"
)

// sleepTask returns a task sleeping for the given per-class durations,
// polling for cancellation every poll interval.
func sleepTask(name string, cpu, gpu time.Duration) Task {
	return Task{
		Name:   name,
		EstCPU: cpu.Seconds(),
		EstGPU: gpu.Seconds(),
		Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
			d := cpu
			if kind == platform.GPU {
				d = gpu
			}
			deadline := time.Now().Add(d)
			for time.Now().Before(deadline) {
				if flag.Cancelled() {
					return false, nil
				}
				//hplint:allow sleepsync paces a simulated kernel between cancellation polls; completion is signalled via channels, not the sleep
				time.Sleep(200 * time.Microsecond)
			}
			return true, nil
		},
	}
}

func TestRunValidatesInputs(t *testing.T) {
	g := NewGraph()
	g.Add(Task{Name: "norun", EstCPU: 1, EstGPU: 1})
	if _, err := Run(g, Config{CPUWorkers: 1}); err == nil {
		t.Error("task without Run accepted")
	}
	if _, err := Run(NewGraph(), Config{}); err == nil {
		t.Error("empty platform accepted")
	}
}

func TestRunSimpleChain(t *testing.T) {
	g := NewGraph()
	var order []int32
	var mu int32
	mk := func(id int32) Task {
		return Task{
			Name: "t", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				atomic.AddInt32(&mu, 1)
				order = append(order, id) // safe: chain forces sequential
				return true, nil
			},
		}
	}
	a := g.Add(mk(0))
	b := g.Add(mk(1))
	c := g.Add(mk(2))
	g.AddDep(a, b)
	g.AddDep(b, c)
	rep, err := Run(g, Config{CPUWorkers: 2, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("execution order %v", order)
	}
	if rep.Wall <= 0 {
		t.Error("wall time not measured")
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 3 {
		t.Errorf("trace has %d successful entries, want 3", got)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	g.Add(Task{
		Name: "bad", EstCPU: 0.001, EstGPU: 0.001,
		Run: func(platform.Kind, *cancel.Flag) (bool, error) { return true, boom },
	})
	if _, err := Run(g, Config{CPUWorkers: 1}); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestRunParallelIndependent(t *testing.T) {
	g := NewGraph()
	var count int32
	for i := 0; i < 20; i++ {
		g.Add(Task{
			Name: "p", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(platform.Kind, *cancel.Flag) (bool, error) {
				atomic.AddInt32(&count, 1)
				return true, nil
			},
		})
	}
	if _, err := Run(g, Config{CPUWorkers: 4, GPUWorkers: 2}); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Errorf("ran %d tasks, want 20", count)
	}
}

// TestRunSpoliation builds the classic two-task trap: both tasks strongly
// prefer the GPU class; the CPU worker grabs one and the GPU worker should
// spoliate it after finishing the other.
func TestRunSpoliation(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 200*time.Millisecond, 5*time.Millisecond))
	g.Add(sleepTask("b", 200*time.Millisecond, 5*time.Millisecond))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 1 {
		t.Errorf("spoliations = %d, want 1", rep.Spoliations)
	}
	// Both GPU runs take ~5ms; the spoliated CPU run aborts quickly. The
	// whole thing must finish well below the 200ms CPU duration.
	if rep.Wall > 150*time.Millisecond {
		t.Errorf("wall time %v suggests spoliation did not happen", rep.Wall)
	}
	// Trace must contain exactly one aborted entry and one spoliation run.
	aborted, spol := 0, 0
	for _, e := range rep.Trace.Entries {
		if e.Aborted {
			aborted++
		} else if e.Spoliation {
			spol++
		}
	}
	if aborted != 1 || spol != 1 {
		t.Errorf("trace aborted=%d spoliation=%d, want 1/1", aborted, spol)
	}
}

func TestRunNoSpoliationWhenDisabled(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 50*time.Millisecond, 2*time.Millisecond))
	g.Add(sleepTask("b", 50*time.Millisecond, 2*time.Millisecond))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1, DisableSpoliation: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 0 {
		t.Errorf("spoliations = %d, want 0", rep.Spoliations)
	}
	if rep.Wall < 45*time.Millisecond {
		t.Errorf("wall %v too fast: CPU must have kept its task", rep.Wall)
	}
}

func TestCalibrateCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	est := CalibrateCholesky(96, rng)
	if est.B != 96 {
		t.Errorf("B = %d", est.B)
	}
	for name, pair := range map[string][2]float64{
		"POTRF": est.POTRF, "TRSM": est.TRSM, "SYRK": est.SYRK, "GEMM": est.GEMM,
	} {
		if pair[0] <= 0 || pair[1] <= 0 {
			t.Errorf("%s: non-positive estimate %v", name, pair)
		}
	}
	// The blocked GEMM should beat the naive one at this size.
	if est.Accel() < 1 {
		t.Logf("warning: fast GEMM not faster (accel %.2f); machine noise?", est.Accel())
	}
}

// TestCholeskyGraphNumerics is the flagship integration test: factor a
// real SPD matrix with the real-time HeteroPrio executor (spoliation
// enabled, mixed worker classes) and verify L*L^T == A numerically.
func TestCholeskyGraphNumerics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, b = 192, 48
	a := tile.RandomSPD(n, rng)
	want, err := tile.CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tile.NewTiled(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est := CalibrateCholesky(b, rng)
	g, err := CholeskyGraph(td, est)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Config{CPUWorkers: 2, GPUWorkers: 1, UsePriorities: true})
	if err != nil {
		t.Fatal(err)
	}
	got := td.Assemble()
	var d float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d = math.Max(d, math.Abs(got.At(i, j)-want.At(i, j)))
		}
	}
	if d > 1e-8 {
		t.Errorf("factor differs from dense reference by %v (spoliations=%d)", d, rep.Spoliations)
	}
	if len(rep.Trace.SuccessfulEntries()) != g.Len() {
		t.Errorf("trace has %d successful runs, want %d", len(rep.Trace.SuccessfulEntries()), g.Len())
	}
}

// TestCholeskyGraphWithSpoliationStress repeats the numeric test with a
// worker mix that provokes spoliation (many slow CPU workers, one fast
// class) and verifies correctness is preserved even when runs are
// cancelled and restarted.
func TestCholeskyGraphWithSpoliationStress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, b = 240, 48
	a := tile.RandomSPD(n, rng)
	want, err := tile.CholeskyDense(a)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tile.NewTiled(a, b)
	if err != nil {
		t.Fatal(err)
	}
	est := CalibrateCholesky(b, rng)
	// Exaggerate the acceleration estimates so the policy spoliates
	// aggressively.
	est.GEMM[1] /= 4
	est.SYRK[1] /= 4
	est.TRSM[1] /= 4
	g, err := CholeskyGraph(td, est)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(g, Config{CPUWorkers: 3, GPUWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := td.Assemble()
	var d float64
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d = math.Max(d, math.Abs(got.At(i, j)-want.At(i, j)))
		}
	}
	if d > 1e-8 {
		t.Errorf("factor wrong by %v after %d spoliations", d, rep.Spoliations)
	}
	t.Logf("spoliations: %d, wall: %v", rep.Spoliations, rep.Wall)
}

func TestCholeskyGraphEstimateMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := tile.RandomSPD(8, rng)
	td, err := tile.NewTiled(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CholeskyGraph(td, CholeskyEstimates{B: 8}); err == nil {
		t.Error("tile size mismatch accepted")
	}
}

func TestRunHomogeneousCPUPool(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 6; i++ {
		g.Add(sleepTask("t", time.Millisecond, time.Millisecond))
	}
	rep, err := Run(g, Config{CPUWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spoliations != 0 {
		t.Errorf("spoliations on a homogeneous pool: %d", rep.Spoliations)
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 6 {
		t.Errorf("%d successful runs, want 6", got)
	}
}

func TestRunGPUOnlyPool(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("t", time.Millisecond, time.Millisecond))
	rep, err := Run(g, Config{GPUWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall <= 0 {
		t.Error("no wall time measured")
	}
}

// TestRunManualClock: with an injected frozen clock, every observed
// timestamp is deterministic — the live executor's replayability hinges on
// its time source being injectable, which the simdeterminism analyzer
// enforces by forbidding bare time.Now in this package.
func TestRunManualClock(t *testing.T) {
	g := NewGraph()
	mk := func() Task {
		return Task{
			Name: "t", EstCPU: 0.001, EstGPU: 0.001,
			Run: func(platform.Kind, *cancel.Flag) (bool, error) { return true, nil },
		}
	}
	a := g.Add(mk())
	b := g.Add(mk())
	g.AddDep(a, b)
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	rep, err := Run(g, Config{CPUWorkers: 1, GPUWorkers: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall != 0 {
		t.Errorf("frozen clock measured wall %v, want 0", rep.Wall)
	}
	for _, e := range rep.Trace.Entries {
		if e.Start != 0 || e.End != 0 {
			t.Errorf("frozen clock produced entry [%v,%v], want [0,0]", e.Start, e.End)
		}
	}
	if got := len(rep.Trace.SuccessfulEntries()); got != 2 {
		t.Errorf("%d successful runs, want 2", got)
	}
}

// TestCalibrateClock: the calibrators accept an injected clock; frozen
// time yields zero estimates, proving no hidden wall-clock read feeds the
// measurement.
func TestCalibrateClock(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clk := clock.NewManual(time.Unix(0, 0))
	est := CalibrateCholeskyClock(4, rng, clk)
	for _, d := range [][2]float64{est.POTRF, est.TRSM, est.SYRK, est.GEMM} {
		if d[0] != 0 || d[1] != 0 {
			t.Fatalf("frozen clock measured nonzero cholesky estimate %v", d)
		}
	}
	lu := CalibrateLUClock(4, rng, clk)
	if lu.GETRF != 0 || lu.TRSM != 0 || lu.GEMM[0] != 0 || lu.GEMM[1] != 0 {
		t.Fatalf("frozen clock measured nonzero LU estimates %+v", lu)
	}
	qr := CalibrateQRClock(4, rng, clk)
	for _, d := range [][2]float64{qr.GEQRT, qr.LARFB, qr.TSQRT, qr.TSMQR} {
		if d[0] != 0 || d[1] != 0 {
			t.Fatalf("frozen clock measured nonzero QR estimate %v", d)
		}
	}
}

// TestRunObserver checks the live executor emits the same observer event
// stream as the simulator loops: every task is queued, started, and
// completed, spoliations surface as TaskSpoliated, and the per-event
// counts reconcile with the returned Report.
func TestRunObserver(t *testing.T) {
	g := NewGraph()
	g.Add(sleepTask("a", 200*time.Millisecond, 5*time.Millisecond))
	g.Add(sleepTask("b", 200*time.Millisecond, 5*time.Millisecond))
	so := obs.NewSchedulerMetrics(obs.NewRegistry())
	tl := obs.NewTimeline()
	rep, err := Run(g, Config{
		CPUWorkers: 1, GPUWorkers: 1,
		Observer: obs.Multi(so, tl),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := so.TasksCompleted.Value(); got != 2 {
		t.Errorf("observer completions = %v, want 2", got)
	}
	if got := so.Spoliations.Value(); int(got) != rep.Spoliations {
		t.Errorf("observer spoliations = %v, report says %d", got, rep.Spoliations)
	}
	if got := so.TasksQueued.Value(); got < 2 {
		t.Errorf("observer queued = %v, want >= 2", got)
	}
	// The timeline bridge sees the same runs the trace records.
	if tl.Len() == 0 {
		t.Fatal("timeline observed no events")
	}
}

// TestRunEqualEstEndVictimTieBreak: two CPU runs with the same estimated
// completion are both worth spoliating when the GPU frees up; the
// executor must pick the higher-priority one, exactly as the simulator's
// victim order does (core.Victim). On a frozen manual clock the platform
// is 2 CPUs + 1 GPU: tasks a (p=10, q=6) and b (p=10, q=6, plus a
// successor that lifts its bottom-level priority) start on the CPUs at
// t=0, and c (p=10, q=1) on the GPU finishes at t=1, when 1+6 < 10 makes
// both CPU runs victims. b must be aborted first; a follows once the GPU
// is free again.
func TestRunEqualEstEndVictimTieBreak(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	started := make(chan struct{}, 2)
	// cpuTask runs instantly on the GPU and, on a CPU, signals its start
	// and then only ends by being spoliated.
	cpuTask := func(name string) Task {
		return Task{
			Name: name, EstCPU: 10, EstGPU: 6,
			Run: func(kind platform.Kind, flag *cancel.Flag) (bool, error) {
				if kind == platform.GPU {
					return true, nil
				}
				started <- struct{}{}
				for !flag.Cancelled() {
					goruntime.Gosched()
				}
				return false, nil
			},
		}
	}
	g := NewGraph()
	a := g.Add(cpuTask("a"))
	b := g.Add(cpuTask("b"))
	g.Add(Task{
		Name: "c", EstCPU: 10, EstGPU: 1,
		Run: func(platform.Kind, *cancel.Flag) (bool, error) {
			<-started
			<-started
			clk.Advance(time.Second)
			return true, nil
		},
	})
	succ := g.Add(Task{
		Name: "b-succ", EstCPU: 1, EstGPU: 1,
		Run: func(platform.Kind, *cancel.Flag) (bool, error) { return true, nil },
	})
	g.AddDep(b, succ)
	rep, err := Run(g, Config{CPUWorkers: 2, GPUWorkers: 1, UsePriorities: true, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	var aborted []int
	for _, e := range rep.Trace.Entries {
		if e.Aborted {
			aborted = append(aborted, e.TaskID)
		}
	}
	if want := []int{b, a}; !slices.Equal(aborted, want) {
		t.Errorf("aborted tasks in order %v, want %v (higher priority first among equal estimated ends)", aborted, want)
	}
}
