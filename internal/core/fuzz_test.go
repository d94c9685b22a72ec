package core

import (
	"math"
	"testing"

	"repro/internal/bounds"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// checkSpoliationProfit re-derives Algorithm 1's spoliation rule directly
// from the trace, independently of Schedule.Validate: every aborted run
// must have a spoliation restart at the abort instant, and the restart's
// estimated completion must strictly beat the victim's.
func checkSpoliationProfit(t *testing.T, in platform.Instance, s *sim.Schedule) {
	t.Helper()
	byID := in.ByID()
	for _, a := range s.Entries {
		if !a.Aborted {
			continue
		}
		found := false
		for _, r := range s.Entries {
			if !r.Spoliation || r.TaskID != a.TaskID || math.Abs(r.Start-a.End) > 1e-9 {
				continue
			}
			found = true
			task := byID[a.TaskID]
			if r.Start+task.Time(r.Kind) >= a.Start+task.Time(a.Kind) {
				t.Fatalf("task %d: restart at %v on %v does not strictly improve on the victim's completion", a.TaskID, r.Start, r.Kind)
			}
		}
		if !found {
			t.Fatalf("task %d aborted at %v without a spoliation restart", a.TaskID, a.End)
		}
	}
}

// decodeInstance turns fuzz bytes into a valid instance and platform:
// two bytes per task (CPU time, acceleration-factor bucket), first two
// bytes pick the platform shape.
func decodeInstance(data []byte) (platform.Instance, platform.Platform, bool) {
	if len(data) < 4 {
		return nil, platform.Platform{}, false
	}
	m := 1 + int(data[0])%6
	n := 1 + int(data[1])%4
	data = data[2:]
	var in platform.Instance
	for i := 0; i+1 < len(data) && len(in) < 40; i += 2 {
		p := 0.1 + float64(data[i])/8
		accel := math.Exp((float64(data[i+1])/255)*6 - 2) // ~[0.14, 55]
		in = append(in, platform.Task{ID: len(in), CPUTime: p, GPUTime: p / accel})
	}
	if len(in) == 0 {
		return nil, platform.Platform{}, false
	}
	return in, platform.NewPlatform(m, n), true
}

// encodeInstance is decodeInstance's quantizing inverse: platform shapes
// clamp to the decoder's 6 CPUs + 4 GPUs, durations and acceleration
// factors snap to the byte grid, and tasks beyond the decoder's cap of 40
// are dropped. It exists to seed the fuzz corpus with structured
// instances, so lossiness is fine — the structure survives.
func encodeInstance(in platform.Instance, pl platform.Platform) []byte {
	clampByte := func(v float64) byte {
		return byte(math.Max(0, math.Min(255, math.Round(v))))
	}
	data := []byte{
		clampByte(math.Min(float64(pl.CPUs), 6) - 1),
		clampByte(math.Min(float64(pl.GPUs), 4) - 1),
	}
	for _, t := range in {
		data = append(data,
			clampByte((t.CPUTime-0.1)*8),
			clampByte((math.Log(t.CPUTime/t.GPUTime)+2)/6*255))
	}
	return data
}

// FuzzHeteroPrioInvariants checks, for arbitrary instances, that
// HeteroPrio produces a structurally valid schedule, that spoliation only
// improves on the no-spoliation schedule, and that the Lemma 4/5
// structure and the T_FirstIdle <= AreaBound corollary hold.
func FuzzHeteroPrioInvariants(f *testing.F) {
	f.Add([]byte{2, 1, 100, 200, 50, 10, 30, 128})
	f.Add([]byte{1, 1, 255, 255, 1, 1})
	f.Add([]byte{5, 3, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	// The Section 5 worst-case families, quantized onto the decoder grid.
	// The tight members need larger platforms than the decoder can express
	// (Theorem 14 wants n^2 CPUs + n GPUs), so these are clamped
	// approximations — what they plant in the corpus is the adversarial
	// *structure*: phi-ratio task pairs and filler swarms that force
	// spoliation decisions near the profitability boundary.
	for _, family := range []func() (platform.Instance, platform.Platform){
		workloads.Theorem8Instance,
		func() (platform.Instance, platform.Platform) { return workloads.Theorem11Instance(2, 4) },
		func() (platform.Instance, platform.Platform) { return workloads.Theorem11Instance(5, 2) },
		func() (platform.Instance, platform.Platform) { return workloads.Theorem14Instance(1, 2) },
	} {
		in, pl := family()
		f.Add(encodeInstance(in, pl))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in, pl, ok := decodeInstance(data)
		if !ok {
			t.Skip()
		}
		res, err := ScheduleIndependent(in, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in, nil); err != nil {
			t.Fatalf("invalid schedule: %v", err)
		}
		if ns := noSpoliation(t, in, pl).Makespan(); res.Makespan() > ns+1e-9 {
			t.Fatalf("spoliation worsened makespan %v -> %v", ns, res.Makespan())
		}
		ab, err := bounds.AreaBound(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(res.TFirstIdle, 1) && res.TFirstIdle > ab+1e-6*math.Max(1, ab) {
			t.Fatalf("TFirstIdle %v > area bound %v", res.TFirstIdle, ab)
		}
		checkSpoliationProfit(t, in, res.Schedule)
		checkSpoliationLemmas(t, res.Schedule)
	})
}

// FuzzAreaBoundMatchesLP cross-checks the combinatorial area bound against
// the simplex LP for arbitrary instances.
func FuzzAreaBoundMatchesLP(f *testing.F) {
	f.Add([]byte{1, 1, 10, 10, 20, 20})
	f.Add([]byte{3, 2, 1, 254, 254, 1, 128, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, pl, ok := decodeInstance(data)
		if !ok || len(in) > 14 {
			t.Skip()
		}
		fast, err := bounds.AreaBound(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := bounds.AreaBoundLP(in, pl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fast-slow) > 1e-5*math.Max(1, slow) {
			t.Fatalf("area bound mismatch: combinatorial %v, LP %v", fast, slow)
		}
	})
}

// TestScalingInvariance: multiplying every processing time by a constant
// scales every algorithm's makespan by the same constant (no hidden
// absolute thresholds).
func TestScalingInvariance(t *testing.T) {
	in := platform.Instance{
		task(0, 10, 1), task(1, 3, 4), task(2, 7, 2), task(3, 1, 1), task(4, 5, 9),
	}
	pl := platform.NewPlatform(2, 1)
	base, err := ScheduleIndependent(in, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0.001, 3, 1e4} {
		scaled := in.Clone()
		for i := range scaled {
			scaled[i].CPUTime *= c
			scaled[i].GPUTime *= c
		}
		res, err := ScheduleIndependent(scaled, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Makespan()-c*base.Makespan()) > 1e-9*c*base.Makespan() {
			t.Errorf("scale %v: makespan %v, want %v", c, res.Makespan(), c*base.Makespan())
		}
	}
}
