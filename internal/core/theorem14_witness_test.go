package core_test

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// buildTheorem14Optimal constructs the near-optimal schedule of Figure 5a:
// T2 good-packed on the n GPUs (load exactly n each), T1 on n dedicated
// CPUs (length n each), and the T3/T4 fillers least-loaded-packed on the
// remaining m-n CPUs. Filler integrality makes the filler CPUs finish at
// most one filler-task length after n; with fine granularity the makespan
// is n + O(1/K).
func buildTheorem14Optimal(t *testing.T, in platform.Instance, pl platform.Platform,
	byName map[string][]int, k, K int) *sim.Schedule {
	t.Helper()
	n := 6 * k
	m := n * n
	s := &sim.Schedule{Platform: pl}

	// T1 on CPUs 0..n-1, one each.
	for i, idx := range byName["T1"] {
		task := in[idx]
		s.Entries = append(s.Entries, sim.Entry{
			TaskID: task.ID, Worker: i, Kind: platform.CPU,
			Start: 0, End: task.CPUTime,
		})
	}

	// T2 on the GPUs following the good packing; match lengths to tasks.
	pool := map[float64][]int{}
	for _, idx := range byName["T2"] {
		q := in[idx].GPUTime
		pool[q] = append(pool[q], idx)
	}
	for mach, lens := range workloads.Theorem14T2GoodPacking(k) {
		w := m + mach // GPU worker index
		var at float64
		for _, l := range lens {
			ids := pool[l]
			if len(ids) == 0 {
				t.Fatalf("good packing wants a task of length %v but none left", l)
			}
			idx := ids[len(ids)-1]
			pool[l] = ids[:len(ids)-1]
			task := in[idx]
			s.Entries = append(s.Entries, sim.Entry{
				TaskID: task.ID, Worker: w, Kind: platform.GPU,
				Start: at, End: at + task.GPUTime,
			})
			at += task.GPUTime
		}
	}
	for l, ids := range pool {
		if len(ids) != 0 {
			t.Fatalf("good packing left %d tasks of length %v unplaced", len(ids), l)
		}
	}

	// Fillers on CPUs n..m-1, least-loaded first.
	loads := make([]float64, m-n)
	fillers := append(append([]int{}, byName["T3"]...), byName["T4"]...)
	for _, idx := range fillers {
		best := 0
		for w := 1; w < len(loads); w++ {
			if loads[w] < loads[best]-1e-15 {
				best = w
			}
		}
		task := in[idx]
		s.Entries = append(s.Entries, sim.Entry{
			TaskID: task.ID, Worker: n + best, Kind: platform.CPU,
			Start: loads[best], End: loads[best] + task.CPUTime,
		})
		loads[best] += task.CPUTime
	}
	return s
}
