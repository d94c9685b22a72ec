package sched

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// CLB2C is the Cluster Load Balancing algorithm for two clusters surveyed
// in Beaumont, Eyraud-Dubois et al., "Scheduling on Two Types of
// Resources: a Survey" (arXiv 1909.11365): the tasks sit in one list
// sorted by acceleration factor; at each step the two candidate moves are
// "the least-loaded CPU takes the least-accelerated remaining task" and
// "the least-loaded GPU takes the most-accelerated remaining task", and
// the move that completes earlier is committed (ties go to the CPU side).
//
// The survey proves makespan <= 2*OPT whenever every task is small
// (max(p_i, q_i) <= OPT); without that condition the ratio is unbounded,
// which TestZooWorstCases exhibits with a single GPU-hungry task. The
// ratio suite therefore checks the 2*OPT contract only on trials where
// the smallness condition holds, and counts how often it applied.

// CLB2CIndependent schedules an independent instance with CLB2C.
func CLB2CIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sorted := in.Clone()
	sorted.SortByAccelDesc()
	cp := newClassPlacer(pl)
	lo, hi := 0, len(sorted)-1
	for lo <= hi {
		useCPU := false
		switch {
		case !cp.has(platform.GPU):
			useCPU = true
		case !cp.has(platform.CPU):
			useCPU = false
		default:
			useCPU = cp.end(sorted[hi], platform.CPU) <= cp.end(sorted[lo], platform.GPU)
		}
		if useCPU {
			cp.place(sorted[hi], platform.CPU)
			hi--
		} else {
			cp.place(sorted[lo], platform.GPU)
			lo++
		}
	}
	return cp.schedule(), nil
}

// CLB2CDAG schedules a task graph with the online adaptation of CLB2C:
// ready tasks are kept sorted by acceleration factor, and an idle GPU
// takes the most-accelerated ready task while an idle CPU takes the
// least-accelerated one (the completion-time comparison of the offline
// rule degenerates online, since only idle workers ask for work).
func CLB2CDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	return drive(core.Arrivals{Graph: g}, pl, &dequePolicy{})
}

// accelDeque is a deque of tasks kept sorted by non-increasing
// acceleration factor (ties by increasing task ID, so insertion order
// never matters). GPU-side consumers pop the front, CPU-side consumers
// the back. It backs dequePolicy, the online policy of CLB2C and Affinity.
type accelDeque struct {
	tasks []platform.Task
}

func (d *accelDeque) empty() bool { return len(d.tasks) == 0 }
func (d *accelDeque) len() int    { return len(d.tasks) }

// insert places t at its sorted position.
func (d *accelDeque) insert(t platform.Task) {
	a := t.Accel()
	i := len(d.tasks)
	for i > 0 {
		prev := d.tasks[i-1]
		pa := prev.Accel()
		if pa > a || (pa == a && prev.ID < t.ID) { //hplint:allow floateq equal factors fall through to the ID tie-break; both orderings are valid, one is picked deterministically
			break
		}
		i--
	}
	d.tasks = append(d.tasks, platform.Task{}) //hplint:allow allocflow amortized deque growth, bounded by the live ready-task count
	copy(d.tasks[i+1:], d.tasks[i:])
	d.tasks[i] = t
}

// popFront removes and returns the most-accelerated task.
func (d *accelDeque) popFront() platform.Task {
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t
}

// popBack removes and returns the least-accelerated task.
func (d *accelDeque) popBack() platform.Task {
	t := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t
}
