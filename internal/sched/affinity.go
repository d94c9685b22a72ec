package sched

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Affinity reconstructs the XKaapi dual-ended heuristic of Bleuse,
// Gautier, Lima, Mounié and Trystram ("Scheduling Data Flow Program in
// XKaapi", arXiv 1402.6601): ready tasks sit in one deque sorted by
// acceleration factor, GPU workers take work from the most-accelerated
// end and CPU workers from the least-accelerated end, and each worker
// scans a small window at its end preferring a task with the same kernel
// name as the one it just ran (the affinity stands in for XKaapi's
// locality-aware cache of valid data copies). There is no spoliation;
// TestZooWorstCases pins what that costs on the paper's Theorem 8
// instance. Like PriorityAware this is a reconstruction in spirit, with a
// pinned empirical contract in the ratio suite.

// affinityWindow is how deep into its end of the deque a worker looks for
// a kernel-name match before settling for the endmost task.
const affinityWindow = 4

// take removes and returns the task a worker of class kind takes from its
// end of the deque: within affinityWindow tasks of that end, the first
// whose kernel name is lastName, else the endmost task. An empty lastName
// (CLB2C, or a worker's first task) takes the endmost task.
func (d *accelDeque) take(kind platform.Kind, lastName string) platform.Task {
	if lastName != "" {
		for off := 0; off < affinityWindow && off < d.len(); off++ {
			i := off
			if kind == platform.CPU {
				i = d.len() - 1 - off
			}
			if t := d.tasks[i]; t.Name == lastName {
				copy(d.tasks[i:], d.tasks[i+1:])
				d.tasks = d.tasks[:d.len()-1]
				return t
			}
		}
	}
	if kind == platform.GPU {
		return d.popFront()
	}
	return d.popBack()
}

// affinity returns the Affinity policy for pl: a dequePolicy remembering
// each worker's last kernel name. A negative worker count sizes it empty;
// core.Drive rejects that platform before the first pick.
func affinity(pl platform.Platform) *dequePolicy {
	return &dequePolicy{last: make([]string, max(pl.Workers(), 0))}
}

// AffinityIndependent schedules an independent instance with the affinity
// heuristic, simulating the workers' race for the deque: whenever a worker
// idles it takes its next task per accelDeque.take, so which worker gets
// which task depends on completion order exactly as in the runtime.
func AffinityIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	return drive(core.Arrivals{Tasks: in}, pl, affinity(pl))
}

// AffinityDAG schedules a task graph with the online affinity heuristic:
// the deque holds the ready tasks, refilled as predecessors complete.
func AffinityDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	return drive(core.Arrivals{Graph: g}, pl, affinity(pl))
}
