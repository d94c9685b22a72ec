package sched

import (
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sim"
)

// PriorityAware reconstructs the priority-aware CPU-GPU scheduler of Chen
// and Marculescu (arXiv 1712.03246) in this repository's model: a global
// allocation oracle fixes each task's class before dispatch, and tasks are
// then dispatched strictly by priority. The oracle here is the optimal
// divisible-load solution (bounds.Area): tasks whose fractional CPU share
// rounds to a whole class are pinned there, and the at-most-one split task
// of Lemma 2 stays flexible, going wherever it completes earliest at
// dispatch time. The original targets measured-power mobile platforms, so
// this is a reconstruction in spirit; its contract in the ratio suite is a
// pinned empirical bound, not a theorem from the paper.

// priAwareEps separates "pinned to a class" from "split" fractions.
const priAwareEps = 1e-9

// priAwareKind resolves one task's class from its fractional CPU share f:
// pinned classes win, and split tasks take the class completing them
// earliest right now (ties to CPU). Empty classes defer to the other side.
func priAwareKind(t platform.Task, f float64, cp *classPlacer) platform.Kind {
	switch {
	case !cp.has(platform.GPU):
		return platform.CPU
	case !cp.has(platform.CPU):
		return platform.GPU
	case f >= 1-priAwareEps:
		return platform.CPU
	case f <= priAwareEps:
		return platform.GPU
	}
	if cp.end(t, platform.CPU) <= cp.end(t, platform.GPU) {
		return platform.CPU
	}
	return platform.GPU
}

// PriorityAwareIndependent schedules an independent instance with the
// priority-aware policy: area-bound allocation oracle, priority-descending
// dispatch, least-loaded worker within the class.
func PriorityAwareIndependent(in platform.Instance, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	sol, err := bounds.Area(in, pl)
	if err != nil {
		return nil, err
	}
	cp := newClassPlacer(pl)
	for _, t := range sortedByPriorityDesc(in) {
		cp.place(t, priAwareKind(t, sol.CPUFraction[t.ID], cp))
	}
	return cp.schedule(), nil
}

// PriorityAwareDAG schedules a task graph with the online form of the
// policy: the allocation oracle is computed once over all tasks of the
// graph, and each idle worker takes the highest-priority ready task that
// is pinned to its class or split (arrival order breaks priority ties).
func PriorityAwareDAG(g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	sol, err := bounds.Area(g.Tasks(), pl)
	if err != nil {
		return nil, err
	}
	// Pinned tasks may run only on their class, split tasks on either
	// (single-class platforms take everything).
	pol := &priorityList{allowed: make([][platform.NumKinds]bool, g.Len())}
	for id := range pol.allowed {
		f := sol.CPUFraction[id]
		pol.allowed[id] = [platform.NumKinds]bool{
			platform.CPU: pl.GPUs == 0 || f > priAwareEps,
			platform.GPU: pl.CPUs == 0 || f < 1-priAwareEps,
		}
	}
	return drive(core.Arrivals{Graph: g}, pl, pol)
}

// PriorityAwareDAGWithPriorities assigns bottom-level priorities under the
// given weighting and runs PriorityAwareDAG.
func PriorityAwareDAGWithPriorities(g *dag.Graph, pl platform.Platform, w dag.Weighting) (*sim.Schedule, error) {
	if _, err := g.AssignBottomLevelPriorities(w, pl); err != nil {
		return nil, err
	}
	return PriorityAwareDAG(g, pl)
}
