package sched

// Shared plumbing for the competitor zoo (DESIGN.md §15): the related-work
// schedulers (ER-LS, HLP, CLB2C, PriorityAware, Affinity) all decompose
// into "pick a class for the next task, put it on the least-loaded worker
// of that class" (independent instances) or "hand each idle worker the
// next task its class's queue offers" (DAG instances). The first skeleton
// is classPlacer; the second is a core.Policy (priorityList or
// dequePolicy) run by core's event loop, so each algorithm file only
// contains its allocation rule and queue discipline, and all of them
// inherit the same deterministic tie-breaking (worker index via loadHeap,
// task arrival order in the policies).

import (
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// classPlacer builds an independent-task schedule by placing each task on
// the least-loaded worker of a chosen class (ties to the smallest worker
// index). It is the offline counterpart of the online event loop: with
// independent tasks, "least-loaded worker" is exactly the worker that
// would idle first.
type classPlacer struct {
	pl    platform.Platform
	heaps [platform.NumKinds]loadHeap
	s     *sim.Schedule
}

func newClassPlacer(pl platform.Platform) *classPlacer {
	cp := &classPlacer{pl: pl, s: &sim.Schedule{Platform: pl}}
	for w := 0; w < pl.Workers(); w++ {
		cp.heaps[pl.KindOf(w)].push(loadEntry{worker: w})
	}
	return cp
}

// has reports whether the platform has any worker of class k.
func (cp *classPlacer) has(k platform.Kind) bool { return cp.heaps[k].len() > 0 }

// end returns the completion time t would have if placed now on class k,
// which must be non-empty.
func (cp *classPlacer) end(t platform.Task, k platform.Kind) float64 {
	return cp.heaps[k].min().load + t.Time(k)
}

// place puts t on the least-loaded worker of class k. If the platform has
// no worker of class k, the task falls back to the other class (callers
// that care about failover semantics check has() first).
func (cp *classPlacer) place(t platform.Task, k platform.Kind) {
	if !cp.has(k) {
		k = k.Other()
	}
	h := &cp.heaps[k]
	e := h.min()
	d := t.Time(k)
	cp.s.Entries = append(cp.s.Entries, sim.Entry{
		TaskID: t.ID, Worker: e.worker, Kind: k,
		Start: e.load, End: e.load + d,
	})
	h.increaseMin(d)
}

// schedule returns the accumulated schedule.
func (cp *classPlacer) schedule() *sim.Schedule { return cp.s }

// drive runs pol through core's list-scheduling event loop (the one
// HeteroPrio uses), with spoliation off: none of the zoo's online
// policies spoliates.
func drive(src core.Arrivals, pl platform.Platform, pol core.Policy) (*sim.Schedule, error) {
	res, err := core.Drive(src, pl, pol, core.Options{DisableSpoliation: true})
	return res.Schedule, err
}

// priorityList is the online policy of ER-LS, HLP and PriorityAware: an
// allocation rule fixes up front the classes each task may run on, and
// an idle worker takes the highest-priority admitted task allowed on its
// class, earliest arrival on ties.
type priorityList struct {
	allowed [][platform.NumKinds]bool // by task ID
	pending []platform.Task           // in arrival order
}

// classList is the priorityList of a rule that pins each task to one
// class: kinds[id] is task id's class.
func classList(kinds []platform.Kind) *priorityList {
	p := &priorityList{allowed: make([][platform.NumKinds]bool, len(kinds))}
	for id, k := range kinds {
		p.allowed[id][k] = true
	}
	return p
}

func (p *priorityList) Push(t platform.Task) {
	p.pending = append(p.pending, t) //hplint:allow allocflow amortized ready-list growth, bounded by the live ready-task count
}

func (p *priorityList) Len() int { return len(p.pending) }

func (p *priorityList) Pick(_ int, kind platform.Kind) (platform.Task, bool) {
	best := -1
	for i, t := range p.pending {
		if p.allowed[t.ID][kind] && (best < 0 || t.Priority > p.pending[best].Priority) {
			best = i
		}
	}
	if best < 0 {
		return platform.Task{}, false
	}
	t := p.pending[best]
	copy(p.pending[best:], p.pending[best+1:])
	p.pending = p.pending[:len(p.pending)-1]
	return t, true
}

// dequePolicy is the dual-ended online policy of CLB2C and Affinity:
// admitted tasks sit in an accelDeque, an idle GPU takes from the
// most-accelerated end and an idle CPU from the least-accelerated one.
// With last set (Affinity) a worker first looks for the kernel name it
// ran last (accelDeque.take).
type dequePolicy struct {
	dq   accelDeque
	last []string // by worker; nil turns the affinity window off
}

func (p *dequePolicy) Push(t platform.Task) { p.dq.insert(t) }

func (p *dequePolicy) Len() int { return p.dq.len() }

func (p *dequePolicy) Pick(w int, kind platform.Kind) (platform.Task, bool) {
	if p.dq.empty() {
		return platform.Task{}, false
	}
	if p.last == nil {
		return p.dq.take(kind, ""), true
	}
	t := p.dq.take(kind, p.last[w])
	p.last[w] = t.Name
	return t, true
}
