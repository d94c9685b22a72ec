package core

import (
	"fmt"
	"math"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Policy is the decision rule of a simulated list scheduler; Drive runs
// the event loop around it. Push admits a task that has just arrived or
// become ready. Pick hands idle worker w of class kind its next task, ok
// false when the policy has nothing for that class. Len counts admitted
// tasks not yet picked: it is the queue depth observers see, and once it
// is zero idle workers try spoliation (unless Options.DisableSpoliation).
// HeteroPrio's policy is *Queue; the related-work schedulers of package
// sched bring their own. Implementations sit on the allocation-free hot
// path of the loop.
type Policy interface {
	Push(t platform.Task)
	Pick(w int, kind platform.Kind) (t platform.Task, ok bool)
	Len() int
}

// Arrivals is the arrival source of a list-scheduling run. Set at most one
// field: Tasks are all ready at time zero, Graph releases each task once
// its predecessors complete, and Timed releases each task at its release
// date. All empty is the empty instance.
type Arrivals struct {
	Tasks platform.Instance
	Graph *dag.Graph
	Timed []ReleasedTask
}

// Drive validates the platform and the arrivals, then runs the list
// scheduling event loop: admit arrivals, let idle workers pick (GPUs
// before CPUs), spoliate once the policy is empty, advance to the next
// completion or release, and retire every completion of that instant
// before deciding again.
func Drive(src Arrivals, pl platform.Platform, pol Policy, opt Options) (Result, error) {
	if err := pl.Validate(); err != nil {
		return Result{}, err
	}
	s := &listState{
		k:          sim.NewKernel(pl),
		pol:        pol,
		pl:         pl,
		opt:        opt,
		o:          opt.Observer,
		eps:        opt.eps(),
		g:          src.Graph,
		tFirstIdle: math.Inf(1),
	}
	switch {
	case src.Graph != nil:
		if err := src.Graph.Validate(); err != nil {
			return Result{}, err
		}
		s.rt = dag.NewReadyTracker(src.Graph)
		s.remaining = src.Graph.Len()
		if opt.TransferDelay > 0 {
			s.classReady = make([][platform.NumKinds]float64, src.Graph.Len())
		}
		s.admitReady()
	case src.Timed != nil:
		timed, err := arrivalOrder(src.Timed)
		if err != nil {
			return Result{}, err
		}
		s.timed = timed
		s.remaining = len(timed)
	default:
		if err := src.Tasks.Validate(); err != nil {
			return Result{}, err
		}
		s.remaining = len(src.Tasks)
		// Stable order: queue stability reproduces the paper's tie cases.
		for _, t := range src.Tasks {
			s.admit(t)
		}
	}
	s.loop()
	if s.remaining != 0 {
		return Result{}, fmt.Errorf("core: list schedule stalled with %d tasks remaining", s.remaining)
	}
	return Result{
		Schedule:    s.k.Schedule(),
		TFirstIdle:  s.tFirstIdle,
		Spoliations: s.spoliations,
	}, nil
}

// kindOrder is the class service order of a decision round: GPUs first,
// then CPUs (a CPU must never steal a high-affinity task from a GPU that
// frees up at the same instant). Package-level so the loop does not
// rebuild the slice every round.
var kindOrder = [platform.NumKinds]platform.Kind{platform.GPU, platform.CPU}

// listState is one Drive execution: the event-loop methods below are the
// scheduling hot path (annotated //hplint:hotpath; the allocflow analyzer
// proves every decision round allocation-free, through every Policy
// implementation, modulo the justified allows at amortized-growth sites).
// Construction and setup stay in Drive, outside the contract.
type listState struct {
	k   *sim.Kernel
	pol Policy
	pl  platform.Platform
	opt Options
	o   obs.Observer
	eps float64

	g  *dag.Graph
	rt *dag.ReadyTracker
	// classReady[id][k] is the earliest instant task id may start on class
	// k once ready (predecessor completion plus transfer delay when the
	// predecessor ran on the other class). Only tracked with a transfer
	// delay configured.
	classReady [][platform.NumKinds]float64
	// timed holds the release-ordered arrivals; next indexes the first one
	// not yet admitted.
	timed []ReleasedTask
	next  int

	remaining   int
	tFirstIdle  float64
	spoliations int
}

// admit hands one arrival to the policy.
//
//hplint:hotpath
func (s *listState) admit(t platform.Task) {
	s.pol.Push(t)
	if s.o != nil {
		s.o.TaskQueued(s.k.Now, t, s.pol.Len())
	}
}

// admitReady admits the graph tasks whose predecessors have all completed.
//
//hplint:hotpath
func (s *listState) admitReady() {
	for _, id := range s.rt.DrainShared() {
		s.admit(s.g.Task(id))
	}
}

// admitReleased admits the timed arrivals released by now.
//
//hplint:hotpath
func (s *listState) admitReleased() {
	for s.next < len(s.timed) && s.timed[s.next].Release <= s.k.Now+1e-12 {
		s.admit(s.timed[s.next].Task)
		s.next++
	}
}

// startDuration returns the actual occupation time of a run: the
// execution duration plus any transfer wait the worker blocks on.
//
//hplint:hotpath
func (s *listState) startDuration(t platform.Task, kind platform.Kind) float64 {
	d := s.opt.actual(t, kind)
	if s.classReady != nil {
		if wait := s.classReady[t.ID][kind] - s.k.Now; wait > 0 {
			d += wait
		}
	}
	return d
}

// victimBefore orders spoliation candidates: decreasing expected
// completion time, ties by higher priority, then by smaller task ID
// (deterministic, and the lever used by the adversarial worst-case
// instances).
func victimBefore(a, b sim.Running) bool {
	if a.EstEnd != b.EstEnd {
		return a.EstEnd > b.EstEnd
	}
	if a.Task.Priority != b.Task.Priority {
		return a.Task.Priority > b.Task.Priority
	}
	return a.Task.ID < b.Task.ID
}

// Victim is the spoliation rule of Algorithm 1, shared by the simulated
// loop and the real-time executor (package runtime): an idle worker of
// class kind considers the runs on the other class (victims) in
// victimBefore order and takes the first it could finish, starting at
// now, more than eps before that run's expected completion. It reorders
// victims in place and returns the chosen index, or -1. The sort is an
// insertion sort: the candidate set is at most one class's worker count,
// and sort.Slice would box the slice and build a reflect-based swapper on
// every call.
//
//hplint:hotpath
func Victim(victims []sim.Running, kind platform.Kind, now, eps float64) int {
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victimBefore(victims[j], victims[j-1]); j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	// Decisions use EstEnd, the completion time the scheduler believes
	// in: with perfect estimates it equals the true End; under estimation
	// noise the true End is not observable.
	for i, v := range victims {
		if now+v.Task.Time(kind) < v.EstEnd-eps {
			return i
		}
	}
	return -1
}

// trySpoliate attempts a spoliation for idle worker w (policy known
// empty). Returns true if a task was restarted on w.
//
//hplint:hotpath
func (s *listState) trySpoliate(w int) bool {
	kind := s.pl.KindOf(w)
	// The shared victim buffer is the kernel's scratch; Victim sorting it
	// in place is sanctioned.
	victims := s.k.RunningOnShared(kind.Other())
	i := Victim(victims, kind, s.k.Now, s.eps)
	if i < 0 {
		return false
	}
	v := victims[i]
	s.k.Abort(v.Worker)
	s.k.StartTimed(w, v.Task, s.startDuration(v.Task, kind), true)
	s.spoliations++
	if s.o != nil {
		s.o.TaskSpoliated(s.k.Now, v.Worker, w, v.Task, s.k.Now-v.Start)
		s.o.TaskStarted(s.k.Now, w, kind, v.Task, s.k.Now+v.Task.Time(kind), true)
	}
	return true
}

// assign fills idle workers from the policy and, once it is empty,
// attempts spoliations until no more progress is possible.
//
//hplint:hotpath
func (s *listState) assign() {
	for {
		changed := false
		for _, kind := range kindOrder {
			for _, w := range s.k.IdleWorkersShared(kind) {
				t, ok := s.pol.Pick(w, kind)
				if !ok {
					break
				}
				s.k.StartTimed(w, t, s.startDuration(t, kind), false)
				changed = true
				if s.o != nil {
					s.o.TaskStarted(s.k.Now, w, kind, t, s.k.Now+t.Time(kind), false)
				}
			}
		}
		if s.pol.Len() == 0 && !s.opt.DisableSpoliation {
			for _, kind := range kindOrder {
				for _, w := range s.k.IdleWorkersShared(kind) {
					if s.trySpoliate(w) {
						changed = true
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// complete retires one finished run: completion event, transfer-delay
// bookkeeping, and admission of newly ready successors.
//
//hplint:hotpath
func (s *listState) complete(run sim.Running) {
	s.remaining--
	if s.o != nil {
		s.o.TaskCompleted(s.k.Now, run.Worker, s.pl.KindOf(run.Worker), run.Task, run.Start)
	}
	if s.rt == nil {
		return
	}
	if s.classReady != nil {
		kind := s.pl.KindOf(run.Worker)
		for _, succ := range s.g.Succs(run.Task.ID) {
			if run.End > s.classReady[succ][kind] {
				s.classReady[succ][kind] = run.End
			}
			if other := kind.Other(); run.End+s.opt.TransferDelay > s.classReady[succ][other] {
				s.classReady[succ][other] = run.End + s.opt.TransferDelay
			}
		}
	}
	s.rt.Complete(run.Task.ID)
	s.admitReady()
}

// loop is the event loop proper: admit releases, assign, observe, advance
// to the next release or completion, drain same-instant completions,
// repeat.
//
//hplint:hotpath
func (s *listState) loop() {
	for {
		s.admitReleased()
		s.assign()
		if s.remaining > 0 && s.k.NumBusy() < s.pl.Workers() && s.k.Now < s.tFirstIdle {
			s.tFirstIdle = s.k.Now
		}
		if s.o != nil && s.remaining > 0 {
			s.o.QueueDepthSample(s.k.Now, s.pol.Len())
			for w := 0; w < s.pl.Workers(); w++ {
				if !s.k.Busy(w) {
					s.o.WorkerIdle(s.k.Now, w, s.pl.KindOf(w))
				}
			}
		}
		if s.next < len(s.timed) && s.timed[s.next].Release < s.k.NextCompletion() {
			s.k.Now = s.timed[s.next].Release
			continue
		}
		run, ok := s.k.CompleteNext()
		if !ok {
			return
		}
		s.complete(run)
		// Drain every completion with the same timestamp before letting the
		// policy reassign: all workers that become idle at this instant must
		// see the same queue, with GPUs served first (otherwise a CPU could
		// steal a high-affinity task from a GPU that frees up at the very
		// same time).
		//hplint:allow floateq completions at one instant carry the same stored float; the exact same-timestamp drain is intended
		for s.k.NextCompletion() == s.k.Now {
			run, ok = s.k.CompleteNext()
			if !ok {
				break
			}
			s.complete(run)
		}
	}
}
