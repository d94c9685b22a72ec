// Package core implements HeteroPrio, the paper's primary contribution: an
// affinity-based list scheduling algorithm with spoliation for platforms
// made of two unrelated resource classes (CPUs and GPUs).
//
// Algorithm 1 of the paper, for a set of independent tasks:
//
//  1. Sort ready tasks in a queue Q by non-increasing acceleration factor
//     rho = p/q.
//  2. When a worker becomes idle, it removes a task from the beginning of Q
//     if it is a GPU worker, from the end otherwise, and starts processing
//     it.
//  3. If Q is empty, the idle worker considers the tasks running on the
//     other resource class in decreasing order of their expected completion
//     time; if it could finish one of them strictly earlier than its
//     current expected completion time, that task is spoliated: the victim
//     run is aborted (all progress lost) and the task restarts on the idle
//     worker.
//
// The DAG variant applies the same rule to the set of currently ready
// tasks, inserting tasks into Q as their predecessors complete; priorities
// (typically bottom levels, Section 6.2) break acceleration-factor ties and
// select among equal-completion-time spoliation victims.
package core

import (
	"errors"

	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Options configures a HeteroPrio run. The zero value is the paper's
// algorithm with spoliation enabled and priority tie-breaking off.
type Options struct {
	// DisableSpoliation turns spoliation off, leaving a pure double-ended
	// list scheduler. Used for the ablation study: without spoliation the
	// algorithm has no bounded approximation ratio (Section 3).
	DisableSpoliation bool
	// UsePriorities applies the paper's priority tie-break when ordering
	// the queue: among tasks with equal acceleration factor, highest
	// priority first when rho >= 1 and last when rho < 1.
	UsePriorities bool
	// Eps is the tolerance used for the strict-improvement test of
	// spoliation: a task is spoliated only if the new completion time
	// improves on the current one by more than Eps. Defaults to 1e-9.
	Eps float64
	// ActualTime, if non-nil, gives the actual execution duration of a
	// task on a class, which may differ from the nominal processing time
	// the scheduler bases its decisions on (estimation-noise
	// experiments). Nil means actual == nominal.
	ActualTime func(t platform.Task, k platform.Kind) float64
	// TransferDelay, if positive, models data movement in DAG mode: a
	// task whose predecessor executed on the other resource class may not
	// start on a worker before the predecessor's completion plus this
	// delay; the worker blocks (occupied) until the transfer finishes.
	// Schedules produced with a transfer delay validate with
	// sim.Schedule.ValidateRelaxed (runs appear longer than nominal).
	TransferDelay float64
	// Observer, if non-nil, receives live scheduling events (task queued /
	// started / spoliated / completed, worker-idle and queue-depth
	// samples) at each simulated-clock decision point. Every emission site
	// is guarded on the nil default, so a disabled observer adds zero
	// allocations and zero calls to the scheduling loop (guarded by
	// BenchmarkScheduleIndependent and TestObserverNopZeroAlloc).
	Observer obs.Observer
}

func (o Options) actual(t platform.Task, k platform.Kind) float64 {
	if o.ActualTime == nil {
		return t.Time(k)
	}
	return o.ActualTime(t, k)
}

func (o Options) eps() float64 {
	if o.Eps > 0 {
		return o.Eps
	}
	return 1e-9
}

// Result is the outcome of a HeteroPrio run.
type Result struct {
	// Schedule is the final schedule S_HP, including aborted runs.
	Schedule *sim.Schedule
	// TFirstIdle is the first time any worker was idle while unfinished
	// tasks remained; +Inf if no worker was ever idle before the end.
	TFirstIdle float64
	// Spoliations is the number of aborted (spoliated) runs in Schedule.
	Spoliations int
}

// Makespan returns the makespan of the final schedule.
func (r Result) Makespan() float64 { return r.Schedule.Makespan() }

// Queue is HeteroPrio's double-ended ready queue, ordered by non-increasing
// acceleration factor with optional priority tie-breaks and stable
// insertion order. GPU workers pop from the front, CPU workers from the
// back. It is exported for reuse by custom policies and the real-time
// executor (package runtime).
type Queue struct {
	items   []queueItem
	usePrio bool
	seq     int
}

// NewQueue returns an empty queue; usePrio enables the paper's priority
// tie-break among equal acceleration factors.
func NewQueue(usePrio bool) *Queue { return &Queue{usePrio: usePrio} }

type queueItem struct {
	task  platform.Task
	accel float64
	seq   int
}

// before reports whether a precedes b in queue order (front first).
func (q *Queue) before(a, b queueItem) bool {
	if a.accel != b.accel {
		return a.accel > b.accel
	}
	//hplint:allow floateq priorities are copied inputs, not derived floats; != only routes equal-priority pairs to the stable seq tie-break
	if q.usePrio && a.task.Priority != b.task.Priority {
		if a.accel >= 1 {
			return a.task.Priority > b.task.Priority
		}
		return a.task.Priority < b.task.Priority
	}
	return a.seq < b.seq
}

// Len returns the number of queued tasks.
func (q *Queue) Len() int { return len(q.items) }

// Push inserts t keeping the queue ordered; equal keys go after existing
// ones (stability). The binary search is hand-rolled (sort.Search takes a
// closure, and Push sits on the scheduling hot path where closure
// captures are contraband).
//
//hplint:hotpath
func (q *Queue) Push(t platform.Task) {
	it := queueItem{task: t, accel: t.Accel(), seq: q.seq}
	q.seq++
	lo, hi := 0, len(q.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.before(it, q.items[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	q.items = append(q.items, queueItem{}) //hplint:allow allocflow amortized ready-queue growth, bounded by the live ready-task count
	copy(q.items[i+1:], q.items[i:])
	q.items[i] = it
}

// PopFront removes and returns the highest-acceleration task (GPU side).
func (q *Queue) PopFront() platform.Task {
	t := q.items[0].task
	q.items = q.items[1:]
	return t
}

// PopBack removes and returns the lowest-acceleration task (CPU side).
func (q *Queue) PopBack() platform.Task {
	t := q.items[len(q.items)-1].task
	q.items = q.items[:len(q.items)-1]
	return t
}

// Pick is Algorithm 1's queue-end take, making *Queue the HeteroPrio
// Policy: an idle GPU takes the front (highest acceleration factor), an
// idle CPU the back. ok is false on an empty queue. The real-time
// executor (package runtime) takes from its queue the same way.
//
//hplint:hotpath
func (q *Queue) Pick(_ int, kind platform.Kind) (platform.Task, bool) {
	if len(q.items) == 0 {
		return platform.Task{}, false
	}
	if kind == platform.GPU {
		return q.PopFront(), true
	}
	return q.PopBack(), true
}

// ScheduleIndependent runs HeteroPrio (Algorithm 1) on a set of independent
// tasks. S_HP^NS, the paper's analysis object, is the same call with
// DisableSpoliation set.
func ScheduleIndependent(in platform.Instance, pl platform.Platform, opt Options) (Result, error) {
	return Drive(Arrivals{Tasks: in}, pl, NewQueue(opt.UsePriorities), opt)
}

// ScheduleDAG runs the DAG variant of HeteroPrio: at any instant the
// algorithm of the independent case is applied to the set of currently
// ready tasks, and spoliation is attempted when an idle worker finds the
// queue empty.
func ScheduleDAG(g *dag.Graph, pl platform.Platform, opt Options) (Result, error) {
	if g == nil {
		return Result{}, errors.New("core: nil graph")
	}
	return Drive(Arrivals{Graph: g}, pl, NewQueue(opt.UsePriorities), opt)
}
