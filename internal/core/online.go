package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/platform"
)

// ReleasedTask is a task with a release date for the online setting
// (tasks arrive over time, the scheduler learns a task at its release).
type ReleasedTask struct {
	Task    platform.Task
	Release float64
}

// ScheduleOnline runs HeteroPrio in the online-arrival setting studied by
// Imreh [14] and pointed at by the paper's related work: tasks enter the
// ready queue at their release dates, and at any instant the algorithm of
// the independent case (including spoliation) is applied to the tasks
// released so far. It is the same event loop as ScheduleIndependent and
// ScheduleDAG, with timed arrivals as the source.
func ScheduleOnline(tasks []ReleasedTask, pl platform.Platform, opt Options) (Result, error) {
	return Drive(Arrivals{Timed: tasks}, pl, NewQueue(opt.UsePriorities), opt)
}

// arrivalOrder validates release dates and tasks and returns the arrivals
// stably sorted by release date.
func arrivalOrder(tasks []ReleasedTask) ([]ReleasedTask, error) {
	in := make(platform.Instance, len(tasks))
	for i, rt := range tasks {
		if rt.Release < 0 || math.IsNaN(rt.Release) || math.IsInf(rt.Release, 0) {
			return nil, fmt.Errorf("core: task %d has invalid release date %v", rt.Task.ID, rt.Release)
		}
		in[i] = rt.Task
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	arrivals := append([]ReleasedTask(nil), tasks...)
	sort.SliceStable(arrivals, func(i, j int) bool { return arrivals[i].Release < arrivals[j].Release })
	return arrivals, nil
}
