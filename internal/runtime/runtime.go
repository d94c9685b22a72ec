// Package runtime is a real-time task-based runtime system driven by the
// HeteroPrio scheduling policy — the "practical implementation in a
// runtime system" the paper's conclusion announces, in miniature. It
// executes task graphs of real Go closures on two pools of worker
// goroutines (the "CPU" and "GPU" classes of the model; on a laptop both
// are OS threads, with the class distinction carried by which kernel
// implementation a task runs — see the realcholesky example).
//
// Scheduling follows Algorithm 1 online: ready tasks enter the two-ended
// acceleration-factor queue, GPU-class workers pull from the front,
// CPU-class workers from the back, and an idle worker with an empty queue
// spoliates a task running on the other class if its *estimated*
// completion would improve. Spoliation is cooperative: the victim's
// cancel flag is raised, its kernel abandons the run at the next poll,
// the task's inputs are restored (Reset hook) and the task restarts on
// the spoliating worker. Unlike the simulator, decisions use estimated
// durations but the trace records measured wall-clock times.
package runtime

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/cancel"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Task is a unit of real work with per-class duration estimates.
type Task struct {
	// Name labels the task in traces.
	Name string
	// EstCPU and EstGPU are the estimated durations (seconds) on each
	// class; their ratio is the acceleration factor used by the policy.
	EstCPU, EstGPU float64
	// Run executes the task on the given class. It must poll flag and
	// return false promptly once cancelled (partial effects are allowed).
	// Returning an error aborts the whole execution.
	Run func(kind platform.Kind, flag *cancel.Flag) (completed bool, err error)
	// Prepare, if non-nil, is called (from the coordinator goroutine)
	// right before the task's first dispatch — typically to snapshot the
	// inputs the task mutates in place.
	Prepare func()
	// Reset, if non-nil, is called before a re-dispatch after a cancelled
	// run — typically to restore the Prepare snapshot.
	Reset func()
}

// Graph is a DAG of runtime tasks.
type Graph struct {
	d     *dag.Graph
	tasks []Task
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{d: dag.New()} }

// Add appends a task and returns its ID.
func (g *Graph) Add(t Task) int {
	id := g.d.AddTask(platform.Task{
		Name:    t.Name,
		CPUTime: t.EstCPU,
		GPUTime: t.EstGPU,
	})
	g.tasks = append(g.tasks, t)
	return id
}

// AddDep declares that task u must complete before task v starts.
func (g *Graph) AddDep(u, v int) { g.d.AddEdge(u, v) }

// Len returns the number of tasks.
func (g *Graph) Len() int { return g.d.Len() }

// Config parameterizes an execution.
type Config struct {
	// CPUWorkers and GPUWorkers are the pool sizes (both classes are
	// goroutines; the class only selects queue end and estimates).
	CPUWorkers, GPUWorkers int
	// DisableSpoliation turns cooperative spoliation off.
	DisableSpoliation bool
	// UsePriorities assigns min-weight bottom levels as priorities and
	// uses them for tie-breaking, as in the paper's best configuration.
	UsePriorities bool
	// Clock is the time source for timestamps and spoliation estimates.
	// Nil means the wall clock; tests and replays inject a clock.Manual
	// so live runs observe deterministic timestamps.
	Clock clock.Clock
	// Observer, if non-nil, receives the same scheduling events the
	// simulator's loops emit (queue entries, dispatches, spoliations,
	// completions), with times in measured milliseconds since the
	// execution's epoch. All emission sites are nil-guarded, so a nil
	// Observer costs nothing. Events fire from the coordinator goroutine
	// in measured-time order.
	Observer obs.Observer
}

// Report is the outcome of an execution.
type Report struct {
	// Wall is the measured makespan.
	Wall time.Duration
	// Trace holds the measured runs (times in seconds from start),
	// including aborted (spoliated) attempts. Durations are measured, so
	// Trace must not be validated against the estimate instance.
	Trace *sim.Schedule
	// Spoliations is the number of cancelled runs.
	Spoliations int
}

type job struct {
	id   int
	t    Task
	flag *cancel.Flag
}

type completion struct {
	worker     int
	id         int
	start, end time.Duration
	completed  bool
	err        error
}

// Run executes the graph and blocks until every task has completed.
func Run(g *Graph, cfg Config) (*Report, error) {
	pl := platform.Platform{CPUs: cfg.CPUWorkers, GPUs: cfg.GPUWorkers}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	if err := g.d.Validate(); err != nil {
		return nil, err
	}
	for id, t := range g.tasks {
		if t.Run == nil {
			return nil, fmt.Errorf("runtime: task %d (%s) has no Run function", id, t.Name)
		}
	}
	if cfg.UsePriorities {
		if _, err := g.d.AssignBottomLevelPriorities(dag.WeightMin, pl); err != nil {
			return nil, err
		}
	}

	clk := cfg.Clock
	if clk == nil {
		clk = clock.Wall{}
	}
	epoch := clk.Now()
	jobs := make([]chan job, pl.Workers())
	done := make(chan completion, pl.Workers())
	for w := 0; w < pl.Workers(); w++ {
		jobs[w] = make(chan job, 1)
		go func(w int, kind platform.Kind) {
			for j := range jobs[w] {
				start := clk.Since(epoch)
				completed, err := j.t.Run(kind, j.flag)
				done <- completion{
					worker: w, id: j.id,
					start: start, end: clk.Since(epoch),
					completed: completed, err: err,
				}
			}
		}(w, pl.KindOf(w))
	}
	defer func() {
		for _, ch := range jobs {
			close(ch)
		}
	}()

	// Coordinator state. running[w] is worker w's active run (nil when
	// none); its sim.Running carries the estimated completion, in seconds
	// since the epoch, that the spoliation rule compares.
	rt := dag.NewReadyTracker(g.d)
	queue := core.NewQueue(cfg.UsePriorities)
	type runInfo struct {
		run  sim.Running
		flag *cancel.Flag
	}
	running := make([]*runInfo, pl.Workers())
	idle := make([]bool, pl.Workers())
	for w := range idle {
		idle[w] = true
	}
	prepared := make([]bool, g.Len())
	trace := &sim.Schedule{Platform: pl}
	spoliations := 0

	// ms converts a duration since the epoch into the observer time unit
	// (measured milliseconds — the live counterpart of the simulated clock).
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	dispatch := func(w, id int, spol bool) {
		t := g.tasks[id]
		if !prepared[id] {
			if t.Prepare != nil {
				t.Prepare()
			}
			prepared[id] = true
		} else if t.Reset != nil {
			t.Reset()
		}
		flag := &cancel.Flag{}
		task, kind := g.d.Task(id), pl.KindOf(w)
		now := clk.Since(epoch)
		estEnd := now + time.Duration(task.Time(kind)*float64(time.Second))
		running[w] = &runInfo{
			run: sim.Running{
				Worker: w, Task: task, Start: now.Seconds(),
				EstEnd: estEnd.Seconds(), Spoliation: spol,
			},
			flag: flag,
		}
		idle[w] = false
		if o := cfg.Observer; o != nil {
			o.TaskStarted(ms(now), w, kind, task, ms(estEnd), spol)
		}
		jobs[w] <- job{id: id, t: t, flag: flag}
	}

	// reservedBy maps a victim worker to the worker waiting to restart
	// its task after the cooperative abort.
	reservedBy := make(map[int]int) // victim worker -> spoliating worker
	victims := make([]sim.Running, 0, pl.Workers())

	// trySpoliate applies the simulator's spoliation rule (core.Victim) to
	// the runs on the other class that are not already being spoliated.
	// The improvement must exceed one nanosecond, the clock's resolution.
	trySpoliate := func(w int) bool {
		if cfg.DisableSpoliation {
			return false
		}
		kind := pl.KindOf(w)
		victims = victims[:0]
		for vw, info := range running {
			if _, taken := reservedBy[vw]; info != nil && !taken && pl.KindOf(vw) != kind {
				victims = append(victims, info.run)
			}
		}
		i := core.Victim(victims, kind, clk.Since(epoch).Seconds(), 1e-9)
		if i < 0 {
			return false
		}
		vw := victims[i].Worker
		running[vw].flag.Cancel()
		reservedBy[vw] = w
		idle[w] = false
		return true
	}

	assign := func() {
		for {
			progress := false
			for _, kind := range []platform.Kind{platform.GPU, platform.CPU} {
				for _, w := range pl.WorkersOf(kind) {
					if !idle[w] {
						continue
					}
					t, ok := queue.Pick(w, kind)
					if !ok {
						break
					}
					dispatch(w, t.ID, false)
					progress = true
				}
			}
			if queue.Len() == 0 {
				for _, kind := range []platform.Kind{platform.GPU, platform.CPU} {
					for _, w := range pl.WorkersOf(kind) {
						if idle[w] && trySpoliate(w) {
							progress = true
						}
					}
				}
			}
			if !progress {
				return
			}
		}
	}

	for _, id := range rt.Drain() {
		queue.Push(g.d.Task(id))
		if o := cfg.Observer; o != nil {
			o.TaskQueued(ms(clk.Since(epoch)), g.d.Task(id), queue.Len())
		}
	}
	assign()
	if o := cfg.Observer; o != nil {
		o.QueueDepthSample(ms(clk.Since(epoch)), queue.Len())
	}

	for !rt.Done() {
		if !slices.ContainsFunc(running, func(r *runInfo) bool { return r != nil }) {
			return nil, fmt.Errorf("runtime: stalled with %d tasks remaining", rt.Remaining())
		}
		c := <-done
		info := running[c.worker]
		running[c.worker] = nil
		idle[c.worker] = true
		if c.err != nil {
			return nil, fmt.Errorf("runtime: task %d (%s): %w", c.id, g.tasks[c.id].Name, c.err)
		}
		kind := pl.KindOf(c.worker)
		entry := sim.Entry{
			TaskID: c.id, Worker: c.worker, Kind: kind,
			Start: c.start.Seconds(), End: c.end.Seconds(),
			Spoliation: info.run.Spoliation,
		}
		if c.completed {
			rt.Complete(c.id)
			if o := cfg.Observer; o != nil {
				o.TaskCompleted(ms(c.end), c.worker, kind, g.d.Task(c.id), ms(c.start))
			}
			for _, nid := range rt.Drain() {
				queue.Push(g.d.Task(nid))
				if o := cfg.Observer; o != nil {
					o.TaskQueued(ms(c.end), g.d.Task(nid), queue.Len())
				}
			}
			// A completion that won the race against its own spoliation
			// frees the reserver.
			if sw, ok := reservedBy[c.worker]; ok {
				delete(reservedBy, c.worker)
				idle[sw] = true
			}
		} else {
			// Cooperatively aborted: record and hand the task to the
			// spoliating worker.
			entry.Aborted = true
			spoliations++
			sw, ok := reservedBy[c.worker]
			if !ok {
				return nil, fmt.Errorf("runtime: task %d aborted with no spoliating worker", c.id)
			}
			delete(reservedBy, c.worker)
			idle[sw] = true
			if o := cfg.Observer; o != nil {
				o.TaskSpoliated(ms(c.end), c.worker, sw, g.d.Task(c.id), ms(c.end-c.start))
			}
			trace.Entries = append(trace.Entries, entry)
			dispatch(sw, c.id, true)
			assign()
			continue
		}
		trace.Entries = append(trace.Entries, entry)
		assign()
		if o := cfg.Observer; o != nil {
			o.QueueDepthSample(ms(clk.Since(epoch)), queue.Len())
		}
	}

	return &Report{
		Wall:        clk.Since(epoch),
		Trace:       trace,
		Spoliations: spoliations,
	}, nil
}
