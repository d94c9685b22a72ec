package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// The traced run replays requests and sweep cells in-process, making the
// same public calls, on the same inputs and in the same order, as hpserve's
// request path (key derivation, executeRun, the Gantt render) and as
// expr.Fig6Pool/Fig7Pool, with one span around each call. The replay's
// answers are compared with the served or swept ones, which keeps the
// mirror honest.

// Layer names: the public call each span wraps.
const (
	layerBuild       = "workloads.Build"
	layerIndepTasks  = "workloads.IndependentTasks"
	layerKey         = "serve.KeyOf"
	layerPriorities  = "dag.AssignBottomLevelPriorities"
	layerCoreDAG     = "core.ScheduleDAG"
	layerDualHP      = "sched.DualHP"
	layerHEFT        = "sched.HEFT"
	layerIndep       = "expr.RunIndependent"
	layerValidate    = "sim.Schedule.Validate"
	layerRefined     = "bounds.DAGLowerRefined"
	layerDAGLower    = "bounds.DAGLower"
	layerArea        = "bounds.Area"
	layerAreaBound   = "bounds.AreaBound"
	layerSummarize   = "obs.Summarize"
	layerSVG         = "trace.SVG"
	layerFig7Metrics = "sim.Schedule.EquivalentAccel+NormalizedIdleTime"
)

// ganttWidth is the SVG width hpserve renders schedules at.
const ganttWidth = 1100

// span is one recorded call into a layer.
type span struct {
	Req   int    `json:"req"` // replayed request or sweep cell
	Layer string `json:"layer"`
	Start int64  `json:"start_ns"` // since the recorder's origin
	Dur   int64  `json:"dur_ns"`
	Tasks int    `json:"tasks,omitempty"`
}

// recorder keeps spans in memory. A nil recorder runs calls untimed: the
// untraced replay that measures the tracing overhead.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// call runs f as one span of layer on behalf of request req.
func (rec *recorder) call(req int, layer string, tasks int, f func() error) error {
	if rec == nil {
		return f()
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	rec.mu.Lock()
	rec.spans = append(rec.spans, span{Req: req, Layer: layer, Start: int64(t0.Sub(rec.origin)), Dur: int64(d), Tasks: tasks})
	rec.mu.Unlock()
	return err
}

// answer is what the replay computed for one request.
type answer struct {
	sum      obs.RunSummary   // /schedule
	rows     []obs.RunSummary // /compare
	svgBytes int
}

func schedLayer(alg string) string {
	switch {
	case strings.HasPrefix(alg, "DualHP"):
		return layerDualHP
	case strings.HasPrefix(alg, "HEFT"):
		return layerHEFT
	}
	return "expr.RunDAGObserved"
}

// runDAG mirrors expr.RunDAGObserved. HeteroPrio is split into its two
// calls so the priority pass and the event loop show separately.
func runDAG(rec *recorder, id int, alg string, g *dag.Graph, pl platform.Platform) (*sim.Schedule, error) {
	var w dag.Weighting
	switch alg {
	case "HeteroPrio-min":
		w = dag.WeightMin
	case "HeteroPrio-avg":
		w = dag.WeightAvg
	default:
		var s *sim.Schedule
		err := rec.call(id, schedLayer(alg), g.Len(), func() (err error) {
			s, err = expr.RunDAGObserved(alg, g, pl, nil)
			return err
		})
		return s, err
	}
	if err := rec.call(id, layerPriorities, g.Len(), func() error {
		_, err := g.AssignBottomLevelPriorities(w, pl)
		return err
	}); err != nil {
		return nil, err
	}
	var res core.Result
	err := rec.call(id, layerCoreDAG, g.Len(), func() (err error) {
		res, err = core.ScheduleDAG(g, pl, core.Options{UsePriorities: true})
		return err
	})
	return res.Schedule, err
}

func build(rec *recorder, id int, workload string, n int) (*dag.Graph, error) {
	var g *dag.Graph
	err := rec.call(id, layerBuild, 0, func() (err error) {
		g, err = workloads.Build(workloads.Factorization(workload), n)
		return err
	})
	return g, err
}

// replayKey mirrors hpserve's request-key derivation (requestKeyFor).
func replayKey(rec *recorder, id int, r request) error {
	g, err := build(rec, id, r.Workload, r.N)
	if err != nil {
		return err
	}
	return rec.call(id, layerKey, g.Len(), func() error {
		serve.KeyOf(g.Tasks(), r.platform(), r.keyLabel(), serveSeedParam,
			"workload="+r.Workload, "n="+strconv.Itoa(r.N))
		return nil
	})
}

// replayRun mirrors hpserve's executeRun for one algorithm.
func replayRun(rec *recorder, id int, r request, alg string) (*sim.Schedule, obs.RunSummary, error) {
	pl := r.platform()
	g, err := build(rec, id, r.Workload, r.N)
	if err != nil {
		return nil, obs.RunSummary{}, err
	}
	s, err := runDAG(rec, id, alg, g, pl)
	if err != nil {
		return nil, obs.RunSummary{}, err
	}
	if err := rec.call(id, layerValidate, g.Len(), func() error { return s.Validate(g.Tasks(), g) }); err != nil {
		return nil, obs.RunSummary{}, err
	}
	var lower float64
	if err := rec.call(id, layerRefined, g.Len(), func() (err error) {
		lower, err = bounds.DAGLowerRefined(g, pl)
		return err
	}); err != nil {
		return nil, obs.RunSummary{}, err
	}
	var sum obs.RunSummary
	_ = rec.call(id, layerSummarize, g.Len(), func() error {
		sum = obs.Summarize(s, g.Tasks(), lower)
		return nil
	})
	sum.Workload, sum.Alg, sum.N = r.Workload, alg, r.N
	return s, sum, nil
}

// replayMiss mirrors a cache miss: the key, then one run per algorithm
// (seven on /compare, one after another as hpserve runs them on a
// two-wide pool), then the Gantt SVG on /schedule.
func replayMiss(rec *recorder, id int, r request) (answer, error) {
	if err := replayKey(rec, id, r); err != nil {
		return answer{}, err
	}
	if r.Compare {
		var a answer
		for _, alg := range expr.DAGAlgorithms() {
			_, sum, err := replayRun(rec, id, r, alg)
			if err != nil {
				return answer{}, err
			}
			a.rows = append(a.rows, sum)
		}
		return a, nil
	}
	s, sum, err := replayRun(rec, id, r, r.Alg)
	if err != nil {
		return answer{}, err
	}
	a := answer{sum: sum}
	_ = rec.call(id, layerSVG, len(s.Entries), func() error {
		a.svgBytes = len(trace.SVG(s, ganttWidth))
		return nil
	})
	return a, nil
}

// replayHit mirrors a hit behind the router: the router derives the key
// to pick a replica, and the replica derives it again for its cache.
func replayHit(rec *recorder, id int, r request) error {
	if err := replayKey(rec, id, r); err != nil {
		return err
	}
	return replayKey(rec, id, r)
}

// sameAnswer compares a served body with the replay's answer: every
// summary field in JSON, and the printed table cells in HTML.
func sameAnswer(r request, body []byte, a answer) error {
	want := a.rows
	if !r.Compare {
		want = []obs.RunSummary{a.sum}
	}
	if r.JSON {
		var got []obs.RunSummary
		if r.Compare {
			var payload struct {
				Rows []obs.RunSummary `json:"rows"`
			}
			if err := json.Unmarshal(body, &payload); err != nil {
				return err
			}
			got = payload.Rows
		} else {
			var sum obs.RunSummary
			if err := json.Unmarshal(body, &sum); err != nil {
				return err
			}
			got = []obs.RunSummary{sum}
		}
		for i := range got {
			got[i].When = time.Time{}
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: served summary %+v, in-process %+v", r.target(), got, want)
		}
		return nil
	}
	if r.Compare {
		rows := htmlCompareRow.FindAllSubmatch(body, -1)
		if len(rows) != len(want) {
			return fmt.Errorf("%s: %d HTML rows, in-process %d", r.target(), len(rows), len(want))
		}
		for i, m := range rows {
			w := want[i]
			if string(m[1]) != w.Alg || string(m[2]) != fmt.Sprintf("%.2f", w.Makespan) || string(m[3]) != fmt.Sprintf("%.3f", w.Ratio) {
				return fmt.Errorf("%s: HTML row %q, in-process %s %.2f %.3f", r.target(), m[0], w.Alg, w.Makespan, w.Ratio)
			}
		}
		return nil
	}
	m := htmlRunRow.FindSubmatch(body)
	w := want[0]
	if m == nil || string(m[1]) != strconv.Itoa(w.Tasks) || string(m[2]) != fmt.Sprintf("%.2f", w.Makespan) ||
		string(m[3]) != fmt.Sprintf("%.2f", w.LowerBound) || string(m[4]) != fmt.Sprintf("%.3f", w.Ratio) {
		return fmt.Errorf("%s: HTML result row %q, in-process %d %.2f %.2f %.3f", r.target(), m, w.Tasks, w.Makespan, w.LowerBound, w.Ratio)
	}
	return nil
}

// sweepCell is one (kernel family, tile count) cell, in the order
// expr's sweeps enumerate them.
type sweepCell struct {
	fact workloads.Factorization
	n    int
}

func sweepCells(ns []int) []sweepCell {
	var out []sweepCell
	for _, f := range workloads.Factorizations() {
		for _, n := range ns {
			out = append(out, sweepCell{f, n})
		}
	}
	return out
}

// replayFig6Cell mirrors one cell of expr.Fig6Pool.
func replayFig6Cell(rec *recorder, id int, c sweepCell, pl platform.Platform) (expr.Fig6Row, error) {
	var in platform.Instance
	if err := rec.call(id, layerIndepTasks, 0, func() (err error) {
		in, err = workloads.IndependentTasks(c.fact, c.n)
		return err
	}); err != nil {
		return expr.Fig6Row{}, err
	}
	var lb float64
	if err := rec.call(id, layerAreaBound, len(in), func() (err error) {
		lb, err = bounds.AreaBound(in, pl)
		return err
	}); err != nil {
		return expr.Fig6Row{}, err
	}
	row := expr.Fig6Row{Kernel: c.fact, N: c.n, Tasks: len(in), AreaBound: lb, Ratio: map[string]float64{}}
	for _, alg := range expr.IndepAlgorithms() {
		var s *sim.Schedule
		if err := rec.call(id, layerIndep+"("+alg+")", len(in), func() (err error) {
			s, err = expr.RunIndependent(alg, in, pl)
			return err
		}); err != nil {
			return expr.Fig6Row{}, err
		}
		if err := rec.call(id, layerValidate, len(in), func() error { return s.Validate(in, nil) }); err != nil {
			return expr.Fig6Row{}, err
		}
		row.Ratio[alg] = s.Makespan() / lb
	}
	return row, nil
}

// replayFig7Cell mirrors one cell of expr.Fig7Pool.
func replayFig7Cell(rec *recorder, id int, c sweepCell, pl platform.Platform) (expr.Fig7Row, error) {
	g, err := build(rec, id, string(c.fact), c.n)
	if err != nil {
		return expr.Fig7Row{}, err
	}
	var lb float64
	if err := rec.call(id, layerDAGLower, g.Len(), func() (err error) {
		lb, err = bounds.DAGLower(g, pl)
		return err
	}); err != nil {
		return expr.Fig7Row{}, err
	}
	var area bounds.AreaSolution
	if err := rec.call(id, layerArea, g.Len(), func() (err error) {
		area, err = bounds.Area(g.Tasks(), pl)
		return err
	}); err != nil {
		return expr.Fig7Row{}, err
	}
	usage := map[platform.Kind]float64{}
	for _, t := range g.Tasks() {
		x := area.CPUFraction[t.ID]
		usage[platform.CPU] += x * t.CPUTime
		usage[platform.GPU] += (1 - x) * t.GPUTime
	}
	row := expr.Fig7Row{
		Kernel: c.fact, N: c.n, Tasks: g.Len(), Lower: lb,
		Ratio:      map[string]float64{},
		EquivAccel: map[string]map[platform.Kind]float64{},
		NormIdle:   map[string]map[platform.Kind]float64{},
	}
	for _, alg := range expr.DAGAlgorithms() {
		s, err := runDAG(rec, id, alg, g, pl)
		if err != nil {
			return expr.Fig7Row{}, err
		}
		if err := rec.call(id, layerValidate, g.Len(), func() error { return s.Validate(g.Tasks(), g) }); err != nil {
			return expr.Fig7Row{}, err
		}
		row.Ratio[alg] = s.Makespan() / lb
		_ = rec.call(id, layerFig7Metrics, g.Len(), func() error {
			row.EquivAccel[alg] = map[platform.Kind]float64{
				platform.CPU: s.EquivalentAccel(g.Tasks(), platform.CPU),
				platform.GPU: s.EquivalentAccel(g.Tasks(), platform.GPU),
			}
			row.NormIdle[alg] = map[platform.Kind]float64{
				platform.CPU: s.NormalizedIdleTime(platform.CPU, usage[platform.CPU]),
				platform.GPU: s.NormalizedIdleTime(platform.GPU, usage[platform.GPU]),
			}
			return nil
		})
	}
	return row, nil
}

// replaySweep mirrors one paper sweep (Fig6Pool then Fig7Pool) on p.
// Fig6 cells are requests 0..k-1 and Fig7 cells k..2k-1. It also returns
// each cell's execution time, which the engine's cell span exceeds by the
// time the cell waited for a pool slot.
func replaySweep(ctx context.Context, p *engine.Pool, rec *recorder, ns []int, pl platform.Platform) ([]expr.Fig6Row, []expr.Fig7Row, []time.Duration, error) {
	cells := sweepCells(ns)
	exec := make([]time.Duration, 2*len(cells))
	rows6, err := engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (expr.Fig6Row, error) {
		t0 := time.Now()
		defer func() { exec[c.Index] = time.Since(t0) }()
		return replayFig6Cell(rec, c.Index, cells[c.Index], pl)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rows7, err := engine.Map(ctx, p, engine.Job{Cells: len(cells)}, func(_ context.Context, c engine.Cell) (expr.Fig7Row, error) {
		t0 := time.Now()
		defer func() { exec[len(cells)+c.Index] = time.Since(t0) }()
		return replayFig7Cell(rec, len(cells)+c.Index, cells[c.Index], pl)
	})
	return rows6, rows7, exec, err
}
