package main

import (
	"context"
	"embed"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
)

// sweepNs are the tile counts of the paper-sweep workload: the paper's
// sweep up to N = 20, about 1.6 s per sweep on two 2020-era x86 cores.
// Larger N grows the cost steeply (N = 24 alone takes 2.4 s).
var sweepNs = []int{4, 8, 12, 16, 20}

// warmNs is the set-up sweep: the smallest cells, which page in the
// allocator and scheduler code before timing.
var warmNs = []int{4}

// golden holds copies of the repository's results/fig6.csv and
// results/fig7.csv, the full paper sweep (N = 4 … 64) at printed precision.
//
//go:embed golden/fig6.csv golden/fig7.csv
var golden embed.FS

// goldenRows returns the golden file's header and its rows for tile
// counts in ns, in file order (kernel-major, like the sweep's cells).
func goldenRows(name string, ns []int) ([]string, error) {
	raw, err := golden.ReadFile("golden/" + name)
	if err != nil {
		return nil, err
	}
	keep := map[string]bool{}
	for _, n := range ns {
		keep[strconv.Itoa(n)] = true
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	out := []string{lines[0]}
	for _, l := range lines[1:] {
		if f := strings.Split(l, ","); len(f) > 1 && keep[f[1]] {
			out = append(out, l)
		}
	}
	return out, nil
}

// sweepCheck compares one sweep's tables with the golden rows and returns
// how many rows differ.
type sweepCheck struct {
	fig6, fig7 []string
}

func newSweepCheck(ns []int) (*sweepCheck, error) {
	f6, err := goldenRows("fig6.csv", ns)
	if err != nil {
		return nil, err
	}
	f7, err := goldenRows("fig7.csv", ns)
	if err != nil {
		return nil, err
	}
	return &sweepCheck{fig6: f6, fig7: f7}, nil
}

func (c *sweepCheck) wrongRows(rows6 []expr.Fig6Row, rows7 []expr.Fig7Row) (int, []string) {
	var wrong int
	var why []string
	diff := func(want []string, got string) {
		lines := strings.Split(strings.TrimSpace(got), "\n")
		for i := 1; i < len(want) || i < len(lines); i++ {
			var w, g string
			if i < len(want) {
				w = want[i]
			}
			if i < len(lines) {
				g = lines[i]
			}
			if w != g || lines[0] != want[0] {
				wrong++
				why = append(why, fmt.Sprintf("row %q, golden %q", g, w))
			}
		}
	}
	diff(c.fig6, expr.Fig6Table(rows6).CSV())
	diff(c.fig7, expr.Fig7Table(rows7).CSV())
	return wrong, why
}

// sweepRun is the outcome of repeated paper sweeps.
type sweepRun struct {
	sweeps   []float64 // seconds per full sweep
	p50, p95 []float64 // per sweep: quantiles of its cells' latencies (ms)
	rssMB    []float64 // per sweep: peak resident set of this process
	cells    int
	wrong    int
}

// timedSweep runs one Fig6Pool + Fig7Pool sweep on p and appends its
// timings. The context carries a root span only so that the engine's
// existing per-cell spans report each cell's latency; the benchmark adds
// no span of its own here.
func (r *sweepRun) timedSweep(ctx context.Context, p *engine.Pool, check *sweepCheck, ns []int) ([]string, error) {
	tracer := obs.NewTracer(1)
	root := tracer.StartTrace("sweep")
	id := root.TraceID()
	cctx := obs.ContextWithSpan(ctx, root)
	pl := expr.PaperPlatform()
	t0 := time.Now()
	rows6, err := expr.Fig6Pool(cctx, p, ns, pl)
	if err != nil {
		root.End()
		return nil, err
	}
	rows7, err := expr.Fig7Pool(cctx, p, ns, pl)
	d := time.Since(t0)
	root.End()
	if err != nil {
		return nil, err
	}
	r.sweeps = append(r.sweeps, d.Seconds())
	var cellsMS []float64
	for _, sd := range tracer.Trace(id).Spans() {
		if sd.Name == "cell" {
			cellsMS = append(cellsMS, float64(sd.Duration())/float64(time.Millisecond))
		}
	}
	r.p50 = append(r.p50, quantile(cellsMS, 0.50))
	r.p95 = append(r.p95, quantile(cellsMS, 0.95))
	r.cells += len(rows6) + len(rows7)
	wrong, why := check.wrongRows(rows6, rows7)
	r.wrong += wrong
	return why, nil
}

// runPaperSweep measures full paper sweeps on an engine.Pool as wide as
// the machine. Set-up is the pool, the golden rows and one warm-up sweep
// of the smallest cells.
func runPaperSweep(ctx context.Context, cfg runConfig) (*result, error) {
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	var setups []float64
	var pool *engine.Pool
	var check *sweepCheck
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		pool = engine.NewPool(cfg.conns, nil)
		var err error
		if check, err = newSweepCheck(sweepNs); err != nil {
			return nil, err
		}
		warmCheck, err := newSweepCheck(warmNs)
		if err != nil {
			return nil, err
		}
		var warm sweepRun
		why, err := warm.timedSweep(ctx, pool, warmCheck, warmNs)
		if err != nil {
			return nil, err
		}
		if warm.wrong > 0 {
			report("wrong row", why)
			return nil, fmt.Errorf("warm-up sweep: %d rows differ from the golden files", warm.wrong)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.traced {
		return tracedSweep(ctx, cfg, pool, check)
	}

	var run sweepRun
	start := time.Now()
	for {
		sampler := startRSSSampler(os.Getpid(), 0)
		why, err := run.timedSweep(ctx, pool, check, sweepNs)
		peak, rssErr := sampler.medianPeakMB()
		if err != nil {
			return nil, err
		}
		if rssErr != nil {
			return nil, rssErr
		}
		run.rssMB = append(run.rssMB, peak)
		report("wrong row", why)
		last := time.Duration(run.sweeps[len(run.sweeps)-1] * float64(time.Second))
		if time.Since(start)+last > cfg.measure {
			break
		}
	}
	var total float64
	for _, s := range run.sweeps {
		total += s
	}
	res := &result{Correct: run.wrong == 0, Attempted: run.cells, Failed: run.wrong, Metrics: map[string]metric{}}
	res.set(endToEnd, "setup_s", median(setups))
	// Every sweep runs the same cells, so the pooled cell latencies form
	// one cluster per cell and a pooled quantile can fall between two of
	// them; the median over sweeps of each sweep's quantile does not.
	res.set(endToEnd, "latency_p50_ms", median(run.p50))
	res.set(endToEnd, "latency_p95_ms", median(run.p95))
	res.set(endToEnd, "capacity_rps", float64(run.cells)/total)
	res.set(endToEnd, "sweep_s", median(run.sweeps))
	res.set(endToEnd, "peak_rss_mb", median(run.rssMB))
	fmt.Fprintf(os.Stderr, "paper-sweep: %d sweeps of %d cells (N = %v) on %d workers\n",
		len(run.sweeps), run.cells/len(run.sweeps), sweepNs, pool.Width())
	return res, nil
}
