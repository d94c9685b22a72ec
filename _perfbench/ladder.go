package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/obs"
)

// ladder is one request class's cost ladder: the median time each layer
// takes per request, their sum, and the residual against the class's
// untraced end-to-end median. By construction sum + residual = e2e.
type ladder struct {
	class    string
	requests int
	e2eMS    float64
	rows     []ladderRow
	sumMS    float64
	residMS  float64
}

type ladderRow struct {
	layer    string
	medianMS float64 // median over the class's requests of the layer's time per request
	calls    float64 // calls per request
}

// buildLadder computes the ladder of the requests in reqs from their
// untraced end-to-end times (e2eMS[i] for request i) and the traced
// replay's spans. Layers are listed in the order they were first called.
func buildLadder(class string, reqs []int, e2eMS map[int]float64, spans []span) ladder {
	in := map[int]bool{}
	for _, i := range reqs {
		in[i] = true
	}
	var order []string
	perReq := map[string]map[int]float64{}
	calls := map[string]int{}
	for _, s := range spans {
		if !in[s.Req] {
			continue
		}
		if perReq[s.Layer] == nil {
			perReq[s.Layer] = map[int]float64{}
			order = append(order, s.Layer)
		}
		perReq[s.Layer][s.Req] += float64(s.Dur) / float64(time.Millisecond)
		calls[s.Layer]++
	}
	l := ladder{class: class, requests: len(reqs)}
	var e2e []float64
	for _, i := range reqs {
		e2e = append(e2e, e2eMS[i])
	}
	l.e2eMS = median(e2e)
	for _, layer := range order {
		vals := make([]float64, len(reqs))
		for k, i := range reqs {
			vals[k] = perReq[layer][i]
		}
		row := ladderRow{layer: layer, medianMS: median(vals), calls: float64(calls[layer]) / float64(len(reqs))}
		l.rows = append(l.rows, row)
		l.sumMS += row.medianMS
	}
	l.residMS = l.e2eMS - l.sumMS
	return l
}

func (l ladder) print(w io.Writer) {
	fmt.Fprintf(w, "\nladder %s: %d requests, untraced end-to-end median %.3f ms\n", l.class, l.requests, l.e2eMS)
	fmt.Fprintf(w, "  %-50s %12s %10s\n", "layer (public call)", "median ms", "calls/req")
	largest := -1
	for i, r := range l.rows {
		if largest < 0 || r.medianMS > l.rows[largest].medianMS {
			largest = i
		}
	}
	for i, r := range l.rows {
		mark := ""
		if i == largest {
			mark = "  <- largest"
		}
		fmt.Fprintf(w, "  %-50s %12.3f %10.2f%s\n", r.layer, r.medianMS, r.calls, mark)
	}
	fmt.Fprintf(w, "  %-50s %12.3f\n", "sum of layer medians", l.sumMS)
	fmt.Fprintf(w, "  %-50s %12.3f\n", "residual (HTTP, routing, cache, admission, render)", l.residMS)
	fmt.Fprintf(w, "  %-50s %12.3f\n", "end-to-end median = sum + residual", l.sumMS+l.residMS)
}

// layerDurs lists the durations of one layer's calls in unit, or per
// task in unit when perTask is set.
func layerDurs(spans []span, layer string, unit time.Duration, perTask bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer != layer {
			continue
		}
		v := float64(s.Dur) / float64(unit)
		if perTask {
			if s.Tasks == 0 {
				continue
			}
			v /= float64(s.Tasks)
		}
		out = append(out, v)
	}
	return out
}

func countCalls(spans []span, layers ...string) int {
	var n int
	for _, s := range spans {
		for _, l := range layers {
			if s.Layer == l {
				n++
			}
		}
	}
	return n
}

// setCallMetrics records the per-call layer metrics every traced run
// shares; a layer the workload never calls reads 0.
func setCallMetrics(res *result, spans []span, requests, graphs int) {
	med := func(layer string, unit time.Duration) float64 { return median(layerDurs(spans, layer, unit, false)) }
	perTask := func(layer string) float64 { return median(layerDurs(spans, layer, time.Nanosecond, true)) }
	res.set(perLayer, "bounds.dag_lower_refined_ms", med(layerRefined, time.Millisecond))
	res.set(perLayer, "bounds.dag_lower_ms", med(layerDAGLower, time.Millisecond))
	res.set(perLayer, "bounds.area_ms", med(layerArea, time.Millisecond))
	res.set(perLayer, "core.schedule_ns_per_task", perTask(layerCoreDAG))
	res.set(perLayer, "dag.priorities_us", med(layerPriorities, time.Microsecond))
	res.set(perLayer, "sched.dualhp_ms", med(layerDualHP, time.Millisecond))
	res.set(perLayer, "sched.heft_ms", med(layerHEFT, time.Millisecond))
	res.set(perLayer, "sim.validate_ns_per_task", perTask(layerValidate))
	res.set(perLayer, "obs.summarize_us", med(layerSummarize, time.Microsecond))
	res.set(perLayer, "trace.svg_us", med(layerSVG, time.Microsecond))
	res.set(perLayer, "workloads.build_us", med(layerBuild, time.Microsecond))
	res.set(perLayer, "serve.key_us", med(layerKey, time.Microsecond))

	// Waste counters, printed with their bases.
	builds := countCalls(spans, layerBuild, layerIndepTasks)
	boundCalls := countCalls(spans, layerRefined, layerDAGLower, layerArea, layerAreaBound)
	res.set(perLayer, "workloads.builds_per_request", float64(builds)/float64(requests))
	res.set(perLayer, "bounds.calls_per_graph", float64(boundCalls)/float64(graphs))
	fmt.Fprintf(os.Stderr, "\nwaste counters: workloads.builds_per_request = %d builds / %d requests; bounds.calls_per_graph = %d bound calls / %d distinct (graph, platform) inputs\n",
		builds, requests, boundCalls, graphs)
}

// writeSpans keeps the traced run's spans as a JSON file in dir.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "spans: %s (%d)\n", path, len(spans))
	return nil
}

// serverSplit is hpserve's own account of one request, in ms.
type serverSplit struct{ handlerMS, computeMS, forwardMS float64 }

// settle is the idle pause between the traced run's ladder measurements.
const settle = 50 * time.Millisecond

// tracedServe is the serve workloads' traced run. It sends the ladder
// sample to the server one request at a time (untraced end-to-end
// times), replays each request in-process with a span per layer call and
// again without spans (the tracing overhead), checks every served answer
// against the replay's, then runs shortened load phases for the
// /metrics deltas the layers without a public call report.
func tracedServe(ctx context.Context, cfg runConfig, spec serveSpec, srv *server, gen *generator) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	sample := spec.ladder
	replay := func(rec *recorder, i int, r request) (answer, error) {
		if spec.hit {
			return answer{}, replayHit(rec, i, r)
		}
		return replayMiss(rec, i, r)
	}
	// Each request is served, replayed with spans, and replayed without,
	// back to back, so all three see the machine in the same state. A
	// pause before each lets the garbage collector of the previous step's
	// process finish its background work, which otherwise slows the next
	// step on the shared cores.
	// /metrics scraped around each request give hpserve's own account of
	// it: handler time, compute-span time and, behind the router, the
	// forward time.
	rec := newRecorder()
	seq := make([]outcome, len(sample))
	bodies := make([][]byte, len(sample))
	answers := make([]answer, len(sample))
	served := make([]serverSplit, len(sample))
	var tracedWall, untracedWall time.Duration
	for i, r := range sample {
		time.Sleep(settle)
		before, err := scrape(ctx, gen.client, srv.base)
		if err != nil {
			return nil, err
		}
		seq[i], bodies[i] = gen.send(ctx, r, time.Now())
		after, err := scrape(ctx, gen.client, srv.base)
		if err != nil {
			return nil, err
		}
		served[i] = serverSplit{
			handlerMS: delta(before, after, "hp_latency_request_us_sum") / 1000,
			computeMS: delta(before, after, `hp_latency_phase_us_sum{phase="compute"}`) / 1000,
			forwardMS: delta(before, after, "hp_shard_forward_us_sum") / 1000,
		}
		time.Sleep(settle)
		t0 := time.Now()
		a, err := replay(rec, i, r)
		tracedWall += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.target(), err)
		}
		answers[i] = a
		time.Sleep(settle)
		t0 = time.Now()
		if _, err := replay(nil, i, r); err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.target(), err)
		}
		untracedWall += time.Since(t0)
	}
	if spec.hit {
		// A hit computes nothing; its answer is the miss that filled it.
		filled := map[request]answer{}
		for i, r := range sample {
			key := r
			key.JSON = true
			a, ok := filled[key]
			if !ok {
				var err error
				if a, err = replayMiss(nil, -1, key); err != nil {
					return nil, err
				}
				filled[key] = a
			}
			answers[i] = a
		}
	}
	var wrong []string
	e2e := map[int]float64{}
	graphs := map[string]bool{}
	for i, r := range sample {
		res.Attempted++
		if seq[i].failure != "" {
			res.Failed++
			wrong = append(wrong, r.target()+": "+seq[i].failure)
			continue
		}
		if err := sameAnswer(r, bodies[i], answers[i]); err != nil {
			res.Failed++
			wrong = append(wrong, err.Error())
		}
		e2e[i] = ms(seq[i].latency)
		graphs[r.graphID()] = true
	}
	report("wrong answer", wrong)
	if len(wrong) > 0 {
		res.Correct = false
	}

	ph, err := loadPhases(ctx, cfg, spec, srv, gen, spec.loadFrom, 0.3, 0.2)
	if err != nil {
		return nil, err
	}
	ph.tally(res)

	// Ladders, one per request class.
	classes := map[string][]int{}
	for i, r := range sample {
		c := r.class()
		if spec.hit {
			c = "hit"
		}
		classes[c] = append(classes[c], i)
	}
	var outside []float64 // e2e minus the server's handler (or forward) time
	for i := range sample {
		outside = append(outside, e2e[i]-max(served[i].handlerMS, served[i].forwardMS))
	}
	for _, c := range append(append([]string{}, missAlgs...), "compare", "hit") {
		reqs := classes[c]
		if reqs == nil {
			continue
		}
		buildLadder(spec.name+" "+c, reqs, e2e, rec.spans).print(os.Stderr)
		var handler, compute, forward, http []float64
		for _, i := range reqs {
			handler = append(handler, served[i].handlerMS)
			compute = append(compute, served[i].computeMS)
			forward = append(forward, served[i].forwardMS)
			http = append(http, outside[i])
		}
		fmt.Fprintf(os.Stderr, "  hpserve's own account (medians): handler %.3f ms, of it compute spans %.3f ms; router forward %.3f ms; HTTP and client %.3f ms\n",
			median(handler), median(compute), median(forward), median(http))
	}
	overhead := (tracedWall.Seconds()/untracedWall.Seconds() - 1) * 100
	fmt.Fprintf(os.Stderr, "\ntracing overhead: traced replay %.3f s, untraced replay %.3f s (%+.2f%%)\n",
		tracedWall.Seconds(), untracedWall.Seconds(), overhead)

	setCallMetrics(res, rec.spans, len(sample), len(graphs))
	var svgBytes []float64
	for i, a := range answers {
		if !sample[i].Compare {
			svgBytes = append(svgBytes, float64(a.svgBytes))
		}
	}
	res.set(perLayer, "trace.svg_bytes", median(svgBytes))
	res.set(perLayer, "http.residual_us", median(outside)*1000)
	res.set(perLayer, "obs.tracing_overhead_pct", overhead)
	ph.setServerMetrics(res)
	return res, writeSpans(cfg.spans, spec.name, cfg.seed, rec.spans)
}

// setServerMetrics records the layer metrics read from the server's own
// /metrics families and from the generator.
func (ph *phases) setServerMetrics(res *result) {
	b, a := ph.before, ph.after
	hits := delta(b, a, "hp_cache_hits_total")
	misses := delta(b, a, "hp_cache_misses_total")
	if hits+misses > 0 {
		res.set(perLayer, "serve.cache.hit_ratio", hits/(hits+misses))
	} else {
		res.set(perLayer, "serve.cache.hit_ratio", 0)
	}
	res.set(perLayer, "serve.cache.evictions", delta(b, a, "hp_cache_evictions_total"))
	_, coalesced := phaseMeanUS(b, a, "coalesce")
	res.set(perLayer, "serve.cache.coalesced", coalesced)
	admission, _ := phaseMeanUS(b, a, "admission")
	res.set(perLayer, "serve.admission.wait_us", admission)
	res.set(perLayer, "serve.admission.shed", delta(b, a, "hp_serve_shed_total"))
	res.set(perLayer, "serve.admission.deadline", delta(b, a, "hp_serve_deadline_exceeded_total"))
	workers := a["hp_pool_workers"]
	res.set(perLayer, "engine.busy_ratio", delta(b, a, "hp_pool_cell_busy_seconds_total")/(workers*ph.wall.Seconds()))
	cell, cells := phaseMeanUS(b, a, "cell")
	compute, _ := phaseMeanUS(b, a, "compute")
	if cells > 0 {
		res.set(perLayer, "engine.queue_wait_us", cell-compute)
	} else {
		res.set(perLayer, "engine.queue_wait_us", 0)
	}
	render, _ := phaseMeanUS(b, a, "render")
	res.set(perLayer, "hpserve.render_us", render)
	var bytes []float64
	for _, group := range [][]outcome{ph.open, ph.closed} {
		for _, o := range group {
			bytes = append(bytes, float64(o.bytes))
		}
	}
	res.set(perLayer, "hpserve.response_bytes", mean(bytes))
	fwd := delta(b, a, "hp_shard_forward_us_sum")
	if n := delta(b, a, "hp_shard_forward_us_count"); n > 0 {
		res.set(perLayer, "shard.forward_us", fwd/n)
	} else {
		res.set(perLayer, "shard.forward_us", 0)
	}
	res.set(perLayer, "shard.retries", delta(b, a, "hp_shard_retries_total"))
	res.set(perLayer, "load.lateness_ms", ph.latenessP99MS())
}

// tracedSweep is paper-sweep's traced run: one untraced sweep (the
// end-to-end reference and the pool's busy time), then the in-process
// replay of the same cells with a span per layer call.
func tracedSweep(ctx context.Context, cfg runConfig, pool *engine.Pool, check *sweepCheck) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var run sweepRun
	s0 := pool.Stats()
	why, err := run.timedSweep(ctx, pool, check, sweepNs)
	if err != nil {
		return nil, err
	}
	s1 := pool.Stats()
	wall := run.sweeps[0]
	width := float64(pool.Width())

	rec := newRecorder()
	tracer := obs.NewTracer(1)
	root := tracer.StartTrace("replay")
	id := root.TraceID()
	t0 := time.Now()
	rows6, rows7, exec, err := replaySweep(obs.ContextWithSpan(ctx, root), pool, rec, sweepNs, expr.PaperPlatform())
	tracedWall := time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return nil, err
	}
	wrong, whyReplay := check.wrongRows(rows6, rows7)
	report("wrong row", append(why, whyReplay...))
	res.Attempted = run.cells + len(rows6) + len(rows7)
	res.Failed = run.wrong + wrong
	res.Correct = res.Failed == 0

	var cellSpans, execMS []float64
	for _, sd := range tracer.Trace(id).Spans() {
		if sd.Name == "cell" {
			cellSpans = append(cellSpans, float64(sd.Duration())/float64(time.Microsecond))
		}
	}
	for _, d := range exec {
		execMS = append(execMS, float64(d)/float64(time.Microsecond))
	}

	// The sweep's ladder: layer time summed over cells is CPU time on
	// width workers; wall time minus its share per worker is the time
	// the pool's workers sat idle or ran code between the calls.
	fmt.Fprintf(os.Stderr, "\nladder paper-sweep: %d cells on %d workers, untraced sweep %.3f s\n", run.cells, pool.Width(), wall)
	fmt.Fprintf(os.Stderr, "  %-50s %12s %10s\n", "layer (public call)", "total s", "calls")
	totals := map[string]float64{}
	calls := map[string]int{}
	var order []string
	var sum float64
	for _, s := range rec.spans {
		if _, ok := totals[s.Layer]; !ok {
			order = append(order, s.Layer)
		}
		totals[s.Layer] += time.Duration(s.Dur).Seconds()
		calls[s.Layer]++
		sum += time.Duration(s.Dur).Seconds()
	}
	for _, l := range order {
		fmt.Fprintf(os.Stderr, "  %-50s %12.4f %10d\n", l, totals[l], calls[l])
	}
	fmt.Fprintf(os.Stderr, "  %-50s %12.4f\n", "sum of layer time", sum)
	fmt.Fprintf(os.Stderr, "  %-50s %12.4f\n", "sum / workers", sum/width)
	fmt.Fprintf(os.Stderr, "  %-50s %12.4f\n", "residual (imbalance, idle workers, glue)", wall-sum/width)
	overhead := (tracedWall/wall - 1) * 100
	fmt.Fprintf(os.Stderr, "\ntracing overhead: traced replay %.3f s, untraced sweep %.3f s (%+.2f%%)\n", tracedWall, wall, overhead)

	setCallMetrics(res, rec.spans, len(rows6)+len(rows7), len(rows7))
	for _, d := range []string{"trace.svg_bytes", "serve.cache.hit_ratio", "serve.cache.evictions", "serve.cache.coalesced",
		"serve.admission.wait_us", "serve.admission.shed", "serve.admission.deadline", "hpserve.render_us",
		"hpserve.response_bytes", "shard.forward_us", "shard.retries", "http.residual_us", "load.lateness_ms"} {
		res.set(perLayer, d, 0) // no HTTP, cache, router or generator on this workload
	}
	res.set(perLayer, "engine.busy_ratio", (s1.BusySeconds-s0.BusySeconds)/(width*wall))
	res.set(perLayer, "engine.queue_wait_us", mean(cellSpans)-mean(execMS))
	res.set(perLayer, "obs.tracing_overhead_pct", overhead)
	return res, writeSpans(cfg.spans, "paper-sweep", cfg.seed, rec.spans)
}
