package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"
)

// serveSpec is one serve workload.
type serveSpec struct {
	name string
	args []string // hpserve flags besides -addr and -canonical
	// rate is the open-loop offered rate of the traced run's load phases
	// in requests per second: about a third of what the closed-loop phase
	// serves.
	rate float64
	// limit is the latency limit of capacity_rps.
	limit time.Duration
	at    func(int) request
	block int
	// warm lists the requests set-up sends before timing (serve-hit).
	warm []request
	// ladder is the traced run's sample; loadFrom is the plan index its
	// load phases start at, past every key the sample uses.
	ladder   []request
	loadFrom int
	hit      bool
	// warmCount requests from plan index warmFrom on are sent after
	// set-up and before anything is timed.
	warmFrom, warmCount int
}

func serveSpecFor(name string, seed int64, tasks map[string]int) serveSpec {
	if name == "serve-hit" {
		p := newHitPlan(seed)
		return serveSpec{
			name: name, args: []string{"-mode=cluster", "-cluster-replicas", "2"},
			rate: 250, limit: 25 * time.Millisecond,
			at: p.at, block: p.blockSize(), warm: p.warmRequests(),
			ladder: p.ladderSample(), hit: true,
			warmCount: hitWarmBlocks * p.blockSize(),
		}
	}
	p := newMissPlan(seed, tasks)
	return serveSpec{
		name: name, rate: 8, limit: time.Second,
		at: p.at, block: p.blockSize(),
		ladder: p.ladderSample(), loadFrom: ladderBlocks * p.blockSize(),
		warmFrom: missWarmBlock * p.blockSize(), warmCount: missWarmRequests,
	}
}

// Before timing, each serve workload warms the server it measures. On a
// fresh hpserve the first ~100 misses ran 1.2–1.7× slower than later
// misses of the same class, while its heap and cache grew, and by how
// much varied from run to run.
const (
	// missWarmRequests misses are sent from plan block missWarmBlock on,
	// far past any block a run measures, so measured keys stay misses
	// (the 0-hit guard would catch an overlap).
	missWarmBlock    = 200
	missWarmRequests = 128
	// hitWarmBlocks blocks of hits (72 requests each) are sent after the
	// key warm-up of set-up.
	hitWarmBlocks = 10
)

// warmUp sends every request once over conns connections, checks each
// answer, and returns the bodies. A worker sends requests in consecutive
// pairs: when a pair is the JSON and HTML form of one key, the JSON form
// (the miss that computes it) goes before the HTML form (a hit).
func warmUp(ctx context.Context, g *generator, reqs []request) (map[request][]byte, error) {
	bodies := make(map[request][]byte, len(reqs))
	var mu sync.Mutex
	var firstErr error
	pairs := make(chan []request)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pair := range pairs {
				for _, r := range pair {
					status, body, err := g.fetch(ctx, r)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("status %d: %.200s", status, body)
					}
					if err == nil {
						err = g.check(r, body)
					}
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("warm-up %s: %w", r.target(), err)
					}
					bodies[r] = body
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < len(reqs); i += 2 {
		pairs <- reqs[i:min(i+2, len(reqs))]
	}
	close(pairs)
	wg.Wait()
	return bodies, firstErr
}

// runServe measures one serve workload against a real hpserve process.
func runServe(ctx context.Context, cfg runConfig, workload string) (*result, error) {
	tasks, err := taskCounts()
	if err != nil {
		return nil, err
	}
	spec := serveSpecFor(workload, cfg.seed, tasks)
	base := checkAnswer(tasks)

	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []float64
	var warm map[request][]byte
	reps := setupReps
	if cfg.traced {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		s, err := startServer(cfg.hpserve, spec.args...)
		if err != nil {
			return nil, err
		}
		if spec.warm != nil {
			g := newGenerator(s.base, cfg.conns, base)
			warm, err = warmUp(ctx, g, spec.warm)
			g.close()
			if err != nil {
				s.stop()
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	check := base
	if spec.hit {
		check = checkIdentical(warm)
	}
	gen := newGenerator(srv.base, cfg.conns, check)
	defer gen.close()
	warmReqs := make([]request, spec.warmCount)
	for i := range warmReqs {
		warmReqs[i] = spec.at(spec.warmFrom + i)
	}
	if _, err := warmUp(ctx, gen, warmReqs); err != nil {
		return nil, err
	}

	if cfg.traced {
		return tracedServe(ctx, cfg, spec, srv, gen)
	}

	sampler := startRSSSampler(srv.cmd.Process.Pid, 2*time.Second)
	// The whole measured time is one closed loop. An open loop at a fixed
	// rate timed latencies that queueing made swing with the shared
	// machine's speed: at a third of capacity its median and 95th
	// percentile on serve-miss both spread by 16% across ten seeds, where
	// the closed loop's spread by 9% and 6% in the same runs.
	ph, err := loadPhases(ctx, cfg, spec, srv, gen, 0, 0, 1)
	rss, rssErr := sampler.medianPeakMB()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	srv.stop()
	srv = nil

	res := &result{Correct: true, Metrics: map[string]metric{}}
	ph.tally(res)
	capacity, perBlock := ph.closedRates(spec.limit)
	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "latency_p50_ms", ph.closedQuantile(0.50))
	res.set(endToEnd, "latency_p95_ms", ph.closedQuantile(0.95))
	res.set(endToEnd, "capacity_rps", capacity)
	res.set(endToEnd, "sweep_s", float64(spec.block)/perBlock)
	res.set(endToEnd, "peak_rss_mb", rss)
	fmt.Fprintf(os.Stderr, "%s seed=%d: closed loop %d requests with %d clients in %.2fs\n",
		spec.name, cfg.seed, len(ph.closed), cfg.conns, ph.closedWall.Seconds())
	return res, nil
}

// phases is the outcome of one open-loop and one closed-loop phase, with
// the server's /metrics before and after them.
type phases struct {
	spec          serveSpec
	open, closed  []outcome
	closedStart   time.Time
	closedWall    time.Duration
	wall          time.Duration // both phases
	before, after metrics
}

// loadPhases runs the open-loop phase for openShare of the measured time
// at the spec's rate, then the closed-loop phase for closedShare of it,
// taking requests from the plan at index first onward.
func loadPhases(ctx context.Context, cfg runConfig, spec serveSpec, srv *server, gen *generator,
	first int, openShare, closedShare float64) (*phases, error) {
	ph := &phases{spec: spec}
	var err error
	if ph.before, err = scrape(ctx, gen.client, srv.base); err != nil {
		return nil, err
	}
	t0 := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	var next int
	ph.open, next = gen.openLoop(ctx, spec.rate, scale(cfg.measure, openShare), rng, spec.at, first)
	ph.closedStart = time.Now()
	ph.closed, ph.closedWall = gen.closedLoop(ctx, scale(cfg.measure, closedShare), spec.at, next)
	ph.wall = time.Since(t0)
	if ph.after, err = scrape(ctx, gen.client, srv.base); err != nil {
		return nil, err
	}
	return ph, nil
}

// tally counts attempts and failures and applies the validity guards:
// serve-miss must see no L1 hit, serve-hit nothing but L1 hits, and the
// open-loop generator must keep to its schedule.
func (ph *phases) tally(res *result) {
	var failures, wrong, guards []string
	for _, group := range [][]outcome{ph.open, ph.closed} {
		for _, o := range group {
			res.Attempted++
			if o.failure != "" {
				res.Failed++
				failures = append(failures, o.req.target()+": "+o.failure)
			}
			if o.wrong {
				wrong = append(wrong, o.req.target()+": "+o.failure)
			}
		}
	}
	hits := delta(ph.before, ph.after, "hp_cache_hits_total")
	misses := delta(ph.before, ph.after, "hp_cache_misses_total")
	if ph.spec.hit && (misses != 0 || hits == 0) {
		guards = append(guards, fmt.Sprintf("serve-hit must only hit L1 after warm-up: %.0f hits, %.0f misses", hits, misses))
	}
	if !ph.spec.hit && hits != 0 {
		guards = append(guards, fmt.Sprintf("serve-miss must never hit L1: %.0f hits, %.0f misses", hits, misses))
	}
	if late := ph.latenessP99MS(); late > maxLatenessMS {
		guards = append(guards, fmt.Sprintf("open-loop p99 lateness %.1f ms exceeds %d ms", late, maxLatenessMS))
	}
	report("failed", failures)
	report("wrong answer", wrong)
	report("invalid run", guards)
	if len(wrong) > 0 || len(guards) > 0 {
		res.Correct = false
	}
}

// closedSegments is how many equal time slices the closed-loop phase is
// cut into; its rates are the medians over the slices, so one slow
// stretch of a shared machine does not set the run's figure.
const closedSegments = 4

// closedRates returns the closed-loop phase's median, over its time
// slices, of OK answers within limit per second, and of all answers per
// second.
func (ph *phases) closedRates(limit time.Duration) (withinLimit, all float64) {
	seg := ph.closedWall / closedSegments
	ok := make([]float64, closedSegments)
	n := make([]float64, closedSegments)
	for _, o := range ph.closed {
		i := min(int(o.done.Sub(ph.closedStart)/seg), closedSegments-1)
		n[i]++
		if o.failure == "" && o.latency <= limit {
			ok[i]++
		}
	}
	for i := range ok {
		ok[i] /= seg.Seconds()
		n[i] /= seg.Seconds()
	}
	return median(ok), median(n)
}

// minSliceSamples is the fewest answers a time slice needs for its own
// 95th percentile: ten samples beyond it.
const minSliceSamples = 200

// closedQuantile returns the closed-loop latency quantile q in ms. When
// the phase has enough answers, it is cut into up to closedSegments
// slices in order of answering and the result is the median of the
// slices' quantiles, so one stall of a shared machine does not set the
// tail.
func (ph *phases) closedQuantile(q float64) float64 {
	k := max(1, min(closedSegments, len(ph.closed)/minSliceSamples))
	per := len(ph.closed) / k
	var qs []float64
	for s := 0; s < k; s++ {
		var lat []float64
		for _, o := range ph.closed[s*per : (s+1)*per] {
			lat = append(lat, ms(o.latency))
		}
		qs = append(qs, quantile(lat, q))
	}
	return median(qs)
}

func (ph *phases) latenessP99MS() float64 {
	var late []float64
	for _, o := range ph.open {
		late = append(late, ms(o.late))
	}
	return orZero(quantile(late, 0.99))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func scale(d time.Duration, share float64) time.Duration {
	return time.Duration(float64(d) * share)
}
