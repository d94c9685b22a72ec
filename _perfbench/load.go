package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// outcome is one answered (or failed) request.
type outcome struct {
	req     request
	latency time.Duration // from the scheduled send (open loop) or the send
	done    time.Time     // when the answer (or failure) arrived
	late    time.Duration // open loop: dispatch time minus scheduled time
	bytes   int
	failure string // "" when the answer is OK and correct
	wrong   bool   // the answer arrived but failed its check
}

// checker validates one answer body; a non-nil error marks it wrong.
type checker func(r request, body []byte) error

// generator drives one hpserve target from this process over at most
// conns connections.
type generator struct {
	base   string
	client *http.Client
	conns  int
	check  checker
}

func newGenerator(base string, conns int, check checker) *generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &generator{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		conns:  conns,
		check:  check,
	}
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// fetch sends one request and returns its status and body.
func (g *generator) fetch(ctx context.Context, r request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+r.target(), nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// send performs one request and classifies its answer.
func (g *generator) send(ctx context.Context, r request, scheduled time.Time) (outcome, []byte) {
	status, body, err := g.fetch(ctx, r)
	now := time.Now()
	o := outcome{req: r, latency: now.Sub(scheduled), done: now, bytes: len(body)}
	switch {
	case err != nil:
		o.failure = err.Error()
	case status != http.StatusOK:
		o.failure = fmt.Sprintf("status %d: %.200s", status, body)
	default:
		if err := g.check(r, body); err != nil {
			o.failure, o.wrong = err.Error(), true
		}
	}
	return o, body
}

// openLoop sends requests at Poisson arrival times of the given rate for
// dur, taking them from at(first), at(first+1), …. Arrival times are drawn
// from rng, so they are a pure function of its seed. Each latency is
// timed from the scheduled send, so a request that waits for a free
// connection is charged for the wait. It returns the outcomes in plan
// order and the index of the next unused request.
func (g *generator) openLoop(ctx context.Context, rate float64, dur time.Duration, rng *rand.Rand,
	at func(int) request, first int) ([]outcome, int) {
	// A Poisson process conditioned on its count: rate×dur arrivals at
	// sorted uniform times. Every run offers the same number of requests;
	// only their spacing varies with the seed.
	offsets := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(offsets, func(a, b int) bool { return offsets[a] < offsets[b] })
	type job struct {
		i         int
		scheduled time.Time
		late      time.Duration
	}
	out := make([]outcome, len(offsets))
	jobs := make(chan job, len(offsets)) // sized to the arrivals: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o, _ := g.send(ctx, at(first+j.i), j.scheduled)
				o.late = j.late
				out[j.i] = o
			}
		}()
	}
	start := time.Now()
	for i, off := range offsets {
		scheduled := start.Add(off)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, scheduled: scheduled, late: time.Since(scheduled)}
	}
	close(jobs)
	wg.Wait()
	return out, first + len(offsets)
}

// closedLoop runs g.conns clients that each send their next request as
// soon as the previous one is answered, until dur has passed. Requests
// come from at(first), at(first+1), … in order of sending. It returns the
// outcomes and the wall time until the last answer.
func (g *generator) closedLoop(ctx context.Context, dur time.Duration, at func(int) request, first int) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []outcome
	start := time.Now()
	stop := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				o, _ := g.send(ctx, at(first+i), time.Now())
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// Answer checks. A JSON answer must report the built graph's task count
// and makespan ≥ lower bound > 0; an HTML answer must print the same
// facts in its result table (and carry the Gantt SVG on /schedule).

var (
	htmlRunRow     = regexp.MustCompile(`<tr><td>[^<]*</td><td>(\d+)</td><td>([0-9.]+)</td><td>([0-9.]+)</td>\s*<td>([0-9.]+)</td>`)
	htmlCompareRow = regexp.MustCompile(`<tr><td style="text-align:left">([^<]+)</td><td>([0-9.]+)</td>\s*<td>([0-9.]+)</td>`)
)

// checkAnswer validates an answer against the request alone.
func checkAnswer(tasks map[string]int) checker {
	return func(r request, body []byte) error {
		want, ok := tasks[r.Workload+"/"+strconv.Itoa(r.N)]
		if !ok {
			return fmt.Errorf("no task count for %s n=%d", r.Workload, r.N)
		}
		switch {
		case r.JSON && r.Compare:
			var payload struct {
				Rows []obs.RunSummary `json:"rows"`
			}
			if err := json.Unmarshal(body, &payload); err != nil {
				return fmt.Errorf("compare JSON: %w", err)
			}
			algs := expr.DAGAlgorithms()
			if len(payload.Rows) != len(algs) {
				return fmt.Errorf("compare JSON: %d rows, want %d", len(payload.Rows), len(algs))
			}
			for i, row := range payload.Rows {
				if row.Alg != algs[i] {
					return fmt.Errorf("compare JSON row %d: alg %q, want %q", i, row.Alg, algs[i])
				}
				if err := checkSummary(row, r, want); err != nil {
					return err
				}
			}
		case r.JSON:
			var sum obs.RunSummary
			if err := json.Unmarshal(body, &sum); err != nil {
				return fmt.Errorf("schedule JSON: %w", err)
			}
			if sum.Alg != r.Alg {
				return fmt.Errorf("schedule JSON: alg %q, want %q", sum.Alg, r.Alg)
			}
			return checkSummary(sum, r, want)
		case r.Compare:
			rows := htmlCompareRow.FindAllSubmatch(body, -1)
			algs := expr.DAGAlgorithms()
			if len(rows) != len(algs) {
				return fmt.Errorf("compare HTML: %d rows, want %d", len(rows), len(algs))
			}
			for i, m := range rows {
				makespan, _ := strconv.ParseFloat(string(m[2]), 64)
				ratio, _ := strconv.ParseFloat(string(m[3]), 64)
				if string(m[1]) != algs[i] || makespan <= 0 || ratio < 1 {
					return fmt.Errorf("compare HTML row %d: %s", i, m[0])
				}
			}
		default:
			m := htmlRunRow.FindSubmatch(body)
			if m == nil {
				return fmt.Errorf("schedule HTML: no result row")
			}
			n, _ := strconv.Atoi(string(m[1]))
			makespan, _ := strconv.ParseFloat(string(m[2]), 64)
			lower, _ := strconv.ParseFloat(string(m[3]), 64)
			if n != want || lower <= 0 || makespan < lower {
				return fmt.Errorf("schedule HTML: tasks %d (want %d), makespan %v, lower bound %v", n, want, makespan, lower)
			}
			if !bytes.Contains(body, []byte("<svg")) {
				return fmt.Errorf("schedule HTML: no Gantt SVG")
			}
		}
		return nil
	}
}

func checkSummary(s obs.RunSummary, r request, tasks int) error {
	if s.Tasks != tasks || s.LowerBound <= 0 || s.Makespan < s.LowerBound ||
		s.Workload != r.Workload || s.N != r.N || s.CPUs != r.CPUs || s.GPUs != r.GPUs {
		return fmt.Errorf("%s %s n=%d %dc/%dg: summary tasks=%d (want %d) makespan=%v lower=%v for %s n=%d %dc/%dg",
			r.path(), s.Alg, r.N, r.CPUs, r.GPUs, s.Tasks, tasks, s.Makespan, s.LowerBound, s.Workload, s.N, s.CPUs, s.GPUs)
	}
	return nil
}

// checkIdentical accepts only the body recorded for the request at
// warm-up, after that body passed base.
func checkIdentical(warm map[request][]byte) checker {
	return func(r request, body []byte) error {
		w, ok := warm[r]
		if !ok {
			return fmt.Errorf("%s: no warm-up body", r.target())
		}
		if !bytes.Equal(w, body) {
			return fmt.Errorf("%s: body differs from its warm-up body (%d vs %d bytes)", r.target(), len(body), len(w))
		}
		return nil
	}
}
