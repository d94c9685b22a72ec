package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/platform"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// The serve plans draw from the factorization workloads at n in [8, 16]:
// large enough that the compute path dominates a miss, small enough that
// the seed commit serves a few dozen misses per second on two cores.
const (
	planNMin       = 8
	planNMax       = 16
	compareNMax    = 10 // /compare runs seven schedulers, so it stays small
	serveSeedParam = 1  // hpserve's fixed generator seed, part of every key
)

// missAlgs are the /schedule algorithms of both serve plans: one of each
// scheduler family. HLP-min is left out on purpose: it ignores request
// deadlines and can pin a core for minutes.
var missAlgs = []string{"HeteroPrio-min", "HEFT-avg", "DualHP-fifo"}

func planWorkloads() []string { return []string{"cholesky", "qr", "lu"} }

// shape is a platform shape (CPU and GPU counts).
type shape struct{ cpus, gpus int }

// shapeGrid is the platform shapes a plan draws from: 29 × 8 = 232 shapes,
// so one request class can appear in 232 blocks with pairwise distinct keys.
func shapeGrid() []shape {
	var out []shape
	for c := 4; c <= 32; c++ {
		for g := 1; g <= 8; g++ {
			out = append(out, shape{c, g})
		}
	}
	return out
}

// request is one planned HTTP request. It is comparable, so it keys the
// warm-up bodies of the hit plan.
type request struct {
	Compare  bool
	Workload string
	N        int
	CPUs     int
	GPUs     int
	Alg      string // empty on /compare
	JSON     bool
}

func (r request) path() string {
	if r.Compare {
		return "/compare"
	}
	return "/schedule"
}

// target is the request's path and query string.
func (r request) target() string {
	q := url.Values{}
	q.Set("workload", r.Workload)
	q.Set("n", strconv.Itoa(r.N))
	q.Set("cpus", strconv.Itoa(r.CPUs))
	q.Set("gpus", strconv.Itoa(r.GPUs))
	if !r.Compare {
		q.Set("alg", r.Alg)
	}
	if r.JSON {
		q.Set("format", "json")
	}
	return r.path() + "?" + q.Encode()
}

func (r request) platform() platform.Platform {
	return platform.Platform{CPUs: r.CPUs, GPUs: r.GPUs}
}

// class names the request's ladder class: its algorithm, or "compare".
func (r request) class() string {
	if r.Compare {
		return "compare"
	}
	return r.Alg
}

// keyLabel is the algorithm label hpserve folds into the cache key.
func (r request) keyLabel() string {
	if r.Compare {
		return "compare:" + strings.Join(expr.DAGAlgorithms(), ",")
	}
	return "schedule:" + r.Alg
}

// graphID names the bound's input: the graph and the platform.
func (r request) graphID() string {
	return fmt.Sprintf("%s/%d/%d/%d", r.Workload, r.N, r.CPUs, r.GPUs)
}

// cacheKey is the key hpserve derives for the request: the same public
// calls on the same inputs as its request-key path.
func (r request) cacheKey() (serve.Key, error) {
	g, err := workloads.Build(workloads.Factorization(r.Workload), r.N)
	if err != nil {
		return serve.Key{}, err
	}
	return serve.KeyOf(g.Tasks(), r.platform(), r.keyLabel(), serveSeedParam,
		"workload="+r.Workload, "n="+strconv.Itoa(r.N)), nil
}

// requestClass is a request without its platform shape and format.
type requestClass struct {
	compare  bool
	workload string
	n        int
	alg      string
}

// missPlan is the serve-miss request sequence. It is made of blocks; each
// block holds every class once — 81 /schedule classes (3 workloads × 9
// sizes × 3 algorithms) and 9 /compare classes (3 workloads × n ≤ 10), so
// 1 in 10 requests is a /compare. A block is 10 windows of 9 requests,
// and every window holds one class from each ninth of the classes ranked
// by size (tasks × scheduler runs), in a seed-shuffled order. So any
// stretch of the plan, and any seed's plan, asks for about the same work,
// and a run's figures do not hinge on how many large requests the seed
// bunched together. With an odd number of size strata the latency median
// falls inside the middle stratum and the 95th percentile inside the top
// one, rather than on the gap between two strata, where it would jump. A class takes a fresh platform shape in each block, and
// alternates between JSON and HTML, so every key in the first 232 blocks
// is new.
type missPlan struct {
	seed    int64
	classes []requestClass
	strata  [][]int   // class indices by size rank, in windowSize groups
	shapes  [][]shape // per class: a seeded permutation of shapeGrid
}

// windowSize is the number of size strata, and so the length of a
// balanced window of the miss plan.
const windowSize = 9

func newMissPlan(seed int64, tasks map[string]int) *missPlan {
	p := &missPlan{seed: seed}
	for _, wl := range planWorkloads() {
		for n := planNMin; n <= planNMax; n++ {
			for _, alg := range missAlgs {
				p.classes = append(p.classes, requestClass{workload: wl, n: n, alg: alg})
			}
		}
		for n := planNMin; n <= compareNMax; n++ {
			p.classes = append(p.classes, requestClass{compare: true, workload: wl, n: n})
		}
	}
	size := func(c requestClass) int {
		runs := 1
		if c.compare {
			runs = len(expr.DAGAlgorithms())
		}
		return tasks[c.workload+"/"+strconv.Itoa(c.n)] * runs
	}
	rank := make([]int, len(p.classes))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return size(p.classes[rank[a]]) < size(p.classes[rank[b]]) })
	per := len(p.classes) / windowSize
	for s := 0; s < windowSize; s++ {
		p.strata = append(p.strata, rank[s*per:(s+1)*per])
	}
	grid := shapeGrid()
	rng := rand.New(rand.NewSource(seed))
	for range p.classes {
		perm := rng.Perm(len(grid))
		sh := make([]shape, len(grid))
		for i, j := range perm {
			sh[i] = grid[j]
		}
		p.shapes = append(p.shapes, sh)
	}
	return p
}

func (p *missPlan) blockSize() int { return len(p.classes) }

// distinctBlocks is how many blocks the plan serves before keys repeat.
func (p *missPlan) distinctBlocks() int { return len(p.shapes[0]) }

// blockOrder is block b's class order: window j takes member perm_s[j]
// of every stratum s, shuffled.
func (p *missPlan) blockOrder(b int) []int {
	rng := rand.New(rand.NewSource(engine.DeriveSeed(p.seed, b)))
	members := make([][]int, len(p.strata))
	for s, st := range p.strata {
		members[s] = rng.Perm(len(st))
	}
	order := make([]int, 0, len(p.classes))
	for j := range members[0] {
		window := make([]int, len(p.strata))
		for s, st := range p.strata {
			window[s] = st[members[s][j]]
		}
		rng.Shuffle(len(window), func(a, b int) { window[a], window[b] = window[b], window[a] })
		order = append(order, window...)
	}
	return order
}

// at returns the i-th request of the plan.
func (p *missPlan) at(i int) request {
	b, pos := i/len(p.classes), i%len(p.classes)
	ci := p.blockOrder(b)[pos]
	c := p.classes[ci]
	sh := p.shapes[ci][b%len(p.shapes[ci])]
	return request{
		Compare: c.compare, Workload: c.workload, N: c.n, Alg: c.alg,
		CPUs: sh.cpus, GPUs: sh.gpus, JSON: (ci+b)%2 == 0,
	}
}

// ladderBlocks is how many blocks the traced run's ladder sample spans.
const ladderBlocks = 9

// ladderSample is the traced run's sample of the miss plan: one mid-size
// class per ladder — cholesky at n = 12 for each algorithm and at n = 10
// for /compare — taken from each of the first ladderBlocks blocks, so a
// ladder's medians come from nine requests of one size on fresh platform
// shapes. The traced run's load phases start after those blocks, so these
// keys are still misses.
func (p *missPlan) ladderSample() []request {
	var out []request
	for i := 0; i < ladderBlocks*p.blockSize(); i++ {
		r := p.at(i)
		if r.Workload == "cholesky" && (r.N == 12 && !r.Compare || r.N == 10 && r.Compare) {
			out = append(out, r)
		}
	}
	return out
}

// hitPlan is the serve-hit request sequence over a fixed set of warm keys:
// 27 /schedule keys (3 workloads × 9 sizes, the algorithm rotating) and
// 9 /compare keys, each on a seeded platform shape. A block asks for every
// key once as JSON and once as HTML, in a seed-shuffled order.
type hitPlan struct {
	seed int64
	keys []request // JSON form; the HTML form differs only in JSON
}

func newHitPlan(seed int64) *hitPlan {
	p := &hitPlan{seed: seed}
	grid := shapeGrid()
	rng := rand.New(rand.NewSource(seed))
	for wi, wl := range planWorkloads() {
		for n := planNMin; n <= planNMax; n++ {
			sh := grid[rng.Intn(len(grid))]
			p.keys = append(p.keys, request{Workload: wl, N: n, Alg: missAlgs[(wi+n)%len(missAlgs)],
				CPUs: sh.cpus, GPUs: sh.gpus, JSON: true})
		}
		for n := planNMin; n <= compareNMax; n++ {
			sh := grid[rng.Intn(len(grid))]
			p.keys = append(p.keys, request{Compare: true, Workload: wl, N: n,
				CPUs: sh.cpus, GPUs: sh.gpus, JSON: true})
		}
	}
	return p
}

func (p *hitPlan) blockSize() int { return 2 * len(p.keys) }

func (p *hitPlan) at(i int) request {
	b, pos := i/p.blockSize(), i%p.blockSize()
	k := hitOrder(p.seed, b, p.blockSize())[pos]
	r := p.keys[k/2]
	r.JSON = k%2 == 0
	return r
}

// warmRequests lists every (key, format) pair the hit phase can ask for.
func (p *hitPlan) warmRequests() []request {
	out := make([]request, 0, p.blockSize())
	for _, k := range p.keys {
		html := k
		html.JSON = false
		out = append(out, k, html)
	}
	return out
}

func (p *hitPlan) ladderSample() []request {
	out := make([]request, p.blockSize())
	for i := range out {
		out[i] = p.at(i)
	}
	return out
}

// hitOrder is block b's seeded permutation of n positions.
func hitOrder(seed int64, b, n int) []int {
	return rand.New(rand.NewSource(engine.DeriveSeed(seed, b))).Perm(n)
}

// planHash fingerprints the first n requests of a plan.
func planHash(at func(int) request, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintln(h, at(i).target())
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// taskCounts maps "workload/n" to the task count of the built graph, for
// the answer checks.
func taskCounts() (map[string]int, error) {
	out := map[string]int{}
	for _, wl := range planWorkloads() {
		for n := planNMin; n <= planNMax; n++ {
			g, err := workloads.Build(workloads.Factorization(wl), n)
			if err != nil {
				return nil, err
			}
			out[wl+"/"+strconv.Itoa(n)] = g.Len()
		}
	}
	return out, nil
}
