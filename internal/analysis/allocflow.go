package analysis

import (
	"go/token"
	"strings"
)

// AllocFlow is the allocation-contract analyzer: a function marked
//
//	//hplint:hotpath
//
// in its doc comment must not allocate — not in its own body and not
// through any call chain the call graph (callgraph.go) can realize from
// it, interface dispatch included. Findings carry the full chain from
// the root to the allocation site
//
//	hot path core.listState.admit reaches an allocation:
//	core.listState.admit → obs.Observer.TaskQueued → obs.Timeline.TaskQueued →
//	append may grow the backing array
//
// so the fix target is named, not hunted. Justified exceptions use the
// standard escape at the allocation site (which cleans the summary for
// every caller, not just one chain) or a //hplint:allow allocflow
// <reason> line in a function's doc comment to contract the whole
// function as accepted. A hotpath marker not attached to a function
// declaration is itself a finding: a misplaced annotation must fail
// loudly instead of silently protecting nothing.
//
// The analyzer only runs with a whole-module Program (hplint, the repo
// test, and the program-aware fixtures); per-package isolated runs stay
// quiet.
var AllocFlow = &Analyzer{
	Name:      "allocflow",
	Doc:       "no allocation reachable from a //hplint:hotpath root",
	SkipTests: true,
	Run:       runAllocFlow,
}

func runAllocFlow(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	// Files of this pass, for attributing orphan markers to the package
	// being analyzed.
	inPass := map[string]bool{}
	for _, f := range pass.Files {
		inPass[pass.Fset.Position(f.Pos()).Filename] = true
	}
	for _, pos := range prog.orphanHotpaths {
		if inPass[prog.Fset.Position(pos).Filename] {
			pass.Reportf(pos, "hplint:hotpath is not attached to a function declaration — move it into the function's doc comment")
		}
	}
	for _, root := range prog.Nodes {
		if !root.Hot || root.Pkg.RelPath != pass.RelPath {
			continue
		}
		if !inPass[prog.Fset.Position(root.docPos).Filename] {
			continue
		}
		// Intrinsic allocations in the hot function itself.
		for _, s := range prog.allocSitesEffective(root) {
			pass.Reportf(s.Pos, "hot path %s allocates: %s", root.Name, s.Desc)
		}
		reportChains(pass, prog, root)
	}
}

// reportChains finds, per allocating function reachable from root, the
// shortest realizable call chain and reports it at the first call site
// inside the root. The search prunes to the may-allocate subgraph and
// cuts chains at the first allocating callee: deeper allocations behind
// an already-reported function would only restate the same fix target.
func reportChains(pass *Pass, prog *Program, root *Node) {
	visited := map[*Node]bool{root: true}
	parentNode := map[*Node]*Node{}
	parentEdge := map[*Node]Edge{}
	queue := []*Node{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.Calls {
			callee := e.Callee
			if visited[callee] || callee.Contracted || !prog.MayAlloc(callee) {
				continue
			}
			visited[callee] = true
			parentNode[callee] = cur
			parentEdge[callee] = e
			if sites := prog.allocSitesEffective(callee); len(sites) > 0 {
				steps, firstSite := chainSteps(root, callee, parentNode, parentEdge, sites[0])
				pass.ReportChain(firstSite, steps, "hot path %s reaches an allocation: %s", root.Name, strings.Join(steps, " → "))
				continue
			}
			queue = append(queue, callee)
		}
	}
}

// chainSteps walks the BFS parent links back from target to root and
// returns the forward chain as individual steps (for the JSON `chain`
// field), inserting the abstract interface method as a pseudo-step on
// dispatch edges, plus the position of the first call site (the call
// inside the root), which is where the finding anchors.
func chainSteps(root, target *Node, parentNode map[*Node]*Node, parentEdge map[*Node]Edge, site AllocSite) ([]string, token.Pos) {
	var rev []string
	cur := target
	first := parentEdge[target]
	for cur != root {
		e := parentEdge[cur]
		rev = append(rev, cur.Name)
		if e.Via != "" {
			rev = append(rev, e.Via)
		}
		first = e
		cur = parentNode[cur]
	}
	steps := []string{root.Name}
	for i := len(rev) - 1; i >= 0; i-- {
		steps = append(steps, rev[i])
	}
	steps = append(steps, site.Desc)
	return steps, first.Site
}
