package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module view the interprocedural analyzers
// (allocflow, and the summary-consuming upgrades of purity and errflow)
// run on: a type-based call graph in the Class Hierarchy Analysis (CHA)
// style. Static calls resolve to their single target; calls through an
// interface method resolve to every in-module type implementing the
// interface (external implementations are deliberately out of scope — the
// analyzers enforce contracts on this repository's code, and the stdlib
// is handled by the allowlists in summary.go). Function literals get
// nodes of their own with a "closure" edge from the enclosing function at
// the literal's position: whoever ends up invoking the literal, its
// effects are chargeable to the function that created it, which is the
// conservative direction for every may-analysis built on the graph.
// Method values (`f := q.Push`) likewise add an edge at the point the
// value is taken. Calls through plain function-typed variables and fields
// stay unresolved — a documented soundness hole (DESIGN.md §12) shared
// with every type-based construction.

// EdgeKind classifies how a call-graph edge was discovered.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a declared function or a method on a
	// concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeInterface is a call through an interface method, resolved by CHA
	// to one in-module implementation per edge.
	EdgeInterface
	// EdgeClosure links a function to a function literal it creates (the
	// literal may be invoked later, by anyone).
	EdgeClosure
	// EdgeMethodValue links a function to the method whose value it takes.
	EdgeMethodValue
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeInterface:
		return "interface"
	case EdgeClosure:
		return "closure"
	case EdgeMethodValue:
		return "methodvalue"
	}
	return "unknown"
}

// Edge is one call-graph edge, anchored at the source position that
// created it (the call, the literal, or the method value expression).
type Edge struct {
	Site   token.Pos
	Callee *Node
	Kind   EdgeKind
	// Via is the abstract interface method an EdgeInterface edge was
	// resolved through ("obs.Observer.TaskQueued"); empty otherwise. It is
	// rendered as a pseudo-step in allocflow chains so findings name the
	// dispatch point.
	Via string
}

// Node is one function in the call graph: a declared function or method,
// or a function literal.
type Node struct {
	// Obj is the declared function's object; nil for function literals.
	Obj *types.Func
	// Lit is the literal for closure nodes; nil for declared functions.
	Lit *ast.FuncLit
	// Name is the stable display name used in chains and dumps:
	// "core.Drive", "sim.Kernel.StartTimed", "runtime.Run$6".
	Name string
	// Pkg is the package the node's body lives in.
	Pkg *Package
	// Body is the function body (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Type carries parameters and results; Recv the receiver list.
	Type *ast.FuncType
	Recv *ast.FieldList
	// Hot marks //hplint:hotpath roots.
	Hot bool
	// Contracted marks functions whose declaration carries a
	// //hplint:allow allocflow <reason> contract: the function's
	// allocations are accepted wholesale and chains are cut at it.
	Contracted bool
	// Calls are the node's outgoing edges in deterministic order
	// (position, then callee name).
	Calls []Edge

	docPos token.Pos // position of the declaration, for dumps
}

// Program is the whole-module analysis unit: every base (non-test)
// package, the call graph over them, and lazily computed per-function
// summaries.
type Program struct {
	Fset *token.FileSet
	// Nodes in deterministic order (file position).
	Nodes  []*Node
	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node

	// orphanHotpaths are //hplint:hotpath comments not attached to any
	// function declaration; allocflow reports them so a misplaced
	// annotation fails loudly instead of silently protecting nothing.
	orphanHotpaths []token.Pos

	// summary caches (see summary.go).
	allocSites   map[*Node][]AllocSite
	mayAlloc     map[*Node]bool
	mutates      map[*Node][]int
	swallows     map[*Node]token.Pos
	ifaceTargets map[*types.Interface][]*Node
	allTypes     []types.Type

	// concurrency caches (lockorder.go, blockcheck.go).
	lockAcq     map[*Node][]lockAcquire
	goSites     map[*Node]map[token.Pos]bool
	lockAcqAll  map[*Node]map[LockID]bool
	lockEdges   []lockEdge
	lockEdgesOK bool
	lockOwners  map[*types.Var]string
	pkgSet      map[*types.Package]bool
	chanInv     *syncInventory
}

const hotpathPrefix = "//hplint:hotpath"

// NodeOf returns the node of a declared function, or nil.
func (prog *Program) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return prog.byFunc[fn.Origin()]
}

// BuildProgram constructs the call graph over the given packages. Test
// units (TestOnly) are skipped: their re-type-checked declarations would
// duplicate the base units' objects without adding reachable code.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		byFunc:       map[*types.Func]*Node{},
		byLit:        map[*ast.FuncLit]*Node{},
		allocSites:   map[*Node][]AllocSite{},
		mutates:      map[*Node][]int{},
		swallows:     map[*Node]token.Pos{},
		ifaceTargets: map[*types.Interface][]*Node{},
	}
	var base []*Package
	for _, p := range pkgs {
		if !p.TestOnly {
			base = append(base, p)
		}
	}
	if len(base) > 0 {
		prog.Fset = base[0].Fset
	}
	// Pass 1: nodes for every declared function and every literal.
	for _, p := range base {
		for _, f := range p.Files {
			prog.collectFile(p, f)
		}
	}
	// Pass 2: the in-module type universe for CHA.
	seenType := map[types.Type]bool{}
	for _, p := range base {
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if seenType[t] {
				continue
			}
			seenType[t] = true
			prog.allTypes = append(prog.allTypes, t)
		}
	}
	// Pass 3: edges.
	for _, n := range prog.Nodes {
		prog.collectEdges(n)
	}
	return prog
}

// hotpathComment reports whether one comment line is a hotpath marker.
func hotpathComment(c *ast.Comment) bool {
	return c.Text == hotpathPrefix || strings.HasPrefix(c.Text, hotpathPrefix+" ")
}

// declContract reports whether a doc group carries an allocflow contract
// (a //hplint:allow allocflow <reason> line): the whole function's
// allocations are accepted. The reason is validated by collectAllows when
// the declaring package is analyzed, so no re-validation happens here.
func declContract(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, allowPrefix)
		if !ok {
			continue
		}
		name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
		if name == "allocflow" && strings.TrimSpace(reason) != "" {
			return true
		}
	}
	return false
}

// collectFile creates nodes for the declarations and literals of one file
// and records hotpath markers (attached and orphaned).
func (prog *Program) collectFile(p *Package, f *ast.File) {
	consumed := map[*ast.Comment]bool{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn, _ := p.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			continue
		}
		n := &Node{
			Obj:    fn,
			Name:   nodeName(p, fd, fn),
			Pkg:    p,
			Body:   fd.Body,
			Type:   fd.Type,
			Recv:   fd.Recv,
			docPos: fd.Pos(),
		}
		if fd.Doc != nil {
			for _, c := range fd.Doc.List {
				if hotpathComment(c) {
					n.Hot = true
					consumed[c] = true
				}
			}
			n.Contracted = declContract(fd.Doc)
		}
		prog.Nodes = append(prog.Nodes, n)
		prog.byFunc[fn] = n
		prog.collectLits(p, n.Name, fd.Body)
	}
	// Literals in package-level variable initializers get nodes under a
	// synthetic parent name.
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok {
			prog.collectLits(p, p.Types.Name()+".init", gd)
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if hotpathComment(c) && !consumed[c] {
				prog.orphanHotpaths = append(prog.orphanHotpaths, c.Pos())
			}
		}
	}
}

// collectLits creates one node per function literal under root, named
// parent$1, parent$2, ... in source order (nested literals included).
func (prog *Program) collectLits(p *Package, parent string, root ast.Node) {
	i := 0
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		i++
		node := &Node{
			Lit:    lit,
			Name:   fmt.Sprintf("%s$%d", parent, i),
			Pkg:    p,
			Body:   lit.Body,
			Type:   lit.Type,
			docPos: lit.Pos(),
		}
		prog.Nodes = append(prog.Nodes, node)
		prog.byLit[lit] = node
		return true // keep descending: nested literals get their own nodes
	})
}

// nodeName builds the display name: pkg.Func, pkg.Recv.Method (pointer
// receivers render without the star).
func nodeName(p *Package, fd *ast.FuncDecl, fn *types.Func) string {
	pkg := p.Types.Name()
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	name := "?"
	if named, ok := rt.(*types.Named); ok {
		name = named.Obj().Name()
	}
	return pkg + "." + name + "." + fd.Name.Name
}

// inModule reports whether fn is declared in one of the program's
// packages (i.e. has a node).
func (prog *Program) inModule(fn *types.Func) bool {
	return prog.byFunc[fn.Origin()] != nil
}

// implementers returns the in-module nodes implementing the interface
// method m (CHA): for every named in-module type T, if T or *T satisfies
// the interface, the edge goes to T's concrete method with m's name.
func (prog *Program) implementers(iface *types.Interface, m *types.Func) []*Node {
	if targets, ok := prog.ifaceTargets[iface]; ok {
		return filterByMethod(targets, m, prog)
	}
	var impls []*Node
	seen := map[*Node]bool{}
	for _, t := range prog.allTypes {
		if types.IsInterface(t) {
			continue
		}
		var recv types.Type
		switch {
		case types.Implements(t, iface):
			recv = t
		case types.Implements(types.NewPointer(t), iface):
			recv = types.NewPointer(t)
		default:
			continue
		}
		ms := types.NewMethodSet(recv)
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok {
				continue
			}
			n := prog.byFunc[fn.Origin()]
			if n != nil && !seen[n] {
				seen[n] = true
				impls = append(impls, n)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Name < impls[j].Name })
	prog.ifaceTargets[iface] = impls
	return filterByMethod(impls, m, prog)
}

// filterByMethod keeps the implementer methods matching m's name.
func filterByMethod(targets []*Node, m *types.Func, prog *Program) []*Node {
	var out []*Node
	for _, n := range targets {
		if n.Obj != nil && n.Obj.Name() == m.Name() {
			out = append(out, n)
		}
	}
	return out
}

// collectEdges walks one node's body (without descending into nested
// literals, which are their own nodes) and records its outgoing edges.
func (prog *Program) collectEdges(n *Node) {
	info := n.Pkg.Info
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				if x == n.Lit {
					return true // the node's own body
				}
				if callee := prog.byLit[x]; callee != nil {
					n.addEdge(Edge{Site: x.Pos(), Callee: callee, Kind: EdgeClosure})
				}
				return false // the literal's body belongs to its own node
			case *ast.CallExpr:
				// Calls made while building a panic argument are death-path
				// work; keeping them out of the graph keeps guard-clause
				// panics (fmt.Sprintf and friends) out of allocation chains.
				if isPanicCall(info, x) {
					return false
				}
				prog.callEdges(n, info, x)
				return true
			case *ast.SelectorExpr:
				prog.methodValueEdge(n, info, x)
				return true
			}
			return true
		})
	}
	walk(n.Body)
	sortEdges(n.Calls)
}

func (n *Node) addEdge(e Edge) { n.Calls = append(n.Calls, e) }

func sortEdges(edges []Edge) {
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].Site != edges[j].Site {
			return edges[i].Site < edges[j].Site
		}
		return edges[i].Callee.Name < edges[j].Callee.Name
	})
}

// callEdges resolves one call expression to its edges.
func (prog *Program) callEdges(n *Node, info *types.Info, call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if callee := prog.byFunc[fn.Origin()]; callee != nil {
				n.addEdge(Edge{Site: call.Pos(), Callee: callee, Kind: EdgeStatic})
			}
		}
	case *ast.FuncLit:
		if callee := prog.byLit[fun]; callee != nil {
			n.addEdge(Edge{Site: call.Pos(), Callee: callee, Kind: EdgeStatic})
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[fun]
		if !ok {
			// Qualified call pkg.Func.
			if fn, isFn := info.Uses[fun.Sel].(*types.Func); isFn {
				if callee := prog.byFunc[fn.Origin()]; callee != nil {
					n.addEdge(Edge{Site: call.Pos(), Callee: callee, Kind: EdgeStatic})
				}
			}
			return
		}
		if sel.Kind() != types.MethodVal {
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			return
		}
		recv := sel.Recv()
		if iface, isIface := recv.Underlying().(*types.Interface); isIface {
			via := ifaceMethodName(recv, fn)
			for _, impl := range prog.implementers(iface, fn) {
				n.addEdge(Edge{Site: call.Pos(), Callee: impl, Kind: EdgeInterface, Via: via})
			}
			return
		}
		if callee := prog.byFunc[fn.Origin()]; callee != nil {
			n.addEdge(Edge{Site: call.Pos(), Callee: callee, Kind: EdgeStatic})
		}
	}
}

// ifaceMethodName renders the abstract dispatch point: "obs.Observer.TaskQueued".
func ifaceMethodName(recv types.Type, fn *types.Func) string {
	if named, ok := recv.(*types.Named); ok {
		pkg := ""
		if named.Obj().Pkg() != nil {
			pkg = named.Obj().Pkg().Name() + "."
		}
		return pkg + named.Obj().Name() + "." + fn.Name()
	}
	return "interface." + fn.Name()
}

// methodValueEdge records `f := q.Push`-style method values: an edge at
// the selector so the method's effects are charged to whoever takes the
// value. Selectors in call position are handled by callEdges; here only
// value uses matter, which go/types marks as MethodVal selections whose
// parent is not the call's Fun — the cheap over-approximation of adding
// the edge in both cases is harmless (same callee, same position rules).
func (prog *Program) methodValueEdge(n *Node, info *types.Info, selExpr *ast.SelectorExpr) {
	sel, ok := info.Selections[selExpr]
	if !ok || sel.Kind() != types.MethodVal {
		return
	}
	// Calls add their own static/interface edges; re-adding here would
	// duplicate every method call as a methodvalue edge. Filter by use:
	// only record when the selector's type is a function value in the
	// expression sense (TypeAndValue says value, and the parent isn't a
	// call — approximated by checking info.Types, which records the
	// method's signature either way; the duplicate-suppression happens in
	// addEdgeUnique below).
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	callee := prog.byFunc[fn.Origin()]
	if callee == nil {
		return
	}
	for _, e := range n.Calls {
		if e.Callee == callee && e.Site == selExpr.Pos() {
			return
		}
	}
	n.addEdge(Edge{Site: selExpr.Pos(), Callee: callee, Kind: EdgeMethodValue})
}

// DumpGraph renders the call graph deterministically, one edge per line,
// for the -callgraph debug flag and the golden tests.
func (prog *Program) DumpGraph() string {
	nodes := append([]*Node(nil), prog.Nodes...)
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Name != nodes[j].Name {
			return nodes[i].Name < nodes[j].Name
		}
		return nodes[i].docPos < nodes[j].docPos
	})
	var b strings.Builder
	for _, n := range nodes {
		for _, e := range n.Calls {
			via := ""
			if e.Via != "" {
				via = " via " + e.Via
			}
			fmt.Fprintf(&b, "%s -> %s [%s%s]\n", n.Name, e.Callee.Name, e.Kind, via)
		}
	}
	return b.String()
}
