package lint

// lazyreduce encodes the Barrett lazy-reduction overflow proof (DESIGN.md §7,
// §13) as a static check. The arithmetic core accumulates raw products of
// canonical elements in plain uint64s; soundness requires that at most
// LazyBatch = ⌊(2⁶³−1)/(q−1)²⌋ products join an accumulator entry before a
// reduction, because (q−1) + LazyBatch·(q−1)² < 2⁶⁴. The kernels make that
// bound structural — tile loops are sized from f.lazyBatch — and this
// analyzer rejects any accumulation loop where the structure is missing:
//
//	rule 1 (loop bound): a loop that adds raw products into an accumulator
//	entry that does not advance with the loop must either contain an
//	interleaved reduction (Reduce/ReduceAcc/FlushAcc/Flush/barrett) or be
//	bounded by an expression derived from LazyBatch.
//
//	rule 2 (escape): an exported function must not return a locally
//	accumulated raw uint64 (scalar or row) that was never reduced — raw
//	accumulators may only cross exported boundaries as explicit parameters,
//	where the caller owns the budget (AXPYLazy's contract).
//
//	rule 3 (width): a raw product must be formed in 64 bits. Packed 32-bit
//	operands widen before the multiply, `s += uint64(a32) * b`, whose raw
//	product is the same ≤ (q−1)² the uint64 kernels add, so rules 1 and 2
//	apply to it unchanged. A product of narrower operands widened afterwards,
//	`s += uint64(a32 * b32)`, wraps modulo 2³² before it reaches the
//	accumulator and is flagged wherever it appears.
//
//	rule 4 (assembly tiles): a call to an assembly kernel (a function the
//	package declares without a body) added into a uint64, `s += kernel(a[:n],
//	b[:n])`, is a raw site like a product — one call adds up to len(a) raw
//	products, so rules 1 and 2 apply to the loop around it — and every slice
//	it is handed must be cut at the call to a LazyBatch-derived length, the
//	tile bound the analyzer cannot see inside the assembly. A kernel that
//	returns nothing and takes a []uint64 hands its raw sums back through
//	that argument instead (the panel kernel behind DotPackedRows, whose
//	panel spans many rows, so no slice it reads is one tile long): it must
//	declare its column count as a parameter named n, and every call must
//	hand it an n derived from LazyBatch. Its sums then reach the caller's
//	accumulators as plain values, where rules 1 to 3 apply as usual.
//
// Hand-verified kernels whose bound lives at the call site (the fused
// three-destination combine, whose caller enforces len(srcs) ≤ LazyBatch)
// opt out with //avcc:lazy-ok and a stated reason.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// reducerNames are the calls that bring an accumulator back to canonical
// form. LazyAcc.AXPY is deliberately absent: it guards itself (budget
// tracking), so it never appears as a raw accumulation in the first place.
var reducerNames = map[string]bool{
	"Reduce":    true,
	"ReduceAcc": true,
	"FlushAcc":  true,
	"Flush":     true,
	"barrett":   true,
}

// LazyReduce is the lazy-reduction bound analyzer.
var LazyReduce = &Analyzer{
	Name: "lazyreduce",
	Doc:  "flag raw uint64 product accumulation that can exceed the LazyBatch overflow bound",
	Scope: pathIn(
		"repro/internal/field",
		"repro/internal/poly",
		"repro/internal/mds",
		"repro/internal/fieldmat",
	),
	Run: runLazyReduce,
}

// rawSite is one raw-accumulation statement: a `+=` of a product into a
// uint64 target, or an AXPYLazy call (one raw product into every entry of
// its accumulator row).
type rawSite struct {
	node ast.Node
	// base is the accumulator's root object (s in `s += a*b`, acc in
	// `acc[i] += ...` and `f.AXPYLazy(acc, ...)`); nil when unresolvable.
	base types.Object
	// index is the index expression of an indexed target, nil for scalars
	// and AXPYLazy rows.
	index ast.Expr
	// kernel is the assembly-kernel call a `+=` site adds, nil for products.
	kernel *ast.CallExpr
}

func runLazyReduce(pass *Pass) error {
	kernels := asmKernels(pass)
	rawOut := rawOutKernels(kernels)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if funcDirective(fn, "lazy-ok") {
				continue
			}
			tainted := batchTainted(pass, fn.Body)
			sites := rawSites(pass, fn.Body, kernels)
			checkNarrowProducts(pass, fn, sites)
			checkAsmTiles(pass, fn, sites, tainted)
			checkRawOutTiles(pass, fn, rawOut, tainted)
			checkLoopBounds(pass, file, fn, sites, tainted)
			if fn.Name.IsExported() {
				checkRawEscape(pass, fn, sites)
			}
		}
	}
	return nil
}

// isBatchSelector reports whether e is exactly the batch bound itself:
// the f.lazyBatch field, the LazyBatch method value, or a LazyBatch()
// method call. Arithmetic around the bound (lazyBatch+1, 2*lazyBatch) is
// deliberately NOT a bound — a loop straddling the budget by even one
// product voids the overflow proof.
func isBatchSelector(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "lazyBatch" || e.Sel.Name == "LazyBatch"
	case *ast.CallExpr:
		return isBatchSelector(e.Fun)
	}
	return false
}

// boundedBy reports whether e is exactly the batch bound or exactly an
// identifier already known to be at most the bound.
func boundedBy(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	if e == nil {
		return false
	}
	e = ast.Unparen(e)
	if isBatchSelector(e) {
		return true
	}
	id, ok := e.(*ast.Ident)
	return ok && tainted[pass.Info.Uses[id]]
}

// batchTainted computes the set of objects whose value is AT MOST the
// field's lazy batch bound, by fixpoint over the function's assignments.
// Taint flows only through clamping shapes — exact copies, slices whose
// high bound is tainted, and min() with a tainted argument — never through
// enlarging arithmetic, so a tainted loop bound really is ≤ LazyBatch.
func batchTainted(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	taintedExpr := func(e ast.Expr) bool { return boundedBy(pass, e, tainted) }
	// seedIn: shapes whose value cannot exceed a tainted input.
	seedIn := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			return taintedExpr(e.High) // len(x[l:t]) ≤ t
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "min" {
				if _, builtin := pass.Info.Uses[id].(*types.Builtin); builtin {
					for _, arg := range e.Args {
						if taintedExpr(arg) {
							return true
						}
					}
				}
			}
			return taintedExpr(e)
		default:
			return taintedExpr(e)
		}
	}
	taintLHS := func(lhs ast.Expr) bool {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj == nil || tainted[obj] {
			return false
		}
		tainted[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if seedIn(rhs) && taintLHS(n.Lhs[i]) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, v := range n.Values {
						if seedIn(v) && taintLHS(n.Names[i]) {
							changed = true
						}
					}
				}
			}
			return true
		})
	}
	return tainted
}

// rawSites collects the raw-accumulation statements in a function body.
func rawSites(pass *Pass, body *ast.BlockStmt, kernels map[types.Object]bool) []rawSite {
	var sites []rawSite
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.ADD_ASSIGN || len(n.Lhs) != 1 {
				return true
			}
			lhs := n.Lhs[0]
			t := pass.Info.Types[lhs].Type
			if t == nil || !isUint64(t) {
				return true
			}
			kernel := kernelCall(pass, n.Rhs[0], kernels)
			if kernel == nil && !containsMul(n.Rhs[0]) {
				return true
			}
			site := rawSite{node: n, base: baseObject(pass, lhs), kernel: kernel}
			if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				site.index = idx.Index
			}
			sites = append(sites, site)
		case *ast.CallExpr:
			if calleeName(n) == "AXPYLazy" && len(n.Args) > 0 {
				sites = append(sites, rawSite{node: n, base: baseObject(pass, n.Args[0])})
			}
		}
		return true
	})
	return sites
}

// asmKernels returns the functions the package declares without a body: its
// assembly kernels.
func asmKernels(pass *Pass) map[types.Object]bool {
	kernels := make(map[types.Object]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body == nil && pass.Info.Defs[fn.Name] != nil {
				kernels[pass.Info.Defs[fn.Name]] = true
			}
		}
	}
	return kernels
}

// kernelCall returns the first call to an assembly kernel inside e, or nil.
func kernelCall(pass *Pass, e ast.Expr, kernels map[types.Object]bool) *ast.CallExpr {
	var found *ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && kernels[pass.Info.Uses[id]] {
				found = call
			}
		}
		return found == nil
	})
	return found
}

// checkAsmTiles enforces rule 4: every slice an assembly kernel is handed at a
// raw site is cut to a LazyBatch-derived length — x[:n] with n bounded, or a
// variable holding such a cut.
func checkAsmTiles(pass *Pass, fn *ast.FuncDecl, sites []rawSite, tainted map[types.Object]bool) {
	for _, site := range sites {
		if site.kernel == nil {
			continue
		}
		for _, arg := range site.kernel.Args {
			if _, ok := pass.Info.TypeOf(arg).Underlying().(*types.Slice); !ok {
				continue
			}
			if cut, ok := ast.Unparen(arg).(*ast.SliceExpr); ok && boundedBy(pass, cut.High, tainted) ||
				boundedBy(pass, arg, tainted) {
				continue
			}
			pass.Reportf(arg.Pos(),
				"assembly kernel %s in %s sums a slice not cut to LazyBatch at the call: pass x[:n] with n derived from LazyBatch",
				calleeName(site.kernel), fn.Name.Name)
		}
	}
}

// rawOutKernels returns the assembly kernels that hand their raw sums back
// through a []uint64 argument rather than a result, each with the index of
// its column-count parameter n, or -1 where it declares none.
func rawOutKernels(kernels map[types.Object]bool) map[types.Object]int {
	out := make(map[types.Object]int)
	for obj := range kernels {
		sig, ok := obj.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 0 {
			continue
		}
		col, rawOut := -1, false
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if sl, ok := p.Type().Underlying().(*types.Slice); ok && isUint64(sl.Elem()) {
				rawOut = true
			}
			if p.Name() == "n" {
				col = i
			}
		}
		if rawOut {
			out[obj] = col
		}
	}
	return out
}

// checkRawOutTiles enforces rule 4 for the kernels rawOutKernels finds: the
// column count handed to one must be exactly a LazyBatch-derived value, and
// a kernel that declares no column count cannot be bounded at all.
func checkRawOutTiles(pass *Pass, fn *ast.FuncDecl, rawOut map[types.Object]int, tainted map[types.Object]bool) {
	if len(rawOut) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		col, ok := rawOut[pass.Info.Uses[id]]
		switch {
		case !ok:
		case col < 0:
			pass.Reportf(call.Pos(),
				"assembly kernel %s in %s returns raw sums through a []uint64 but declares no column count n: its tiles cannot be bounded",
				id.Name, fn.Name.Name)
		case col >= len(call.Args) || !boundedBy(pass, call.Args[col], tainted):
			pass.Reportf(call.Pos(),
				"assembly kernel %s in %s is handed a column count not cut to LazyBatch: pass n derived from LazyBatch",
				id.Name, fn.Name.Name)
		}
		return true
	})
}

// containsMul reports whether e contains an integer multiplication — the
// signature of a raw product joining an accumulator.
func containsMul(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.MUL {
			found = true
		}
		return !found
	})
	return found
}

// checkNarrowProducts enforces rule 3: no product inside a raw `+=` site may
// be computed in an integer type narrower than 64 bits.
func checkNarrowProducts(pass *Pass, fn *ast.FuncDecl, sites []rawSite) {
	for _, site := range sites {
		assign, ok := site.node.(*ast.AssignStmt)
		if !ok {
			continue
		}
		ast.Inspect(assign.Rhs[0], func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || b.Op != token.MUL {
				return true
			}
			t := pass.Info.Types[b].Type
			if t == nil {
				return true
			}
			if basic, ok := t.Underlying().(*types.Basic); ok && isNarrowInt(basic) {
				pass.Reportf(b.Pos(),
					"raw product in %s is computed in %s and wraps before it widens to uint64: widen an operand first (uint64(a) * b)",
					fn.Name.Name, t)
			}
			return true
		})
	}
}

// isNarrowInt reports whether t is a sized integer type below 64 bits.
func isNarrowInt(t *types.Basic) bool {
	switch t.Kind() {
	case types.Int8, types.Int16, types.Int32, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// baseObject resolves the root identifier of an lvalue chain
// (acc, acc[i], acc.a0[i], (acc)[i] ...) to its object.
func baseObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[x]; obj != nil {
				return obj
			}
			return pass.Info.Defs[x]
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// loopInfo is one enclosing loop on the walk stack.
type loopInfo struct {
	node ast.Node
	vars map[types.Object]bool
}

// checkLoopBounds enforces rule 1: walk every raw site's chain of enclosing
// loops from the inside out; each loop whose iteration re-accumulates into
// the same entry must carry a reduction, a LazyBatch-derived bound, or an
// explicit //avcc:lazy-ok.
func checkLoopBounds(pass *Pass, file *ast.File, fn *ast.FuncDecl, sites []rawSite, tainted map[types.Object]bool) {
	if len(sites) == 0 {
		return
	}
	siteAt := make(map[ast.Node]*rawSite, len(sites))
	for i := range sites {
		siteAt[sites[i].node] = &sites[i]
	}
	var stack []loopInfo
	var walk func(root ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			switch l := n.(type) {
			case *ast.ForStmt:
				stack = append(stack, loopInfo{node: l, vars: loopVars(pass, l)})
				// Header expressions (init/cond/post) are not accumulation
				// context; only the body runs per iteration.
				walk(l.Body)
				stack = stack[:len(stack)-1]
				return false
			case *ast.RangeStmt:
				stack = append(stack, loopInfo{node: l, vars: loopVars(pass, l)})
				walk(l.Body)
				stack = stack[:len(stack)-1]
				return false
			}
			if site, ok := siteAt[n]; ok {
				checkSite(pass, file, fn, site, stack, tainted)
			}
			return true
		})
	}
	walk(fn.Body)
}

// checkSite audits one raw accumulation against its enclosing loops
// (innermost last in stack). Loops whose iteration advances the target
// entry contribute one accumulation step per ENTRY, not per entry-visit,
// and are exempt; the first enclosing loop that re-visits the same entry
// must be guarded. A loop containing a reduction call also guards every
// loop around it (the reduction runs at least once per outer iteration),
// so the audit stops at the first reducing level.
func checkSite(pass *Pass, file *ast.File, fn *ast.FuncDecl, site *rawSite, stack []loopInfo, tainted map[types.Object]bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		l := stack[i]
		if site.index != nil && exprMentions(pass.Info, site.index, l.vars) {
			// The accumulator entry advances with this loop: one raw
			// product per entry per full sweep. Outer loops can still
			// revisit entries, so keep walking out.
			continue
		}
		body := loopBody(l.node)
		if containsReducer(body) {
			return
		}
		if loopBatchBounded(pass, l.node, tainted) {
			continue
		}
		if pass.allowedAt(file, l.node.Pos(), "lazy-ok") {
			continue
		}
		pass.Reportf(site.node.Pos(),
			"raw uint64 accumulation in %s can exceed the LazyBatch overflow bound: the enclosing loop (line %d) has no interleaved Reduce/ReduceAcc/FlushAcc and no LazyBatch-derived bound",
			fn.Name.Name, pass.Fset.Position(l.node.Pos()).Line)
		return
	}
}

// loopBody returns a loop's body block.
func loopBody(loop ast.Node) *ast.BlockStmt {
	switch l := loop.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// containsReducer reports whether the block calls one of the canonicalising
// reductions.
func containsReducer(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && reducerNames[calleeName(call)] {
			found = true
		}
		return !found
	})
	return found
}

// loopBatchBounded reports whether the loop's trip count is structurally
// ≤ LazyBatch: `for i := 0; i < bound; i++` with bound exactly the batch
// selector or a batch-tainted variable, or `range x` over a batch-tainted
// slice. Strict-less-than and exact expressions only — `i < lazyBatch+1`
// or `i <= lazyBatch` straddle the budget and stay flagged.
func loopBatchBounded(pass *Pass, loop ast.Node, tainted map[types.Object]bool) bool {
	exact := func(e ast.Expr) bool { return boundedBy(pass, e, tainted) }
	switch l := loop.(type) {
	case *ast.ForStmt:
		cond, ok := l.Cond.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		return cond.Op == token.LSS && exact(cond.Y) ||
			cond.Op == token.GTR && exact(cond.X)
	case *ast.RangeStmt:
		return exact(l.X)
	}
	return false
}

// checkRawEscape enforces rule 2: an exported function must not return a
// locally accumulated raw uint64 value that no reduction ever touched.
// Parameters are exempt — a raw accumulator received from outside is the
// caller's budget (the AXPYLazy contract) — and so is any local that appears
// as an argument to a reduction call anywhere in the function.
func checkRawEscape(pass *Pass, fn *ast.FuncDecl, sites []rawSite) {
	locals := make(map[types.Object]bool)
	for _, site := range sites {
		if site.base == nil {
			continue
		}
		v, ok := site.base.(*types.Var)
		if !ok || isParam(fn, site.base) {
			continue
		}
		locals[v] = true
	}
	if len(locals) == 0 {
		return
	}
	// Drop every accumulator a reduction call references.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !reducerNames[calleeName(call)] {
			return true
		}
		for _, arg := range call.Args {
			if obj := baseObject(pass, arg); obj != nil {
				delete(locals, obj)
			}
		}
		return true
	})
	if len(locals) == 0 {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if obj := baseObject(pass, res); obj != nil && locals[obj] {
				pass.Reportf(ret.Pos(),
					"raw (unreduced) uint64 accumulator %s escapes exported function %s: reduce it before returning",
					obj.Name(), fn.Name.Name)
				delete(locals, obj) // one report per accumulator
			}
		}
		return true
	})
}

// isParam reports whether obj is one of fn's parameters, results or
// receiver (declared in the signature rather than the body).
func isParam(fn *ast.FuncDecl, obj types.Object) bool {
	pos := obj.Pos()
	return pos >= fn.Type.Pos() && pos < fn.Type.End() ||
		fn.Recv != nil && pos >= fn.Recv.Pos() && pos < fn.Recv.End()
}

// loopVars returns the objects a loop advances each iteration: range
// key/value variables, and identifiers assigned in a for statement's init
// and post clauses.
func loopVars(pass *Pass, loop ast.Node) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	add := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				vars[obj] = true
			} else if obj := pass.Info.Uses[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	switch l := loop.(type) {
	case *ast.RangeStmt:
		add(l.Key)
		add(l.Value)
	case *ast.ForStmt:
		for _, clause := range []ast.Stmt{l.Init, l.Post} {
			switch s := clause.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					add(lhs)
				}
			case *ast.IncDecStmt:
				add(s.X)
			}
		}
	}
	return vars
}
