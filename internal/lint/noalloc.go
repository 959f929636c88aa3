package lint

// noalloc enforces the zero-allocation contract of the hot kernels: a
// function whose doc comment carries //avcc:noalloc (MatMulInto, MatVecInto,
// MatVecBatchInto, EncodeMatrixInto, DecodeVectorsInto, FusedCombineInto,
// the NTT transforms, the leaf vector kernels they compose — DotPacked and
// the panel wrapper DotPackedRows among them — and the receipt plane's hashes:
// commit.ColumnLeaf, OutputLeaf, hashNode, Transcript.absorb and
// Transcript.block) must contain no heap-allocating construct:
//
//   - make / new / append (growth can reallocate)
//   - func literals (captured variables force a heap closure when it escapes)
//   - go statements (a goroutine is an allocation)
//   - &CompositeLit and slice/map composite literals
//   - string concatenation and string<->[]byte/[]rune conversions
//   - implicit boxing of a non-pointer-shaped value into an interface
//     (constants are exempt: the compiler materialises them statically)
//
// Deliberate exceptions — cold error paths, pool-miss refills, first-call
// lazies, literals proven by escape analysis to stay on the stack — are
// annotated in place with //avcc:alloc-ok <reason>, which exempts the line
// it sits on and the line below. The committed BENCH_kernels.json allocs/op
// column and the CI alloc gate (TestAllocGate) measure the same contract
// dynamically; this analyzer pins it at review time, before a benchmark
// ever runs.
//
// The check is intraprocedural by design: each annotated function vouches
// for its own body, and the helpers it composes (matMulRows, Dot, AXPYLazy,
// the pool plumbing) carry their own annotations.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAlloc is the //avcc:noalloc contract analyzer.
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "flag heap-allocating constructs inside //avcc:noalloc functions",
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !funcDirective(fn, "noalloc") {
				continue
			}
			checkNoAlloc(pass, file, fn)
		}
	}
	return nil
}

func checkNoAlloc(pass *Pass, file *ast.File, fn *ast.FuncDecl) {
	report := func(pos token.Pos, format string, args ...any) {
		if !pass.allowedAt(file, pos, "alloc-ok") {
			msg := "//avcc:noalloc function " + fn.Name.Name + ": " + format
			pass.Reportf(pos, msg, args...)
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCallAlloc(pass, n, report)
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.FuncLit:
			report(n.Pos(), "func literal may allocate a closure")
			return false // don't double-report the literal's own body
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal may allocate")
				}
			}
		case *ast.CompositeLit:
			if t := pass.Info.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(n.Pos(), "%s literal allocates", typeKindName(t))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if t := pass.Info.Types[n].Type; t != nil && isString(t) {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			checkAssignBoxing(pass, n, report)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, fn, n, report)
		}
		return true
	})
}

// checkCallAlloc flags allocating builtins, allocating conversions, and
// interface boxing at call boundaries.
func checkCallAlloc(pass *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun].(*types.Builtin); ok {
			switch obj.Name() {
			case "make":
				report(call.Pos(), "make allocates")
				return
			case "new":
				report(call.Pos(), "new allocates")
				return
			case "append":
				report(call.Pos(), "append may grow and reallocate")
				// fall through: spread arguments still box below
			}
		}
	}
	// Conversions: string([]byte), []byte(string), []rune(string), string
	// builds allocate; numeric conversions don't.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type, pass.Info.Types[call.Args[0]].Type
		if to != nil && from != nil && allocatingConversion(to, from) {
			report(call.Pos(), "conversion between string and byte/rune slice allocates")
		}
		return
	}
	// Interface boxing of call arguments.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		pt := paramTypeAt(sig, i, call)
		if pt == nil {
			continue
		}
		checkBoxing(pass, arg, pt, report)
	}
}

// callSignature resolves the *types.Signature of a call, nil for builtins,
// conversions and unresolvable callees.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// paramTypeAt returns the declared parameter type receiving argument i,
// unwrapping the variadic element type.
func paramTypeAt(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if call.Ellipsis.IsValid() {
			return params.At(n - 1).Type() // passed as a slice, no per-arg boxing
		}
		s, ok := params.At(n - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return s.Elem()
	}
	if i >= n {
		return nil
	}
	return params.At(i).Type()
}

// checkAssignBoxing flags non-pointer-shaped values assigned into
// interface-typed destinations.
func checkAssignBoxing(pass *Pass, stmt *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	if len(stmt.Lhs) != len(stmt.Rhs) {
		return
	}
	for i, rhs := range stmt.Rhs {
		lt := pass.Info.Types[stmt.Lhs[i]].Type
		if lt == nil && stmt.Tok == token.DEFINE {
			continue // inferred type: no conversion happens
		}
		if lt != nil {
			checkBoxing(pass, rhs, lt, report)
		}
	}
}

// checkReturnBoxing flags boxing at return boundaries.
func checkReturnBoxing(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	results := fn.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range results.List {
		t := pass.Info.Types[field.Type].Type
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // multi-value call forwarding; conversion-free
	}
	for i, res := range ret.Results {
		if resultTypes[i] != nil {
			checkBoxing(pass, res, resultTypes[i], report)
		}
	}
}

// checkBoxing reports expr if storing it into destination type dst wraps a
// non-pointer-shaped concrete value in an interface at runtime. Pointer-
// shaped values (pointers, channels, maps, funcs, unsafe pointers) fit the
// interface data word directly; constants are materialised statically.
func checkBoxing(pass *Pass, expr ast.Expr, dst types.Type, report func(token.Pos, string, ...any)) {
	if !types.IsInterface(dst) {
		return
	}
	tv, ok := pass.Info.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil || tv.IsNil() {
		return // constants and nil convert without allocating
	}
	if types.IsInterface(tv.Type) {
		return // interface-to-interface: no box
	}
	if pointerShaped(tv.Type) {
		return
	}
	report(expr.Pos(), "boxing %s into %s allocates", tv.Type, dst)
}

// pointerShaped reports whether values of t occupy exactly one pointer word
// (so interface conversion stores them inline).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// allocatingConversion reports string<->[]byte/[]rune conversions.
func allocatingConversion(to, from types.Type) bool {
	return isString(to) && isByteOrRuneSlice(from) || isString(from) && isByteOrRuneSlice(to)
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// typeKindName names a composite-literal kind for diagnostics.
func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
