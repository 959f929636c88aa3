package lint

// typederr enforces the error-matching contract: the module's typed errors
// (*scheme.InvalidConfigError, *scheme.NonCanonicalDataError,
// scheme.ErrQueueFull, ...) travel through fmt.Errorf("%w") wrapping at
// every layer boundary, so a direct type assertion or a == comparison on a
// possibly-wrapped error silently stops matching the moment anyone adds
// context to the chain. errors.Is and errors.As unwrap; nothing else does.
//
//	rule 1: a type assertion or type-switch case asserting an interface-typed
//	        error value to a module-defined error type must be errors.As.
//	rule 2: ==/!= (and switch-case equality) against a module-defined exported
//	        Err* sentinel must be errors.Is. Comparisons against nil are fine.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TypedErr is the wrapped-error matching analyzer.
var TypedErr = &Analyzer{
	Name: "typederr",
	Doc:  "flag type assertions and == comparisons on possibly-wrapped module errors; use errors.Is/errors.As",
	Run:  runTypedErr,
}

func runTypedErr(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // x.(type) inside a type switch; handled below
				}
				checkErrAssert(pass, n.X, n.Type)
			case *ast.TypeSwitchStmt:
				if x, clauses := typeSwitchParts(n); x != nil {
					for _, t := range clauses {
						checkErrAssert(pass, x, t)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					checkSentinelCompare(pass, n.X, n.Y, n.OpPos)
				}
			case *ast.SwitchStmt:
				checkSentinelSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkErrAssert reports x.(T) when x is interface-typed (so a wrapper can
// hide the concrete error) and T is a module-defined error type.
func checkErrAssert(pass *Pass, x ast.Expr, typeExpr ast.Expr) {
	xt := pass.Info.Types[x].Type
	if xt == nil || !types.IsInterface(xt) || !implementsError(xt) {
		return
	}
	tt := pass.Info.Types[typeExpr].Type
	if tt == nil || !isModuleErrorType(tt) {
		return
	}
	pass.Reportf(typeExpr.Pos(),
		"type assertion to %s misses wrapped errors: use errors.As", tt)
}

// typeSwitchParts extracts the switched expression and the per-case type
// expressions from a type switch.
func typeSwitchParts(n *ast.TypeSwitchStmt) (ast.Expr, []ast.Expr) {
	var assert *ast.TypeAssertExpr
	switch s := n.Assign.(type) {
	case *ast.ExprStmt:
		assert, _ = ast.Unparen(s.X).(*ast.TypeAssertExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			assert, _ = ast.Unparen(s.Rhs[0]).(*ast.TypeAssertExpr)
		}
	}
	if assert == nil {
		return nil, nil
	}
	var clauses []ast.Expr
	for _, stmt := range n.Body.List {
		if cc, ok := stmt.(*ast.CaseClause); ok {
			clauses = append(clauses, cc.List...)
		}
	}
	return assert.X, clauses
}

// checkSentinelCompare reports x ==/!= sentinel (either side).
func checkSentinelCompare(pass *Pass, x, y ast.Expr, pos token.Pos) {
	for _, pair := range [][2]ast.Expr{{x, y}, {y, x}} {
		val, sentinel := pair[0], pair[1]
		obj := sentinelObject(pass, sentinel)
		if obj == nil {
			continue
		}
		if tv, ok := pass.Info.Types[val]; ok && tv.IsNil() {
			continue
		}
		pass.Reportf(pos,
			"comparison with %s misses wrapped errors: use errors.Is", obj.Name())
		return
	}
}

// checkSentinelSwitch reports switch err { case ErrX: } — the cases compile
// to == and inherit its wrapped-error blindness.
func checkSentinelSwitch(pass *Pass, n *ast.SwitchStmt) {
	if n.Tag == nil {
		return
	}
	tt := pass.Info.Types[n.Tag].Type
	if tt == nil || !types.IsInterface(tt) || !implementsError(tt) {
		return
	}
	for _, stmt := range n.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if obj := sentinelObject(pass, e); obj != nil {
				pass.Reportf(e.Pos(),
					"switch case on %s misses wrapped errors: use errors.Is", obj.Name())
			}
		}
	}
}

// sentinelObject resolves e to a module-defined exported Err* package-level
// variable of error type, nil otherwise.
func sentinelObject(pass *Pass, e ast.Expr) types.Object {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	obj, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || obj.Pkg() == nil || !inModule(obj.Pkg().Path()) {
		return nil
	}
	if obj.Parent() != obj.Pkg().Scope() || !strings.HasPrefix(obj.Name(), "Err") {
		return nil
	}
	if !implementsError(obj.Type()) {
		return nil
	}
	return obj
}

// isModuleErrorType reports whether t (possibly *T) is a named type defined
// in this module that implements error.
func isModuleErrorType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !inModule(pkg.Path()) {
		return false
	}
	return implementsError(t)
}

// implementsError reports whether t satisfies the universe error interface.
func implementsError(t types.Type) bool {
	iface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return iface != nil && types.Implements(t, iface)
}

// inModule reports whether pkgPath belongs to this module or to a test
// corpus package loaded under the lintcheck/ pseudo-prefix.
func inModule(pkgPath string) bool {
	return pkgPath == "repro" ||
		strings.HasPrefix(pkgPath, "repro/") ||
		strings.HasPrefix(pkgPath, "lintcheck/")
}
