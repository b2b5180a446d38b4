package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `for range` over a map whose body has order-dependent
// effects: appending to a slice that outlives the loop, enqueueing work
// (migrate.Move batches and the like), or accumulating floating-point
// totals. Go randomizes map iteration order per process, so any such
// loop perturbs replay unless the collected results are deterministically
// sorted afterwards — the analyzer recognizes a subsequent sort.* /
// slices.Sort* call on the collected slice and stays quiet for that
// common fix (see policy.RankBuf.MergedRanking for the canonical pattern).
//
// Order-independent bodies — filling another map or set, integer
// counting, finding a max — are legal and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration whose body appends, enqueues, or accumulates " +
		"floats without a deterministic sort; map order perturbs replay",
	Applies: inSimTree,
	Run:     runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			mapOrderCheckFunc(pass, fd.Body)
		}
	}
	return nil
}

func mapOrderCheckFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		mapOrderCheckRange(pass, body, rs)
		return true
	})
}

// mapOrderCheckRange reports the first order-dependent effect inside one
// map-range body.
func mapOrderCheckRange(pass *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt) {
	mapExpr := types.ExprString(rs.X)
	done := false
	report := func(pos token.Pos, effect string) {
		if done {
			return
		}
		done = true
		pass.Reportf(rs.Pos(),
			"iteration over map %s %s; map order is randomized per process, so this perturbs replay — iterate sorted keys instead",
			mapExpr, effect)
		_ = pos
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if done {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if isBuiltinAppend(pass, fun) && len(n.Args) > 0 {
					if obj := rootObject(pass, n.Args[0]); obj != nil &&
						declaredOutside(obj, rs) && !sortedAfter(pass, fn, rs, obj) {
						report(n.Pos(), "appends to "+types.ExprString(n.Args[0]))
					}
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Enqueue" && pass.PkgNameOf(fun) == "" {
					report(n.Pos(), "enqueues work via "+types.ExprString(fun))
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if len(n.Lhs) == 1 && IsFloat(pass.TypeOf(n.Lhs[0])) {
					if obj := rootObject(pass, n.Lhs[0]); obj != nil && declaredOutside(obj, rs) {
						report(n.Pos(), "accumulates float "+types.ExprString(n.Lhs[0]))
					}
				}
			}
		}
		return true
	})
}

// isBuiltinAppend reports whether id resolves to the append builtin.
func isBuiltinAppend(pass *Pass, id *ast.Ident) bool {
	if id.Name != "append" {
		return false
	}
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// rootObject resolves the variable at the base of e (out, s.field,
// xs[i]) to its types.Object, or nil.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return pass.TypesInfo.ObjectOf(x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether obj's declaration lies outside the
// range statement — effects on loop-local state cannot leak iteration
// order.
func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfter reports whether, later in the enclosing function, obj is
// passed to a sort.* or slices.* call — the deterministic-sort idiom
// that makes collect-then-sort legal.
func sortedAfter(pass *Pass, fn *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pass.PkgNameOf(sel) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if rootObject(pass, arg) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
