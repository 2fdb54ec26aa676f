package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// hotpathAnalyzer enforces the zero-allocation property of functions marked
// //mlvlsi:hotpath (the tile walk and its binning pass, Wires.measure, the
// occupancy indexer and pool). The bitset verifier's 35x win over the map
// path is a constant-factor result — exactly the kind the source paper
// fights for — and one fmt.Sprintf per edge erases it. Inside a marked
// function (including nested function literals) the analyzer bans:
//
//   - calls into package fmt (every variant formats through reflection and
//     allocates);
//   - composite map and slice literals (each evaluation allocates; struct
//     and array literals are fine);
//   - string concatenation via + or += (allocates the joined string);
//   - explicit conversions of non-interface values to interface types
//     (boxes the value onto the heap);
//   - append on every loop iteration onto a slice the function declared
//     without capacity (each doubling reallocates and copies; size the
//     slice before the loop or draw it from a scratch slab). Targets that
//     are parameters, outer-scope variables, or pointer dereferences are
//     the caller's to size, and appends behind a conditional are the rare
//     path (violations, contested slots); neither is flagged.
//
// The directive is a contract, not a heuristic: annotate only functions
// whose legal path must stay allocation-free, and keep cold error handling
// in unannotated helpers.
var hotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "no fmt calls, map/slice literals, string concatenation, interface conversions, or capacity-less loop appends in //mlvlsi:hotpath functions",
	Run: func(m *Module, report func(pos token.Pos, message string)) {
		for _, pkg := range m.Packages {
			eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
				if isHotpath(fd) {
					checkHotBody(pkg, fd, report)
					checkAppendGrowth(pkg, fd, report)
				}
			})
		}
	},
}

func checkHotBody(pkg *Package, fd *ast.FuncDecl, report func(pos token.Pos, message string)) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
						report(n.Pos(), fmt.Sprintf("fmt.%s call in hotpath function %s allocates; format lazily outside the hot path (cf. Violation's coded reasons)", sel.Sel.Name, name))
					}
				}
			}
			if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() {
				checkInterfaceConversion(pkg, n, name, report)
			}
		case *ast.CompositeLit:
			if tv, ok := pkg.Info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					report(n.Pos(), fmt.Sprintf("map literal in hotpath function %s allocates; hoist it to a package variable or an unannotated cold path", name))
				case *types.Slice:
					report(n.Pos(), fmt.Sprintf("slice literal in hotpath function %s allocates; reuse a scratch buffer or move it off the hot path", name))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n.X) {
				report(n.Pos(), fmt.Sprintf("string concatenation in hotpath function %s allocates; use coded values and format lazily", name))
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				report(n.Pos(), fmt.Sprintf("string concatenation in hotpath function %s allocates; use coded values and format lazily", name))
			}
		}
		return true
	})
}

// checkInterfaceConversion flags explicit conversions T(x) where T is an
// interface type and x is not already an interface.
func checkInterfaceConversion(pkg *Package, call *ast.CallExpr, name string, report func(pos token.Pos, message string)) {
	if len(call.Args) != 1 {
		return
	}
	target, ok := pkg.Info.Types[call.Fun]
	if !ok || target.Type == nil {
		return
	}
	if !types.IsInterface(target.Type) {
		return
	}
	arg, ok := pkg.Info.Types[call.Args[0]]
	if ok && arg.Type != nil && !types.IsInterface(arg.Type) {
		report(call.Pos(), fmt.Sprintf("conversion to interface type %s in hotpath function %s boxes its operand onto the heap; keep hot-path values concrete", target.Type.String(), name))
	}
}

// checkAppendGrowth flags `x = append(x, ...)` that runs on every iteration
// of a for or range loop when x is a slice this function declared without
// preallocated capacity (`var x []T`, an empty literal, or a zero-capacity
// make). Such a loop reallocates on every doubling — the exact allocation
// profile the arena slabs exist to remove. Three shapes are deliberately
// exempt: targets sized up front; targets the caller owns (a parameter, an
// outer-scope variable, a pointer dereference like `*out = append(*out,
// ...)`); and appends nested under an if/switch/select inside the loop,
// which are the rare path — a violation or contested slot — where the legal
// path never allocates and lazy growth is the right call.
func checkAppendGrowth(pkg *Package, fd *ast.FuncDecl, report func(pos token.Pos, message string)) {
	name := fd.Name.Name
	// Pass 1: local slice variables declared without capacity.
	noCap := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					obj := pkg.Info.Defs[id]
					if obj == nil || !isSliceVar(obj) {
						continue
					}
					if len(vs.Values) == 0 || (i < len(vs.Values) && isCapacityless(pkg, vs.Values[i])) {
						noCap[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pkg.Info.Defs[id]
				if obj != nil && isSliceVar(obj) && isCapacityless(pkg, n.Rhs[i]) {
					noCap[obj] = true
				}
			}
		}
		return true
	})
	if len(noCap) == 0 {
		return
	}
	// Pass 2: unconditional appends onto those variables inside loop bodies.
	// The outer walk visits every loop, nested ones included, so each body
	// scan stops at conditionals (the rare path) and at nested loops (they
	// get their own scan, against their own per-iteration cost).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch l := n.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		default:
			return true
		}
		ast.Inspect(body, func(m ast.Node) bool {
			switch m.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt,
				*ast.SelectStmt, *ast.ForStmt, *ast.RangeStmt:
				return false
			}
			as, ok := m.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isBuiltinAppend(pkg, call) || len(call.Args) == 0 {
				return true
			}
			arg, ok := call.Args[0].(*ast.Ident)
			obj := pkg.Info.Uses[id]
			if !ok || obj == nil || pkg.Info.Uses[arg] != obj {
				return true
			}
			if noCap[obj] {
				report(as.Pos(), fmt.Sprintf("append grows %s on every iteration of a loop in hotpath function %s without preallocated capacity; size it before the loop or draw it from a scratch slab", id.Name, name))
			}
			return true
		})
		return true
	})
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pkg *Package, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, builtin := pkg.Info.Uses[id].(*types.Builtin)
	return builtin
}

// isSliceVar reports whether obj is a variable of slice type.
func isSliceVar(obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	_, ok := obj.Type().Underlying().(*types.Slice)
	return ok
}

// isCapacityless reports whether expr initializes a slice with no usable
// capacity: nil, an empty slice literal, or make with a constant-zero
// length and no capacity argument. A make with a nonzero or non-constant
// size, a slicing expression, or any call result counts as sized — the
// capacity decision happened elsewhere.
func isCapacityless(pkg *Package, expr ast.Expr) bool {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		tv, ok := pkg.Info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		_, isSlice := tv.Type.Underlying().(*types.Slice)
		return isSlice && len(e.Elts) == 0
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		if !ok || id.Name != "make" || len(e.Args) != 2 {
			return false
		}
		if _, builtin := pkg.Info.Uses[id].(*types.Builtin); !builtin {
			return false
		}
		tv, ok := pkg.Info.Types[e.Args[1]]
		return ok && tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

func isStringExpr(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}
