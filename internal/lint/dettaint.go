package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetTaint is the interprocedural determinism-taint analyzer. Where
// detrand and maporder flag nondeterminism at the site of the source,
// DetTaint follows the value: a helper that builds a slice in map
// iteration order and returns it through two more helpers is still a
// nondeterministic value, and writing it into simulator state breaks
// the bit-identical-replay contract just as surely as ranging the map
// at the sink would.
//
// Sources of taint:
//
//   - the key/value variables of a `range` over a map (their binding
//     order is randomized on purpose);
//   - values assigned inside a `select` with two or more cases (the
//     runtime picks a ready case pseudo-randomly);
//   - the global math/rand functions (process-shared generator state);
//   - time.Now/Since/Until (host clock);
//   - converting a pointer to uintptr or unsafe.Pointer (allocator
//     addresses vary run to run — pointer identity used as data).
//
// Taint propagates through assignments, expressions, and — via
// per-function return summaries iterated to a fixpoint over the
// whole-program call graph — through calls, across package boundaries.
// Sorting launders order taint: passing the value to package sort or
// slices erases it (the collect-then-sort idiom).
//
// Sinks, where findings are reported:
//
//   - a tainted value assigned into a field of a module-declared
//     struct inside an internal/ package (simulator state);
//   - a taint source or a call to a taint-returning function inside
//     the per-cycle hot path (anything reachable from Network.Step or
//     a controller scan — see HotRoots).
type DetTaint struct{}

func (DetTaint) Name() string { return "dettaint" }
func (DetTaint) Doc() string {
	return "track nondeterministic values through the call graph into simulator state"
}

// Run implements Analyzer; dettaint is whole-program only.
func (DetTaint) Run(*Package) []Finding { return nil }

func (DetTaint) RunProgram(prog *Program) []Finding {
	t := &taintAnalysis{prog: prog, summaries: map[*FuncNode]string{}}
	// Fixpoint over return summaries: each round re-derives every
	// function's summary with the previous round's view of its callees.
	// Monotone (summaries only gain taint), so it terminates.
	for round := 0; round <= len(prog.Funcs); round++ {
		changed := false
		for _, n := range prog.Funcs {
			if n.Decl.Body == nil {
				continue
			}
			reason := t.analyze(n, nil)
			if reason != "" && t.summaries[n] == "" {
				t.summaries[n] = reason
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	hot := prog.Reachable(prog.HotRoots(), nil)
	var findings []Finding
	for _, n := range prog.Funcs {
		if n.Decl.Body == nil {
			continue
		}
		sink := &sinkContext{node: n, hot: hot[n]}
		t.analyze(n, sink)
		findings = append(findings, sink.findings...)
	}
	return findings
}

// taintAnalysis carries the program-wide state of the fixpoint.
type taintAnalysis struct {
	prog      *Program
	summaries map[*FuncNode]string // func → why its return value is tainted ("" = clean)
}

// sinkContext switches analyze into reporting mode for one function.
type sinkContext struct {
	node     *FuncNode
	hot      bool
	findings []Finding
}

// analyze walks one function body, tracking tainted objects in source
// order, and returns the reason the function's return value is tainted
// ("" when clean). With a non-nil sink it additionally reports sink
// findings.
func (t *taintAnalysis) analyze(n *FuncNode, sink *sinkContext) string {
	p := n.Pkg
	body := n.Decl.Body
	tainted := map[types.Object]string{}
	retReason := ""

	// Pre-passes: spans of select statements with ≥2 cases (anything
	// assigned inside depends on arm choice), and the positions at
	// which expressions are laundered by a sort call (for the
	// written-then-sorted sink filter).
	var selectSpans [][2]token.Pos
	launders := map[string][]token.Pos{} // ExprString → sort-call positions
	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.SelectStmt:
			if len(nd.Body.List) >= 2 {
				selectSpans = append(selectSpans, [2]token.Pos{nd.Pos(), nd.End()})
			}
		case *ast.CallExpr:
			if fn := calledFunc(p, nd); fn != nil && fn.Pkg() != nil {
				if path := fn.Pkg().Path(); path == "sort" || path == "slices" {
					for _, arg := range nd.Args {
						key := types.ExprString(ast.Unparen(arg))
						launders[key] = append(launders[key], nd.Pos())
					}
				}
			}
		}
		return true
	})
	inSelect := func(pos token.Pos) bool {
		for _, s := range selectSpans {
			if pos >= s[0] && pos < s[1] {
				return true
			}
		}
		return false
	}
	launderedAfter := func(e ast.Expr, pos token.Pos) bool {
		for _, lp := range launders[types.ExprString(ast.Unparen(e))] {
			if lp > pos {
				return true
			}
		}
		return false
	}

	// taintOf explains why an expression is tainted, or returns "".
	var taintOf func(e ast.Expr) string
	taintOf = func(e ast.Expr) string {
		switch e := e.(type) {
		case nil:
			return ""
		case *ast.Ident:
			if obj := p.Info.Uses[e]; obj != nil {
				return tainted[obj]
			}
			return ""
		case *ast.ParenExpr:
			return taintOf(e.X)
		case *ast.StarExpr:
			return taintOf(e.X)
		case *ast.UnaryExpr:
			return taintOf(e.X)
		case *ast.BinaryExpr:
			if r := taintOf(e.X); r != "" {
				return r
			}
			return taintOf(e.Y)
		case *ast.IndexExpr:
			if r := taintOf(e.X); r != "" {
				return r
			}
			return taintOf(e.Index)
		case *ast.SliceExpr:
			return taintOf(e.X)
		case *ast.SelectorExpr:
			return taintOf(e.X)
		case *ast.TypeAssertExpr:
			return taintOf(e.X)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if r := taintOf(elt); r != "" {
					return r
				}
			}
			return ""
		case *ast.CallExpr:
			return t.taintOfCall(p, e, taintOf)
		}
		return ""
	}

	ast.Inspect(body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			tv := p.Info.Types[nd.X]
			if tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			for _, v := range []ast.Expr{nd.Key, nd.Value} {
				if id, ok := v.(*ast.Ident); ok && id.Name != "_" {
					if obj := p.Info.Defs[id]; obj != nil {
						tainted[obj] = "map iteration order"
					} else if obj := p.Info.Uses[id]; obj != nil {
						tainted[obj] = "map iteration order"
					}
				}
			}
		case *ast.AssignStmt:
			t.flowAssign(p, nd, tainted, taintOf, inSelect)
			if sink != nil {
				t.reportFieldSinks(p, nd, sink, taintOf, launderedAfter)
			}
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if r := taintOf(res); r != "" && retReason == "" {
					retReason = r
				}
			}
		case *ast.CallExpr:
			// Laundering: the sort call clears object-level taint from
			// this point on (walk order approximates source order).
			if fn := calledFunc(p, nd); fn != nil && fn.Pkg() != nil {
				if path := fn.Pkg().Path(); path == "sort" || path == "slices" {
					for _, arg := range nd.Args {
						if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
							if obj := p.Info.Uses[id]; obj != nil {
								delete(tainted, obj)
							}
						}
					}
					return true
				}
			}
			if sink != nil && sink.hot {
				t.reportHotCall(p, nd, sink)
			}
		}
		return true
	})
	return retReason
}

// flowAssign propagates taint through one assignment.
func (t *taintAnalysis) flowAssign(p *Package, as *ast.AssignStmt, tainted map[types.Object]string,
	taintOf func(ast.Expr) string, inSelect func(token.Pos) bool) {
	reasons := make([]string, len(as.Lhs))
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			reasons[i] = taintOf(rhs)
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value call or comma-ok: one reason for every target.
		r := taintOf(as.Rhs[0])
		for i := range reasons {
			reasons[i] = r
		}
	}
	sel := inSelect(as.Pos())
	for i, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		switch {
		case sel:
			tainted[obj] = "select arm choice"
		case reasons[i] != "":
			// Commutative self-accumulation (x += v, x = x + v over
			// numbers) does not inherit order taint: the sum is the
			// same whatever the iteration order.
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && isNumeric(p, lhs) {
				continue
			}
			tainted[obj] = reasons[i]
		case as.Tok == token.ASSIGN:
			delete(tainted, obj) // strong update with a clean value
		}
	}
}

// isNumeric reports whether the expression has a basic numeric type.
func isNumeric(p *Package, e ast.Expr) bool {
	tv := p.Info.Types[e]
	if tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// taintOfCall classifies a call expression: a taint source, a call to
// a taint-returning function, a launderer, or a pass-through of its
// arguments' taint.
func (t *taintAnalysis) taintOfCall(p *Package, call *ast.CallExpr, taintOf func(ast.Expr) string) string {
	// Conversions: pointer identity escaping into an integer.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := p.Info.Types[call.Args[0]].Type
		if b, ok := dst.(*types.Basic); ok && (b.Kind() == types.Uintptr || b.Kind() == types.UnsafePointer) {
			if src != nil {
				if _, isPtr := src.Underlying().(*types.Pointer); isPtr {
					return "pointer identity (uintptr conversion)"
				}
				if b2, ok := src.Underlying().(*types.Basic); ok && b2.Kind() == types.UnsafePointer {
					return "pointer identity (uintptr conversion)"
				}
			}
		}
		return taintOf(call.Args[0]) // other conversions pass taint through
	}
	if src := hostInput(p, call); src != nil {
		if isClockRead(src) {
			return "wall-clock read (time." + src.Name() + ")"
		}
		return "global math/rand state"
	}
	fn := calledFunc(p, call)
	if fn != nil && fn.Pkg() != nil {
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
			if path := fn.Pkg().Path(); path == "sort" || path == "slices" {
				return "" // launderers: deterministic output order
			}
		}
		if node := t.prog.Node(fn); node != nil {
			if r := t.summaries[node]; r != "" {
				return r + " (via " + node.FullName() + ")"
			}
			// A module function with a clean summary still passes its
			// arguments' taint through conservatively below.
		}
	}
	if bn := builtinName(p, call.Fun); bn == "len" || bn == "cap" {
		return "" // a tainted collection has a deterministic size
	}
	for _, arg := range call.Args {
		if r := taintOf(arg); r != "" {
			return r
		}
	}
	// Method call on a tainted receiver.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return taintOf(sel.X)
	}
	return ""
}

// reportFieldSinks flags assignments whose target is a module struct
// field and whose value is tainted — unless the field is sorted later
// in the same function (collect-then-sort through a field).
func (t *taintAnalysis) reportFieldSinks(p *Package, as *ast.AssignStmt, sink *sinkContext,
	taintOf func(ast.Expr) string, launderedAfter func(ast.Expr, token.Pos) bool) {
	if !strings.Contains(p.Path+"/", "/internal/") {
		return
	}
	for i, lhs := range as.Lhs {
		selExpr, ok := baseSelector(lhs)
		if !ok {
			continue
		}
		// Commutative numeric self-accumulation (field += v) is
		// order-independent, same as the ident case in flowAssign.
		if as.Tok != token.ASSIGN && isNumeric(p, lhs) {
			continue
		}
		s := p.Info.Selections[selExpr]
		if s == nil || s.Kind() != types.FieldVal {
			continue
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok || t.prog.Field(fv) == nil {
			continue
		}
		var rhs ast.Expr
		if len(as.Lhs) == len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		reason := taintOf(rhs)
		if reason == "" {
			continue
		}
		if launderedAfter(lhs, as.Pos()) {
			continue
		}
		sink.findings = append(sink.findings, p.finding("dettaint", as,
			"%s flows into simulator state %s; derive the value deterministically (seeded rand, sorted keys, cycle time)",
			reason, t.prog.FieldKey(fv)))
	}
}

// reportHotCall flags taint entering the per-cycle hot path through a
// call: either a direct source or a helper whose return is tainted.
func (t *taintAnalysis) reportHotCall(p *Package, call *ast.CallExpr, sink *sinkContext) {
	if src := hostInput(p, call); src != nil {
		if isClockRead(src) {
			sink.findings = append(sink.findings, p.finding("dettaint", call,
				"wall-clock time.%s inside the per-cycle hot path (%s is reachable from Step)",
				src.Name(), sink.node.FullName()))
		} else {
			sink.findings = append(sink.findings, p.finding("dettaint", call,
				"global rand.%s inside the per-cycle hot path (%s is reachable from Step)",
				src.Name(), sink.node.FullName()))
		}
		return
	}
	if node := t.prog.Node(calledFunc(p, call)); node != nil {
		if r := t.summaries[node]; r != "" {
			sink.findings = append(sink.findings, p.finding("dettaint", call,
				"call to %s returns a nondeterministic value (%s) inside the per-cycle hot path",
				node.FullName(), r))
		}
	}
}
