// Package hotalloc flags per-call heap allocations inside functions
// annotated //nvo:hotpath — the cone→cutout→measure request path whose
// allocs/galaxy budget the hot-path benchmark pins. Inside an annotated
// function the analyzer reports:
//
//   - make and new builtin calls;
//   - &T{...} composite literals (the address forces a heap escape);
//   - slice and map composite literals (plain struct VALUE literals are
//     exempt: they live in registers or on the stack);
//   - append calls whose result is not assigned back to their own first
//     argument (x = append(x, ...) reuses x's capacity after the arena
//     or scratch pool pre-sized it; anything else grows a fresh backing
//     array per call);
//   - non-constant string concatenation (a + b, s += t), reported once per
//     chain: each builds a new string;
//   - fmt.Sprint, fmt.Sprintf and fmt.Sprintln calls, which box their
//     operands and build a new string. fmt.Errorf stays allowed: an error
//     path is not the hot path.
//
// The sanctioned pattern is to route allocation through an unannotated,
// reviewed helper — an arena method, a scratch-pool grow function — so
// the annotated body itself performs none. Findings are suppressible
// with //nvolint:ignore hotalloc <reason> like any other analyzer, and
// test files are exempt.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analyze"
)

// Marker is the doc-comment annotation that opts a function into the
// check.
const Marker = "nvo:hotpath"

// Analyzer is the hotalloc check.
var Analyzer = &analyze.Analyzer{
	Name: "hotalloc",
	Doc: "flag per-call heap allocations (make/new, &T{}, slice and map literals, append that cannot reuse " +
		"capacity, string concatenation, fmt.Sprint/Sprintf/Sprintln) inside functions annotated //nvo:hotpath: " +
		"the hot paths draw from request arenas, scratch pools and per-request buffers, so an allocation here " +
		"silently regresses a pinned allocs/galaxy budget",
	Run: run,
}

func run(pass *analyze.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			if pass.IsTestFile(fd.Pos()) {
				continue
			}
			checkBody(pass, fd)
		}
	}
	return nil
}

// isHotPath reports whether the declaration's doc comment carries the
// //nvo:hotpath marker.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimLeft(strings.TrimPrefix(c.Text, "//"), " \t")
		if strings.HasPrefix(text, Marker) {
			return true
		}
	}
	return false
}

func checkBody(pass *analyze.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// First pass: appends assigned back to their own first argument are
	// the capacity-reusing idiom and sanctioned.
	sanctioned := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			if exprString(as.Lhs[i]) == exprString(call.Args[0]) {
				sanctioned[call] = true
			}
		}
		return true
	})

	// The operands of a reported concatenation that are concatenations
	// themselves: a + b + c is one finding, not two.
	chained := map[*ast.BinaryExpr]bool{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure's body runs on its own schedule; the annotation
			// binds the annotated function's own statements.
			return false
		case *ast.BinaryExpr:
			if chained[n] || !isStringConcat(pass, n) {
				return true
			}
			for _, operand := range []ast.Expr{n.X, n.Y} {
				if inner, ok := ast.Unparen(operand).(*ast.BinaryExpr); ok && isStringConcat(pass, inner) {
					chained[inner] = true
				}
			}
			pass.Reportf(n.Pos(), "string concatenation in hot-path function %s allocates per call; append into a reused buffer", name)
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(pass, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "string concatenation in hot-path function %s allocates per call; append into a reused buffer", name)
			}
		case *ast.CallExpr:
			if fn := fmtPrinter(pass, n); fn != "" {
				pass.Reportf(n.Pos(), "fmt.%s in hot-path function %s boxes its operands and allocates per call; append with strconv into a reused buffer", fn, name)
			}
			switch {
			case isBuiltin(pass, n, "make"):
				pass.Reportf(n.Pos(), "make in hot-path function %s allocates per call; draw from the request arena or a reused scratch buffer", name)
			case isBuiltin(pass, n, "new"):
				pass.Reportf(n.Pos(), "new in hot-path function %s allocates per call; draw from the request arena or a reused scratch buffer", name)
			case isBuiltin(pass, n, "append") && !sanctioned[n]:
				pass.Reportf(n.Pos(), "append in hot-path function %s does not assign back to %s, so it cannot reuse capacity and may allocate per call", name, exprString(n.Args[0]))
			}
		case *ast.UnaryExpr:
			if lit, ok := innerCompositeLit(n); ok {
				pass.Reportf(lit.Pos(), "&composite literal in hot-path function %s escapes to the heap per call; reuse a request-scoped value", name)
				return false // the literal inside is already reported
			}
		case *ast.CompositeLit:
			tv, ok := pass.TypesInfo.Types[n]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal in hot-path function %s allocates per call; draw from the request arena or a reused scratch buffer", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal in hot-path function %s allocates per call; hoist it to a package-level table or the request arena", name)
			}
		}
		return true
	})
}

// isStringConcat reports whether b is a + of strings that the compiler does
// not fold to a constant.
func isStringConcat(pass *analyze.Pass, b *ast.BinaryExpr) bool {
	if b.Op != token.ADD {
		return false
	}
	tv, ok := pass.TypesInfo.Types[b]
	return ok && tv.Value == nil && isStringType(tv.Type)
}

// isString reports whether e is of string type.
func isString(pass *analyze.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && isStringType(tv.Type)
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// fmtPrinter returns the name of the fmt function call invokes when it is
// one that builds a string (Sprint, Sprintf, Sprintln), "" otherwise.
func fmtPrinter(pass *analyze.Pass, call *ast.CallExpr) string {
	switch name, _ := analyze.PkgFunc(pass.TypesInfo, call, "fmt"); name {
	case "Sprint", "Sprintf", "Sprintln":
		return name
	}
	return ""
}

// innerCompositeLit matches &T{...}, including the parenthesized form.
func innerCompositeLit(u *ast.UnaryExpr) (*ast.CompositeLit, bool) {
	if u.Op.String() != "&" {
		return nil, false
	}
	e := u.X
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	lit, ok := e.(*ast.CompositeLit)
	return lit, ok
}

// isBuiltin reports whether call invokes the named builtin (resolved
// through the type checker, so shadowing is handled).
func isBuiltin(pass *analyze.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// exprString renders a short source form of expr, used to pair an
// append's destination with its first argument.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	}
	return "?"
}
