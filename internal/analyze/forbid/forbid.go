// Package forbid is the one body behind the analyzers of the form "using X
// is forbidden outside package Y": noclock, seededrand, sharedclient and
// fabricpool. Each of them is a list of rules over a foreign package's
// names, an optional allow-list of importing packages the ban exempts, and
// the invariant's rationale in its own package doc; the allow-list flag, the
// syntax walk and the name resolution live here once.
package forbid

import (
	"go/ast"
	"go/types"
	"slices"

	"repro/internal/analyze"
)

// A Kind is the syntactic use of a name that a rule bans.
type Kind int

const (
	// Call bans calling a package-level function.
	Call Kind = iota
	// Ref bans any reference to a package-level function, called or merely
	// stored (cfg.Now = time.Now is a wall-clock read at one remove).
	Ref
	// Var bans referring to a package-level variable.
	Var
	// Lit bans composite literals of a named type.
	Lit
)

// A Rule bans one kind of use of names exported by package Pkg.
type Rule struct {
	Kind Kind
	Pkg  string
	// Names lists the banned names; nil bans every name of Pkg.
	Names []string
	// Except lists names the rule lets through.
	Except []string
	// Msg is the diagnostic, a format whose one argument is the name.
	Msg string
}

// New returns the analyzer that reports every use the rules ban in non-test
// files. A non-empty allowUsage registers the -<name>.allow flag — a
// comma-separated list of importing packages exempt from the ban — with
// allowDefault as its default.
func New(name, doc, allowDefault, allowUsage string, rules ...Rule) *analyze.Analyzer {
	a := &analyze.Analyzer{Name: name, Doc: doc}
	if allowUsage != "" {
		a.Flags.String("allow", allowDefault, allowUsage)
	}
	a.Run = func(pass *analyze.Pass) error {
		if f := a.Flags.Lookup("allow"); f != nil && pass.Pkg != nil &&
			slices.Contains(analyze.CommaList(f.Value.String()), pass.Pkg.Path()) {
			return nil
		}
		for _, f := range pass.Files {
			if pass.IsTestFile(f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				for i := range rules {
					if name, ok := rules[i].match(pass.TypesInfo, n); ok {
						pass.Reportf(n.Pos(), rules[i].Msg, name)
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// match reports the name through which node n makes the use r bans.
func (r *Rule) match(info *types.Info, n ast.Node) (string, bool) {
	var name string
	var ok bool
	switch n := n.(type) {
	case *ast.CallExpr:
		if r.Kind == Call {
			name, ok = analyze.PkgFunc(info, n, r.Pkg)
		}
	case *ast.SelectorExpr:
		switch r.Kind {
		case Ref:
			// PkgFunc resolves a call through its Fun alone, so the
			// bare selector stands in as one.
			name, ok = analyze.PkgFunc(info, &ast.CallExpr{Fun: n}, r.Pkg)
		case Var:
			name, ok = analyze.PkgVar(info, n, r.Pkg)
		}
	case *ast.CompositeLit:
		if named, isNamed := info.Types[n].Type.(*types.Named); r.Kind == Lit && isNamed {
			obj := named.Obj()
			name, ok = obj.Name(), obj.Pkg() != nil && obj.Pkg().Path() == r.Pkg
		}
	}
	if !ok || r.Names != nil && !slices.Contains(r.Names, name) || slices.Contains(r.Except, name) {
		return "", false
	}
	return name, true
}
