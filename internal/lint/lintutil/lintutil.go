// Package lintutil holds the pieces every kairoslint analyzer and driver
// shares: the repo's annotation conventions (//kairos:hotpath,
// //kairos:locked, "guarded by <mu>" field comments), the
// //kairoslint:allow line-suppression escape hatch, and a stdlib-only
// type-checking helper built on the source importer (the repo vendors no
// third-party code, so golang.org/x/tools/go/packages is off the table).
package lintutil

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// HasMarker reports whether a comment group contains the given directive
// as the first field of a line comment, e.g. "//kairos:hotpath" or
// "//kairos:ack — why this function acks". Directive comments follow the
// Go convention: no space after the slashes, machine-readable, and they
// may share the group with prose lines; a mention of the directive
// inside prose does not count.
func HasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue
		}
		if f := strings.Fields(text); len(f) > 0 && f[0] == marker {
			return true
		}
	}
	return false
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// GuardedBy extracts the mutex field name from the first "guarded by
// <name>" phrase found in the given comment groups (a struct field's Doc
// and trailing Comment). ok is false when no group declares a guard.
func GuardedBy(groups ...*ast.CommentGroup) (mutex string, ok bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(g.Text()); m != nil {
			return m[1], true
		}
	}
	return "", false
}

// allowPrefix introduces a line suppression: a comment of the form
// "//kairoslint:allow name1 name2: reason" on the same line as a
// diagnostic silences those analyzers there; a directive standing alone
// on its own line (no code before it) silences the line below, for call
// sites too long to carry a trailing comment. The reason after the
// colon is mandatory — a directive without one still suppresses (so the
// original finding is not double-reported) but is itself surfaced
// through Bad and reported by the driver as an `allow` finding.
const allowPrefix = "kairoslint:allow"

// Suppressions indexes the //kairoslint:allow comments of a package so
// the driver can drop suppressed diagnostics by (file, line).
type Suppressions struct {
	fset *token.FileSet
	// byLine maps file/line to the analyzer names allowed there.
	byLine map[suppKey]map[string]bool
	bad    []BadWaiver
}

// BadWaiver is a //kairoslint:allow directive that violates the waiver
// grammar: missing the mandatory ": <reason>" tail, or naming no
// analyzer before it.
type BadWaiver struct {
	Pos  token.Pos
	Text string
}

type suppKey struct {
	file string
	line int
}

// NewSuppressions scans the files' comments for allow directives.
func NewSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{fset: fset, byLine: map[suppKey]map[string]bool{}}
	for _, f := range files {
		codeLines := linesWithCode(fset, f)
		for _, g := range f.Comments {
			for _, c := range g.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, allowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != ':' {
					continue // some other directive, e.g. kairoslint:allowfoo
				}
				nameList, reason, hasReason := strings.Cut(rest, ":")
				names := strings.Fields(nameList)
				if !hasReason || strings.TrimSpace(reason) == "" || len(names) == 0 {
					s.bad = append(s.bad, BadWaiver{Pos: c.Pos(), Text: text})
				}
				pos := fset.Position(c.Pos())
				lines := []int{pos.Line}
				if !codeLines[pos.Line] {
					// The directive stands alone on its line: it waives
					// the line below it.
					lines = append(lines, pos.Line+1)
				}
				for _, line := range lines {
					key := suppKey{file: pos.Filename, line: line}
					allowed := s.byLine[key]
					if allowed == nil {
						allowed = map[string]bool{}
						s.byLine[key] = allowed
					}
					for _, name := range names {
						allowed[name] = true
					}
				}
			}
		}
	}
	return s
}

// linesWithCode returns the set of lines on which some non-comment
// syntax node begins or ends — the lines a trailing comment can share
// with code. A comment on any other line stands alone.
func linesWithCode(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		case *ast.File:
			return true
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()-1).Line] = true
		return true
	})
	return lines
}

// Bad returns the malformed allow directives found in the scanned files,
// in encounter order. The driver turns each into an `allow` finding — a
// waiver without a reason is itself a violation.
func (s *Suppressions) Bad() []BadWaiver { return s.bad }

// Allowed reports whether the analyzer is suppressed on pos's line,
// either by a trailing directive there or by a standalone directive on
// the line above.
func (s *Suppressions) Allowed(pos token.Pos, analyzer string) bool {
	p := s.fset.Position(pos)
	return s.byLine[suppKey{file: p.Filename, line: p.Line}][analyzer]
}

// NewImporter returns a source-based importer sharing fset, suitable for
// type-checking module packages and their stdlib dependencies without
// compiled export data. Cgo is disabled so the pure-Go variants of net &
// friends are selected — the source importer cannot preprocess cgo files.
func NewImporter(fset *token.FileSet) types.ImporterFrom {
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// TypeCheck checks one package's parsed files under the given import
// path, resolving imports through imp.
func TypeCheck(fset *token.FileSet, imp types.Importer, path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
