package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one post-suppression diagnostic with its source position
// resolved, ready for printing or test comparison.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// suppression is one parsed "//dgflint:ignore <analyzer> <reason>"
// directive. It silences matching diagnostics on its own line or the
// line directly below (directive-above-statement style).
type suppression struct {
	file     string
	line     int
	analyzer string // "all" matches every analyzer
}

const directiveIgnore = "dgflint:ignore"

// Run executes every analyzer over every package, applies suppression
// directives, and returns the surviving findings sorted by position.
// Malformed directives (a dgflint:ignore with no reason, or naming no
// analyzer of the run but "all") are themselves findings: unexplained
// suppressions defeat the point of machine-checked invariants, and a
// mistyped name suppresses nothing.
func Run(analyzers []*Analyzer, fset *token.FileSet, pkgs []*Package) ([]Finding, error) {
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var sups []suppression
	var findings []Finding
	for _, pkg := range pkgs {
		s, bad := scanDirectives(fset, pkg, known)
		sups = append(sups, s...)
		findings = append(findings, bad...)
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				PkgPath:   pkg.Path,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				pos := fset.Position(d.Pos)
				if suppressed(sups, a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

func suppressed(sups []suppression, analyzer string, pos token.Position) bool {
	for _, s := range sups {
		if s.file != pos.Filename {
			continue
		}
		if s.line != pos.Line && s.line != pos.Line-1 {
			continue
		}
		if s.analyzer == "all" || s.analyzer == analyzer {
			return true
		}
	}
	return false
}

// scanDirectives collects the suppression directives of one package and
// flags malformed ones: no analyzer name, or no reason (an unexplained
// suppression is itself a violation), or a name that is not in known.
func scanDirectives(fset *token.FileSet, pkg *Package, known map[string]bool) ([]suppression, []Finding) {
	var sups []suppression
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, directiveIgnore)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "dgflint",
						Pos:      fset.Position(c.Pos()),
						Message:  "dgflint:ignore needs an analyzer name and a reason: //dgflint:ignore <analyzer> <why this is safe>",
					})
					continue
				}
				if !known[fields[0]] {
					bad = append(bad, Finding{
						Analyzer: "dgflint",
						Pos:      fset.Position(c.Pos()),
						Message:  fmt.Sprintf("dgflint:ignore names %q, which is no analyzer of this run (nor \"all\")", fields[0]),
					})
					continue
				}
				sups = append(sups, suppression{
					file:     fset.Position(c.Pos()).Filename,
					line:     fset.Position(c.Pos()).Line,
					analyzer: fields[0],
				})
			}
		}
	}
	return sups, bad
}
