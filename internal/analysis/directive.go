package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive comments are the annotation language the v2 analyzers read:
//
//	//vulcan:hotpath            marks a function as a zero-alloc root
//	//vulcan:allowalloc <why>   waives one hotalloc finding, with a reason
//	//vulcan:nosnap <why>       waives one snapfields finding, with a reason
//	//vulcan:lablocked <why>    waives one labonly sync finding, with a reason
//	//vulcan:keep <why>         keeps one exported identifier without a
//	                            non-test caller, or one *Config/*Options
//	                            field nothing sets (the dead-API and
//	                            unset-option guards in
//	                            internal/analysis/driver), with a reason
//
// Waiver directives attach to the flagged line itself or to the line
// directly above it (the only placement that works for declarations that
// cannot carry a trailing comment). A waiver without a reason does not
// waive: the finding still fires, annotated with what is missing, so
// every escape hatch in the tree stays audited.

// parseDirective extracts the argument of a "//vulcan:<name>" comment.
// The second result reports whether c carries the directive at all. Any
// trailing "//"-prefixed text is stripped from the argument so fixture
// annotations cannot masquerade as reasons.
func parseDirective(c *ast.Comment, name string) (string, bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, "vulcan:"+name) {
		return "", false
	}
	rest := text[len("vulcan:"+name):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // "vulcan:hotpathx" is not "vulcan:hotpath"
	}
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	return strings.TrimSpace(rest), true
}

// directiveLines collects every "//vulcan:<name>" comment in the pass,
// keyed by file name then line, valued by the directive argument (the
// waiver reason, possibly empty).
func directiveLines(pass *Pass, name string) map[string]map[int]string {
	sites := make(map[string]map[int]string)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				arg, ok := parseDirective(c, name)
				if !ok {
					continue
				}
				p := pass.Fset.Position(c.Pos())
				byLine := sites[p.Filename]
				if byLine == nil {
					byLine = make(map[int]string)
					sites[p.Filename] = byLine
				}
				byLine[p.Line] = arg
			}
		}
	}
	return sites
}

// waiverAt looks a waiver up for pos: the directive may sit on the same
// line or on the line directly above. It returns the reason and whether
// a directive was found at all.
func waiverAt(pass *Pass, sites map[string]map[int]string, pos token.Pos) (string, bool) {
	p := pass.Fset.Position(pos)
	byLine, ok := sites[p.Filename]
	if !ok {
		return "", false
	}
	if reason, ok := byLine[p.Line]; ok {
		return reason, true
	}
	reason, ok := byLine[p.Line-1]
	return reason, ok
}

// funcDirective reports whether fd's doc comment carries the named
// directive.
func funcDirective(fd *ast.FuncDecl, name string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if _, ok := parseDirective(c, name); ok {
			return true
		}
	}
	return false
}
