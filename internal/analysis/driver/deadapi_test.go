package driver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"vulcan/internal/analysis/driver"
)

// TestNoDeadExportedAPI keeps exported API from outliving its callers:
// every exported package-level func, type, const and var under
// internal/ must be used by some non-test file of the module, or be
// named by a selector in the benchmark module (bench/*.go, parsed
// syntactically because that module is built separately). A deliberate
// exception carries a "//vulcan:keep <reason>" waiver on its line or
// the line above; a waiver without a reason does not count.
func TestNoDeadExportedAPI(t *testing.T) {
	root, err := driver.ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := driver.Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		for _, sel := range p.Info.Selections {
			used[sel.Obj()] = true
		}
	}
	benchNames, err := benchSelectors(filepath.Join(root, "bench"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, p := range pkgs {
		if !strings.Contains(p.Path, "/internal/") {
			continue
		}
		keep := keepWaivers(p)
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			checked++
			if used[obj] || benchNames[name] {
				continue
			}
			pos := p.Fset.Position(obj.Pos())
			reason, ok := keep[pos.Filename][pos.Line]
			if !ok {
				reason, ok = keep[pos.Filename][pos.Line-1]
			}
			switch {
			case !ok:
				t.Errorf("%s: %s.%s has no non-test caller; delete it or add a //vulcan:keep <reason> waiver", pos, p.Path, name)
			case reason == "":
				t.Errorf("%s: //vulcan:keep on %s.%s needs a reason", pos, p.Path, name)
			}
		}
	}
	if checked < 100 {
		t.Fatalf("checked only %d exported identifiers; the scan is broken", checked)
	}
}

// keepWaivers maps file and line to the reason of each //vulcan:keep
// comment in p.
func keepWaivers(p *driver.Package) map[string]map[int]string {
	out := map[string]map[int]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//vulcan:keep")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]string{}
				}
				out[pos.Filename][pos.Line] = strings.TrimSpace(rest)
			}
		}
	}
	return out
}

// benchSelectors returns the selector names in every Go file under dir.
func benchSelectors(dir string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectorExpr); ok {
				names[s.Sel.Name] = true
			}
			return true
		})
	}
	return names, nil
}
