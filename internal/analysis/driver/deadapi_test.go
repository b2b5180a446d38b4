package driver_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
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
	root, pkgs := loadModule(t)
	used := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			used[obj] = true
		}
		for _, sel := range p.Info.Selections {
			used[sel.Obj()] = true
		}
	}
	benchNames, _, err := benchNames(filepath.Join(root, "bench"))
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
			checkWaiver(t, p, keep, obj, p.Path+"."+name, "has no non-test caller")
		}
	}
	if checked < 100 {
		t.Fatalf("checked only %d exported identifiers; the scan is broken", checked)
	}
}

// TestNoUnsetOption keeps configuration knobs from outliving their
// users: every exported field of an exported struct type named *Config
// or *Options under internal/ must be set by some non-test file — as a
// composite-literal element, an assignment or ++/-- target, or an
// address taken with & — or be named by a key or selector in the
// benchmark module (bench/*.go). A deliberate exception carries a
// "//vulcan:keep <reason>" waiver, as for TestNoDeadExportedAPI.
func TestNoUnsetOption(t *testing.T) {
	root, pkgs := loadModule(t)
	set := map[types.Object]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					markLiteral(p.Info, n, set)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markField(p.Info, lhs, set)
					}
				case *ast.IncDecStmt:
					markField(p.Info, n.X, set)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markField(p.Info, n.X, set)
					}
				}
				return true
			})
		}
	}
	benchSels, benchKeys, err := benchNames(filepath.Join(root, "bench"))
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
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				field := st.Field(i)
				if !field.Exported() {
					continue
				}
				checked++
				if set[field] || benchSels[field.Name()] || benchKeys[field.Name()] {
					continue
				}
				checkWaiver(t, p, keep, field, p.Path+"."+name+"."+field.Name(), "is never set outside tests")
			}
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d option fields; the scan is broken", checked)
	}
}

// markLiteral records the struct fields a composite literal sets:
// every keyed field, or the leading fields of an unkeyed literal.
func markLiteral(info *types.Info, lit *ast.CompositeLit, set map[types.Object]bool) {
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					set[obj] = true
				}
			}
		} else if i < st.NumFields() {
			set[st.Field(i)] = true
		}
	}
}

// markField records the struct field an assignment target writes,
// looking through indexing (cfg.Tiers[i] = t sets Tiers).
func markField(info *types.Info, x ast.Expr, set map[types.Object]bool) {
	for {
		switch e := x.(type) {
		case *ast.ParenExpr:
			x = e.X
			continue
		case *ast.IndexExpr:
			x = e.X
			continue
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				set[sel.Obj()] = true
			}
		}
		return
	}
}

// checkWaiver reports obj, a scan hit, unless a //vulcan:keep waiver
// with a reason sits on its line or the line above.
func checkWaiver(t *testing.T, p *driver.Package, keep map[string]map[int]string, obj types.Object, what, why string) {
	t.Helper()
	pos := p.Fset.Position(obj.Pos())
	reason, ok := keep[pos.Filename][pos.Line]
	if !ok {
		reason, ok = keep[pos.Filename][pos.Line-1]
	}
	switch {
	case !ok:
		t.Errorf("%s: %s %s; delete it or add a //vulcan:keep <reason> waiver", pos, what, why)
	case reason == "":
		t.Errorf("%s: //vulcan:keep on %s needs a reason", pos, what)
	}
}

var (
	moduleOnce sync.Once
	moduleRoot string
	modulePkgs []*driver.Package
	moduleErr  error
)

// loadModule type-checks the module's non-test files once for every
// guard in this file.
func loadModule(t *testing.T) (string, []*driver.Package) {
	t.Helper()
	moduleOnce.Do(func() {
		if moduleRoot, moduleErr = driver.ModuleRoot("."); moduleErr == nil {
			modulePkgs, moduleErr = driver.Load(moduleRoot, []string{"./..."})
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleRoot, modulePkgs
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

// benchNames returns the selector names and composite-literal key
// names in every Go file under dir.
func benchNames(dir string) (sels, keys map[string]bool, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	sels, keys = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel.Name] = true
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					keys[id.Name] = true
				}
			}
			return true
		})
	}
	return sels, keys, nil
}
