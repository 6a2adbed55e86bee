package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design rules of the module, checked on its source with the standard
// library's parser alone (no type checker, no network).

// deadExportScope lists the trees whose exported declarations must each
// have a caller outside the tests.
var deadExportScope = []string{"internal", "async"}

// deadExportAllow holds the exported declarations kept without a non-test
// caller, each with its reason. A key is a package directory (the whole
// package), "dir.Name" or "dir.Recv.Method".
var deadExportAllow = map[string]string{
	"internal/core.Context.ASYNCcollect":           "Table-1 primitive of the paper's API",
	"internal/core.Context.ASYNCcollectTimeout":    "Table-1 primitive of the paper's API",
	"internal/core.ASYNCaggregate":                 "Table-1 primitive of the paper's API",
	"internal/core.ASYNCreduceRDD":                 "Table-1 primitive of the paper's API",
	"async.MinAvailable":                           "barrier constructor of the facade's barrier-control API",
	"async.PSP":                                    "filter constructor of the facade's barrier-control API",
	"internal/dataset.ReadLIBSVM":                  "loads the paper's real datasets; ROADMAP item 9(a) decides its fate",
	"internal/la.ColView.ColSqSum":                 "column norms for gap-safe screening, ROADMAP item 21",
	"internal/la.Equal":                            "the tolerance compare every package's tests share; a test file cannot be imported",
	"async.Register":                               "lets callers plug in solvers; the tests substitute fakes through it",
	"async/jobs.EventDone":                         "member of the EventType enumeration a stream client switches on",
	"async/jobs.EventFailed":                       "member of the EventType enumeration a stream client switches on",
	"async/jobs.EventCanceled":                     "member of the EventType enumeration a stream client switches on",
	"internal/cluster.Cluster.Kill":                "chaos hook: fails a worker mid-run",
	"async/jobs.Scheduler.Kill":                    "chaos hook: a replica dies without draining",
	"async/jobs/store.WAL.Kill":                    "chaos hook: the log dies mid-write",
	"async/jobs/store.WAL.FailNextAppendTransient": "failpoint: one transient append failure",
	"async/jobs/store.WAL.Dir":                     "chaos hook: lets a test reopen or corrupt the log's directory",
	"async/jobs/store/faulty":                      "failpoint store wrapper for chaos tests",
	"internal/telemetry.Trace.Dropped":             "trace accessor for readers of a run's events",
}

// sortInterface names the methods sort.Sort calls through an interface,
// which no selector in the module spells out.
var sortInterface = map[string]bool{"Len": true, "Less": true, "Swap": true}

// TestNoDeadExports: every exported declaration under internal/ and async/
// has a reference in a non-test file of the module (benchmark/, cmd/ and
// examples/ count), or a reason in deadExportAllow. Code that only tests
// reach is code the system does not need. An allowlist entry that names
// nothing unreferenced fails too, so the list cannot outlive its reasons.
func TestNoDeadExports(t *testing.T) {
	files, err := parseModule(".")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, key := range unreferencedExports(modulePath(t), files) {
		dir, _, _ := strings.Cut(key, ".")
		switch {
		case deadExportAllow[key] != "":
			used[key] = true
		case deadExportAllow[dir] != "":
			used[dir] = true
		default:
			t.Errorf("%s is exported but only tests reference it: delete it, move it into its test, or allow it with a reason", key)
		}
	}
	for key := range deadExportAllow {
		if !used[key] {
			t.Errorf("deadExportAllow[%q]: nothing unreferenced by that name; drop the entry", key)
		}
	}
}

// TestNoDeadExportsTrips feeds the check a synthetic module: the function,
// method, type and constant nobody outside a test references must be
// reported, and nothing else.
func TestNoDeadExportsTrips(t *testing.T) {
	src := map[string]string{
		"internal/x/x.go": `package x
type Live struct{}
type Dead struct{}
func (Live) Used()   {}
func (Live) Unused() {}
func New() Live      { return Live{} }
func Gone()          {}
const DeadConst = 1
func (Live) Len() int { return 0 }
func self() { self() }`,
		"internal/x/x_test.go": `package x
func use() { Gone(); _ = Dead{}; _ = DeadConst; Live{}.Unused() }`,
		"cmd/y/main.go": `package main
import xx "repro/internal/x"
func main() { xx.New().Used() }`,
	}
	var files []srcFile
	fset := token.NewFileSet()
	for name, body := range src {
		if strings.HasSuffix(name, "_test.go") {
			continue // parseModule never returns test files
		}
		f, err := parser.ParseFile(fset, name, body, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{dir: path.Dir(name), f: f})
	}
	got := unreferencedExports("repro", files)
	want := []string{"internal/x.Dead", "internal/x.DeadConst", "internal/x.Gone", "internal/x.Live.Unused"}
	if !slices.Equal(got, want) {
		t.Fatalf("dead exports %v, want %v", got, want)
	}
}

// srcFile is a parsed non-test file and its directory, slash-separated and
// relative to the module root.
type srcFile struct {
	dir string
	f   *ast.File
}

func modulePath(t *testing.T) string {
	b, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if mod, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}

// parseModule parses every non-test Go file under root, skipping the
// directories the go tool skips (hidden, underscored, testdata).
func parseModule(root string) ([]srcFile, error) {
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, srcFile{dir: filepath.ToSlash(rel), f: f})
		return nil
	})
	return files, err
}

// unreferencedExports returns, sorted, the exported declarations in scope
// that no file of files references. Without type information a method
// counts as referenced when any selector anywhere names it, and a
// package-level name when its own package uses it bare or another package
// selects it through an import: the check can miss a dead export, never
// invent one.
func unreferencedExports(module string, files []srcFile) []string {
	pkgName := map[string]string{} // dir → package name
	for _, sf := range files {
		pkgName[sf.dir] = sf.f.Name.Name
	}
	declared := map[string]bool{} // "dir.Name" or "dir.Recv.Method"
	pkgRefs := map[string]bool{}  // "dir.Name"
	methodRefs := map[string]bool{}
	for _, sf := range files {
		inScope := slices.ContainsFunc(deadExportScope, func(s string) bool {
			return sf.dir == s || strings.HasPrefix(sf.dir, s+"/")
		})
		skip := map[*ast.Ident]bool{} // declaring names, not uses
		for _, decl := range sf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				skip[d.Name] = true
				name := d.Name.Name
				if d.Recv != nil {
					recv := recvIdent(d.Recv.List[0].Type)
					skip[recv] = true
					name = recv.Name + "." + name
				}
				if inScope && d.Name.IsExported() {
					declared[sf.dir+"."+name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						skip[id] = true
						if inScope && id.IsExported() {
							declared[sf.dir+"."+id.Name] = true
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name → dir
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			dir, ok := strings.CutPrefix(p, module+"/")
			if !ok {
				continue
			}
			local := pkgName[dir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = dir
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						pkgRefs[dir+"."+n.Sel.Name] = true
						return false
					}
				}
				methodRefs[n.Sel.Name] = true
				skip[n.Sel] = true
			case *ast.Ident:
				if !skip[n] {
					pkgRefs[sf.dir+"."+n.Name] = true
				}
			}
			return true
		})
	}
	var dead []string
	for key := range declared {
		_, name, _ := strings.Cut(key, ".")
		_, method, isMethod := strings.Cut(name, ".")
		switch {
		case isMethod && (methodRefs[method] || sortInterface[method]):
		case !isMethod && pkgRefs[key]:
		default:
			dead = append(dead, key)
		}
	}
	slices.Sort(dead)
	return dead
}

// recvIdent is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic("unexpected receiver type")
		}
	}
}
