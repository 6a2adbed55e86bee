package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The design rules of the module, checked on its source with the standard
// library's parser and type checker alone (no network).

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
	"internal/cluster.BroadcastCache.Stats":        "cache census the retention tests of core and opt take inside a worker task",
	"async/jobs.Scheduler.Kill":                    "chaos hook: a replica dies without draining",
	"async/jobs/store.WAL.Kill":                    "chaos hook: the log dies mid-write",
	"async/jobs/store.WAL.FailNextAppendTransient": "failpoint: one transient append failure",
	"async/jobs/store.WAL.Dir":                     "chaos hook: lets a test reopen or corrupt the log's directory",
	"async/jobs/store/faulty":                      "failpoint store wrapper for chaos tests",
	"internal/telemetry.Trace.Dropped":             "trace accessor for readers of a run's events",
}

// TestNoDeadExports: every exported declaration under internal/ and async/
// has a reference in a non-test file of the module (benchmark/, cmd/ and
// examples/ count), or a reason in deadExportAllow. Code that only tests
// reach is code the system does not need. An allowlist entry that names
// nothing unreferenced fails too, so the list cannot outlive its reasons.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseModule(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	dead, err := unreferencedExports(modulePath(t), fset, files)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, key := range dead {
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
// reported, and so must a method whose name a live selector on another type
// spells; a method reached only through an interface, or one that satisfies
// a standard interface, must not be.
func TestNoDeadExportsTrips(t *testing.T) {
	src := map[string]string{
		"internal/x/x.go": `package x
type Live struct{}
type Dead struct{}
type Other struct{}
type Doer interface{ Do() }
func (Live) Used()   {}
func (Live) Unused() {}
func (Live) Do()     {}
func (Other) Used()  {}
func New() Live      { return Live{} }
func Gone()          {}
const DeadConst = 1
func (Live) Error() string { return "" }
func self() { self() }`,
		"internal/x/x_test.go": `package x
func use() { Gone(); _ = Dead{}; _ = DeadConst; Live{}.Unused(); Other{}.Used() }`,
		"cmd/y/main.go": `package main
import xx "repro/internal/x"
func main() {
	xx.New().Used()
	_ = xx.Other{}
	var d xx.Doer = xx.New()
	d.Do()
}`,
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
	got, err := unreferencedExports("repro", fset, files)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/x.Dead", "internal/x.DeadConst", "internal/x.Gone", "internal/x.Live.Unused", "internal/x.Other.Used"}
	if !slices.Equal(got, want) {
		t.Fatalf("dead exports %v, want %v", got, want)
	}
}

// designRule forbids code in the non-test files of one package: declaring
// an object, or using an object or a string literal. An object is named as
// the dead-export check names it, "dir.Name" or "dir.Recv.Method"; a use is
// a reference the type checker resolves to it, so a method call matches only
// on the receiver type named, and comments never match.
type designRule struct {
	scope   string   // package directory, relative to the module root
	exempt  []string // file names in scope the rule does not read
	declare []string // objects no file in scope may declare
	use     []string // objects, or quoted string literals, no file in scope may use
	reason  string
	trip    string // a file in scope that breaks the rule, for its self-test
}

var designRules = []designRule{{
	scope:  "internal/opt",
	exempt: []string{"baseline.go"},
	use:    []string{"internal/core.DynBroadcast.History", "internal/core.BroadcastHistory.TryValueAt", "internal/core.BroadcastHistory.Record"},
	reason: "SAGA history is one float per row: reading the version a row last saw is the paper-literal comparator's alone",
	trip: `package opt
import "repro/internal/core"
func peek(b core.DynBroadcast) { h := b.History(nil); h.TryValueAt(nil, 0); h.Record(0) }`,
}, {
	scope:   "internal/opt",
	declare: []string{"internal/opt.payloadSagaPartial", "internal/opt.payloadSagaDelta"},
	use:     []string{"internal/opt.SagaPartial", "internal/opt.SagaDelta"},
	reason:  "a SAGA task ships one difference vector: nothing names the two-sum payloads, so nothing reads their HistSum, and their wire codes stay retired",
	trip: `package opt
const payloadSagaPartial, payloadSagaDelta = 17, 18
func two(p SagaPartial) any { return SagaDelta{} }`,
}, {
	scope:   "internal/opt",
	declare: []string{"internal/opt.VRKernel"},
	use:     []string{`"vr.anchor"`},
	reason:  "svrg's inner step reads the anchor's coefficients from the SAGA table: no second kernel, no anchor broadcast",
	trip: `package opt
func VRKernel() string { return "vr.anchor" }`,
}, {
	scope:  "internal/opt",
	use:    []string{"internal/core.Context.ASYNCreduce"},
	reason: "one task form: solvers dispatch registered ops (ASYNCreduceOp), so each runs on every transport; the closure form stays out of their package",
	trip: `package opt
import "repro/internal/core"
func reduce(ac *core.Context) { ac.ASYNCreduce(nil) }`,
}, {
	scope:  "async/jobs",
	exempt: []string{"doc.go"},
	use:    []string{`"sgd"`, `"asgd"`, `"saga"`, `"asaga"`, `"svrg"`, `"admm"`, `"cd"`, `"gcg"`, `"mllib-sgd"`},
	reason: "jobs names no solver: what a solver accepts is declared with its registration in internal/opt and asked through opt.Accepts; a solver name in the serving layer is a second copy of that table",
	trip: `package jobs
var names = []string{"sgd", "asgd", "saga", "asaga", "svrg", "admm", "cd", "gcg", "mllib-sgd"}`,
}}

// designRuleStubs is the least module the rules' trip files type-check in:
// the objects they name, and an exempt file that uses them.
var designRuleStubs = map[string]string{
	"internal/core/core.go": `package core
type Context struct{}
func (*Context) ASYNCreduce(any) {}
type DynBroadcast struct{}
type BroadcastHistory struct{}
func (DynBroadcast) History(any) BroadcastHistory { return BroadcastHistory{} }
func (BroadcastHistory) TryValueAt(any, int) {}
func (BroadcastHistory) Record(int) {}`,
	"internal/opt/kernel.go": `package opt
type SagaPartial struct{ HistSum []float64 }
type SagaDelta struct{ HistSum []float64 }`,
	"internal/opt/baseline.go": `package opt
import "repro/internal/core"
func paperLiteral(b core.DynBroadcast) { b.History(nil).Record(0) }`,
	"async/jobs/doc.go": `package jobs
const example = "asgd"`,
}

// TestDesignRules checks every designRule on the module's non-test files.
func TestDesignRules(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseModule(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	broken, err := ruleBreaches(modulePath(t), fset, files, designRules)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range broken {
		t.Error(b)
	}
}

// TestDesignRulesTrip: the stub module breaks no rule — the exempt file and
// the payload types' own declarations included — and each rule's trip file
// breaks that rule, there alone, at every name the rule forbids.
func TestDesignRulesTrip(t *testing.T) {
	check := func(extra map[string]string, rules []designRule) []string {
		t.Helper()
		fset := token.NewFileSet()
		var files []srcFile
		for name, body := range maps.All(designRuleStubs) {
			if _, ok := extra[name]; !ok {
				extra[name] = body
			}
		}
		for _, name := range slices.Sorted(maps.Keys(extra)) {
			f, err := parser.ParseFile(fset, name, extra[name], parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, srcFile{dir: path.Dir(name), f: f})
		}
		broken, err := ruleBreaches("repro", fset, files, rules)
		if err != nil {
			t.Fatal(err)
		}
		return broken
	}
	if broken := check(map[string]string{}, designRules); len(broken) != 0 {
		t.Fatalf("the stub module breaks rules: %v", broken)
	}
	for i, r := range designRules {
		trip := r.scope + "/trip.go"
		broken := check(map[string]string{trip: r.trip}, designRules[i:i+1])
		for _, name := range slices.Concat(r.declare, r.use) {
			if !slices.ContainsFunc(broken, func(b string) bool { return strings.Contains(b, ": "+name+" (") }) {
				t.Errorf("rule %d: its trip file never breaks it at %s: %v", i, name, broken)
			}
		}
		for _, b := range broken {
			if !strings.HasPrefix(b, trip+":") {
				t.Errorf("rule %d: breach outside the trip file: %s", i, b)
			}
		}
	}
}

// ruleBreaches type-checks the packages the rules scope and returns, sorted,
// one "file:line:col: name (reason)" line per breach.
func ruleBreaches(module string, fset *token.FileSet, files []srcFile, rules []designRule) ([]string, error) {
	imp, err := newModuleImporter(module, fset, files)
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		if _, err := imp.check(r.scope); err != nil {
			return nil, err
		}
	}
	key := func(obj types.Object) string {
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		dir := strings.TrimPrefix(obj.Pkg().Path(), module+"/")
		if f, ok := obj.(*types.Func); ok && f.Signature().Recv() != nil {
			recv := f.Signature().Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if n, ok := recv.(*types.Named); ok {
				return dir + "." + n.Obj().Name() + "." + f.Name()
			}
			return ""
		}
		if obj.Parent() != obj.Pkg().Scope() {
			return ""
		}
		return dir + "." + obj.Name()
	}
	var broken []string
	for _, r := range rules {
		for _, sf := range files {
			pos := fset.Position(sf.f.Package)
			if sf.dir != r.scope || slices.Contains(r.exempt, filepath.Base(pos.Filename)) {
				continue
			}
			breach := func(n ast.Node, name string) {
				broken = append(broken, fmt.Sprintf("%s: %s (%s)", fset.Position(n.Pos()), name, r.reason))
			}
			ast.Inspect(sf.f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if k := key(imp.info.Defs[n]); k != "" && slices.Contains(r.declare, k) {
						breach(n, k)
					}
					if k := key(imp.info.Uses[n]); k != "" && slices.Contains(r.use, k) {
						breach(n, k)
					}
				case *ast.BasicLit:
					if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && slices.Contains(r.use, strconv.Quote(v)) {
						breach(n, n.Value)
					}
				}
				return true
			})
		}
	}
	slices.Sort(broken)
	return broken, nil
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
func parseModule(fset *token.FileSet, root string) ([]srcFile, error) {
	var files []srcFile
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

// unreferencedExports type-checks files, one package per directory, and
// returns, sorted, the exported declarations in scope that no file
// references. A reference is resolved to the object it names, so a method
// is live when a selector reaches that method of that type, or when a type
// of the module that has it, declared or promoted, implements an interface
// whose method of that name the module calls or the standard library may
// call (String, Error, Len and the like). The check can miss a dead method
// that satisfies such an interface, and can report a live one only on a
// generic type that nothing but an interface call reaches.
func unreferencedExports(module string, fset *token.FileSet, files []srcFile) ([]string, error) {
	imp, err := newModuleImporter(module, fset, files)
	if err != nil {
		return nil, err
	}
	declared := map[types.Object]string{} // → "dir.Name" or "dir.Recv.Method"
	var named []*types.Named              // the module's non-generic types
	for _, dir := range slices.Sorted(maps.Keys(imp.files)) {
		pkg, err := imp.check(dir)
		if err != nil {
			return nil, err
		}
		inScope := slices.ContainsFunc(deadExportScope, func(s string) bool { return dir == s || strings.HasPrefix(dir, s+"/") })
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if inScope && obj.Exported() {
				declared[obj] = dir + "." + name
			}
			t, ok := obj.Type().(*types.Named)
			if _, isType := obj.(*types.TypeName); !ok || !isType {
				continue
			}
			if t.TypeParams().Len() == 0 {
				named = append(named, t)
			}
			for m := range t.Methods() {
				if inScope && m.Exported() {
					declared[m] = dir + "." + name + "." + m.Name()
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, obj := range imp.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	// calls through an interface: interface → the method names called, or
	// nil for every method (an interface the standard library calls)
	calls := map[*types.Interface]map[string]bool{}
	for _, sel := range imp.info.Selections {
		f, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if iface, ok := f.Signature().Recv().Type().Underlying().(*types.Interface); ok {
			if calls[iface] == nil {
				calls[iface] = map[string]bool{}
			}
			calls[iface][f.Name()] = true
		}
	}
	for _, pkg := range imp.stdPkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
				calls[tn.Type().Underlying().(*types.Interface)] = nil
			}
		}
	}
	calls[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = nil
	for iface, names := range calls {
		if iface.NumMethods() == 0 {
			continue
		}
		for _, t := range named {
			if types.IsInterface(t) || !types.Implements(t, iface) && !types.Implements(types.NewPointer(t), iface) {
				continue
			}
			for m := range iface.Methods() {
				if names == nil || names[m.Name()] {
					obj, _, _ := types.LookupFieldOrMethod(t, true, t.Obj().Pkg(), m.Name())
					used[obj] = true
				}
			}
		}
	}
	var dead []string
	for obj, key := range declared {
		if !used[obj] {
			dead = append(dead, key)
		}
	}
	slices.Sort(dead)
	return dead, nil
}

// moduleImporter type-checks the module's packages from their parsed files
// and reads the standard library's from the export data that one go list
// call reports, so the check needs neither a network nor a second copy of
// the module's sources.
type moduleImporter struct {
	module  string
	fset    *token.FileSet
	files   map[string][]*ast.File // dir → files
	pkgs    map[string]*types.Package
	info    *types.Info
	std     types.Importer
	stdPkgs map[string]*types.Package
}

func newModuleImporter(module string, fset *token.FileSet, files []srcFile) (*moduleImporter, error) {
	imp := &moduleImporter{
		module:  module,
		fset:    fset,
		files:   map[string][]*ast.File{},
		pkgs:    map[string]*types.Package{},
		info:    &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
		stdPkgs: map[string]*types.Package{},
	}
	std := map[string]bool{}
	for _, sf := range files {
		imp.files[sf.dir] = append(imp.files[sf.dir], sf.f)
		for _, is := range sf.f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			if p != module && !strings.HasPrefix(p, module+"/") {
				std[p] = true
			}
		}
	}
	exports := map[string]string{} // import path → export data file
	if len(std) > 0 {
		args := append([]string{"list", "-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, slices.Sorted(maps.Keys(std))...)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list the standard library's export data: %w", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			p, file, _ := strings.Cut(line, "\t")
			exports[p] = file
		}
	}
	imp.std = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		if exports[p] == "" {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(exports[p])
	})
	return imp, nil
}

func (imp *moduleImporter) Import(p string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(p, imp.module+"/"); ok {
		return imp.check(dir)
	}
	if p == imp.module {
		return imp.check(".")
	}
	pkg, err := imp.std.Import(p)
	if err == nil {
		imp.stdPkgs[p] = pkg
	}
	return pkg, err
}

// check type-checks the package in dir once, its module imports first.
func (imp *moduleImporter) check(dir string) (*types.Package, error) {
	if pkg, ok := imp.pkgs[dir]; ok {
		return pkg, nil
	}
	p := imp.module + "/" + dir
	if dir == "." {
		p = imp.module
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(p, imp.fset, imp.files[dir], imp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	imp.pkgs[dir] = pkg
	return pkg, nil
}
