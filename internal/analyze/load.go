// Package analyze is a stdlib-only static analyzer for this module: it
// loads every package from source (go/parser + go/types, no external
// dependencies), runs a set of domain analyzers, and reports findings that
// would erode the repo's three hard invariants:
//
//   - all parallelism flows through the internal/par pool, so cancellation
//     and panic containment stay total (analyzer "goroutine");
//   - verifier output is byte-identical across worker counts, so no map
//     iteration order may leak into appended or printed results (analyzer
//     "mapdeterminism");
//   - the tile walk's legal path allocates nothing, enforced on
//     functions annotated //mlvlsi:hotpath (analyzer "hotpath").
//
// Two more analyzers guard API structure: "ctxflow" (context-taking
// functions must consult their context, and non-Ctx wrappers must delegate
// to their Ctx variants) and "violationcode" (every grid.Violation reason
// constant must appear in the internal/fault Class→Codes mapping, so new
// violation kinds cannot escape the chaos sweep).
//
// Intentional exceptions are declared in source with a
// "//mlvlsi:allow <analyzer>" comment on the flagged line or the line
// above; suppressed findings are counted and reported, never silent.
package analyze

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the package's import path (module path + directory).
	ImportPath string
	// Dir is the package directory, relative to the module root.
	Dir string
	// Files holds the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression, definition, and use maps.
	Info *types.Info
	// TypeErrors collects type-checking errors (empty on a building tree;
	// the analyzers still run on whatever was checked).
	TypeErrors []error

	imports []string
}

// Module is a fully loaded module: every package parsed and type-checked.
type Module struct {
	// Root is the absolute filesystem path of the module root.
	Root string
	// Path is the module path from go.mod.
	Path string
	// Fset positions every parsed file.
	Fset *token.FileSet
	// Packages lists the module's packages in dependency order.
	Packages []*Package
}

// Load parses and type-checks every package of the module rooted at root
// (the directory containing go.mod). Test files (*_test.go), testdata
// directories, and directories whose name starts with "." or "_" are
// skipped. Standard-library imports are type-checked from $GOROOT source,
// so no compiled export data is required.
func Load(root string) (*Module, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: abs, Path: modPath, Fset: token.NewFileSet()}

	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	byPath := make(map[string]*Package, len(dirs))
	var all []*Package
	for _, dir := range dirs {
		pkg, err := m.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		byPath[pkg.ImportPath] = pkg
		all = append(all, pkg)
	}

	ordered, err := topoSort(all, byPath)
	if err != nil {
		return nil, err
	}
	m.Packages = ordered

	src := importer.ForCompiler(m.Fset, "source", nil)
	imp := &moduleImporter{local: byPath, fallback: src}
	for _, pkg := range m.Packages {
		checkPackage(m.Fset, pkg, imp)
	}
	return m, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analyze: not a module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analyze: no module directive in %s", gomod)
}

// packageDirs walks the module tree for directories that contain at least
// one non-test .go file, returning module-root-relative paths in sorted
// order.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if isSourceFile(e.Name()) {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				dirs = append(dirs, rel)
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// parseDir parses the non-test files of one directory into a Package (nil
// when the directory holds no source files after filtering).
func (m *Module) parseDir(rel string) (*Package, error) {
	dir := filepath.Join(m.Root, rel)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := m.Path
	if rel != "." {
		importPath = m.Path + "/" + filepath.ToSlash(rel)
	}
	pkg := &Package{ImportPath: importPath, Dir: rel}
	seen := map[string]bool{}
	for _, e := range ents {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(m.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				pkg.imports = append(pkg.imports, p)
			}
		}
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	sort.Strings(pkg.imports)
	return pkg, nil
}

// topoSort orders packages so every module-internal import precedes its
// importers; imports outside the module are resolved by the fallback
// importer and impose no ordering.
func topoSort(pkgs []*Package, byPath map[string]*Package) ([]*Package, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[*Package]int, len(pkgs))
	ordered := make([]*Package, 0, len(pkgs))
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analyze: import cycle through %s", p.ImportPath)
		}
		state[p] = visiting
		for _, imp := range p.imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p] = done
		ordered = append(ordered, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return ordered, nil
}

// moduleImporter resolves module-internal imports from the packages already
// type-checked this load, delegating everything else (the standard library)
// to the source importer.
type moduleImporter struct {
	local    map[string]*Package
	fallback types.Importer
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.local[path]; ok {
		if p.Types == nil {
			return nil, fmt.Errorf("analyze: import %s before it was checked", path)
		}
		return p.Types, nil
	}
	return mi.fallback.Import(path)
}

// checkPackage type-checks one package, collecting (rather than failing on)
// type errors so a partially broken tree still gets analyzed.
func checkPackage(fset *token.FileSet, pkg *Package, imp types.Importer) {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never returns a nil package; on errors it returns what it could
	// type-check, which is what the analyzers want.
	pkg.Types, _ = conf.Check(pkg.ImportPath, fset, pkg.Files, pkg.Info)
}
