package aqueue_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// mapRanges allow-lists every range over a map in the product code, keyed
// by file and enclosing function: how many such ranges the function holds,
// and why the order Go picks for them cannot reach a result.
var mapRanges = map[string]struct {
	n      int
	reason string
}{
	"internal/ident/ident.go:(*Index).build":       {2, "a max over the keys, then each entry stored at its own index"},
	"internal/ident/ident.go:(*Index).Keys":        {1, "the keys are sorted before they are returned"},
	"internal/ratelimit/drl.go:(*DRL).initialRate": {1, "it counts pairs"},
	"internal/ratelimit/drl.go:(*DRL).tick":        {1, "each pair updates only itself; the demands it collects are sorted before use"},
	"internal/ratelimit/drl.go:(*DRL).waterfillBy": {1, "each group writes only its own members' indices of out"},
	"internal/service/service.go:(*Service).loop":  {2, "every subscriber gets the same boundary, or its stream is closed"},
}

// TestNoMapOrderReachesAResult reads the source: every range over a
// map-typed expression in a non-test file under internal/ and cmd/ must be
// allow-listed in mapRanges, with the count per function exact. Go
// randomises map iteration order per map, so a map range whose order
// reaches a sum, a choice or an output makes identical runs differ; the
// allow-list is where each one states why its order cannot.
func TestNoMapOrderReachesAResult(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every product package from source")
	}
	// The scan reads Go source only. With cgo on, the source importer runs
	// the C toolchain over net, which a cross-architecture run (GOARCH=386
	// on an amd64 host) may not have; the pure-Go files type-check alike.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	found := map[string]int{}
	var sites []string
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			files, err := parseProductFiles(fset, dir)
			if err != nil || len(files) == 0 {
				return err
			}
			info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(dir, fset, files, info); err != nil {
				return fmt.Errorf("type-check %s: %w", dir, err)
			}
			for _, f := range files {
				for _, decl := range f.Decls {
					ast.Inspect(decl, func(n ast.Node) bool {
						rs, ok := n.(*ast.RangeStmt)
						if !ok {
							return true
						}
						if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
							pos := fset.Position(rs.For)
							key := filepath.ToSlash(pos.Filename) + ":" + funcName(decl)
							found[key]++
							sites = append(sites, fmt.Sprintf("%s:%d (%s)", filepath.ToSlash(pos.Filename), pos.Line, key))
						}
						return true
					})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]string, 0, len(found)+len(mapRanges))
	for key := range found {
		keys = append(keys, key)
	}
	for key := range mapRanges {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range slices.Compact(keys) {
		if n, want := found[key], mapRanges[key].n; n != want {
			t.Errorf("%s ranges over a map %d times, allow-listed %d: state in mapRanges why its order cannot reach a result, or range over an ordered copy", key, n, want)
		}
	}
	if t.Failed() {
		slices.Sort(sites)
		t.Logf("map ranges found:\n\t%s", strings.Join(sites, "\n\t"))
	}
}

// parseProductFiles parses the non-test Go files of dir that the default
// build context selects, so that files kept apart by build constraints are
// not checked as one package.
func parseProductFiles(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// funcName names the top-level declaration holding a node: F for a
// function, (T).M or (*T).M for a method, "package-level" for any other.
func funcName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return "package-level"
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", s.X
	}
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	if ix, ok := recv.(*ast.IndexListExpr); ok {
		recv = ix.X
	}
	return "(" + star + recv.(*ast.Ident).Name + ")." + fd.Name.Name
}
