package vizsched

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// keptExports are exported names under internal/ that no non-test code
// references but that stay on purpose, each with its reason. Keys are
// "pkg.Name" for top-level names and "pkg.Type.Method" for methods, pkg
// being the import path below internal/. A name stays when it is a test
// harness or fake, a comparator that tests of other code use, or an
// accessor through which a test reads production state.
var keptExports = map[string]string{
	"core.CheckRecords":                   "harness: core, sim, service and hastate tests hold every job to its task records with it",
	"core.HeadState.IsPrefetched":         "accessor: core and prefetch tests read a chunk's prefetched mark",
	"core.HeadState.Home":                 "accessor: replication and drain tests read a chunk's home node",
	"core.HeadState.Draining":             "accessor: drain and invariant tests read a node's drain state",
	"des.Simulator.Fired":                 "accessor: the kernel tests count fired events",
	"des.Simulator.Pending":               "accessor: the kernel tests check that cancelled events are reaped",
	"fracshare.Slot.DoneWork":             "accessor: the slot tests read the work served across a preemption",
	"img.MaxDiff":                         "comparator: compositing, raycast and service tests compare images with it",
	"img.Image.ToNRGBA":                   "comparator: the plain conversion the pooled PNG path and the live-frame test are checked against",
	"img.PSNR":                            "comparator: MaxDiff's fidelity form, for comparing compositors and codecs",
	"img.Diff":                            "comparator: MaxDiff's heatmap form, for debugging a failed comparison",
	"metrics.Report.ActionCount":          "accessor: the report tests read how many actions were observed",
	"metrics.TenantQoS.ShedOnArrival":     "accessor: qos, sim and service tests check the per-tenant admission partition with it",
	"prefetch.Controller.InFlight":        "accessor: the controller tests read a node's in-flight warm",
	"qos.TokenBucket.Tokens":              "accessor: the bucket tests read the balance, throttle debt included",
	"service.Head.QoSController":          "accessor: the live QoS tests read the head's ladder and outcome",
	"service.Worker.RayStats":             "accessor: the service tests read a worker's sample and skip counts",
	"service.Worker.CacheStats":           "accessor: the service tests read a worker's cache counters",
	"shard.Directory.Residents":           "accessor: shard and core invariant tests read a chunk's resident nodes",
	"transport.FaultInjector.Heal":        "harness: the chaos and failover tests end a partition with it",
	"transport.FaultInjector.Partitioned": "accessor: the chaos tests read the partition switch",
	"transport.NewChanListener":           "harness: the in-memory listener the transport tests accept on",
	"volume.Grid.Gradient":                "comparator: the raycast reference renderer shades with it, and march.shade must match",
	"volume.BrickGrid":                    "harness: the octant bricking the raycast bit-identity tests render",
}

// TestUnreferencedExports lists every exported top-level name and method
// under internal/ that no non-test Go file in the repository refers to:
// cmd/, examples/ and the bench/ module count as callers, dot-directories
// such as .bench_build/ are skipped. It reads source only (go/parser, no
// type checker), so where it cannot tell names apart it counts them as
// used: a top-level name is used if a non-test file of its own package
// names it, or any non-test file selects it through an import of its
// package; a method is used if any non-test selector anywhere has its name,
// so a call through an interface keeps every method of that name. The list
// is printed, never gated: `go test -v -run UnreferencedExports .`, or
// `make design-metrics` for the count.
func TestUnreferencedExports(t *testing.T) {
	idx, err := indexRepo(".")
	if err != nil {
		t.Fatal(err)
	}
	hits, kept := idx.unreferenced(), 0
	for _, d := range hits {
		if why, ok := keptExports[d.key()]; ok {
			kept++
			t.Logf("%s:%d: %s (kept: %s)", d.pos.Filename, d.pos.Line, d.key(), why)
		} else {
			t.Logf("%s:%d: %s", d.pos.Filename, d.pos.Line, d.key())
		}
	}
	for key := range keptExports {
		if !idx.declared[key] {
			t.Logf("keptExports lists %s, which is no longer declared", key)
		}
	}
	t.Logf("exported names under internal/ no non-test code references: %d (%d kept)", len(hits), kept)
}

const modulePath = "vizsched"

// exportDecl is one exported top-level name or method.
type exportDecl struct {
	pkg  string // import path
	recv string // receiver type name, "" for a top-level name
	name string
	pos  token.Position
}

func (d exportDecl) key() string {
	k := strings.TrimPrefix(d.pkg, modulePath+"/internal/")
	if d.recv != "" {
		k += "." + d.recv
	}
	return k + "." + d.name
}

// repoIndex is what the finder reads out of the repository's non-test files.
type repoIndex struct {
	decls    []exportDecl    // under internal/, in file order
	declared map[string]bool // their keys
	// bare holds "importpath.Name" for each identifier a file of that
	// package uses unqualified, qual each selector through an import of
	// that package, selectors every selected name.
	bare, qual, selectors map[string]bool
}

// indexRepo parses every non-test .go file under root.
func indexRepo(root string) (*repoIndex, error) {
	idx := &repoIndex{
		declared:  map[string]bool{},
		bare:      map[string]bool{},
		qual:      map[string]bool{},
		selectors: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		idx.add(fset, filepath.ToSlash(p), f)
		return nil
	})
	return idx, err
}

// add indexes one non-test file. Its import path follows from its directory:
// the bench/ module is vizsched/bench, so the same rule holds there.
func (idx *repoIndex) add(fset *token.FileSet, file string, f *ast.File) {
	pkg := modulePath
	if dir := path.Dir(file); dir != "." {
		pkg += "/" + dir
	}
	imports := map[string]string{} // local name → import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = p
	}
	declaring := map[*ast.Ident]bool{}
	declare := func(recv string, id *ast.Ident) {
		declaring[id] = true
		if id.IsExported() && strings.HasPrefix(file, "internal/") {
			d := exportDecl{pkg: pkg, recv: recv, name: id.Name, pos: fset.Position(id.Pos())}
			idx.decls = append(idx.decls, d)
			idx.declared[d.key()] = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil {
				recv = recvName(d.Recv.List[0].Type)
			}
			declare(recv, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare("", s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare("", n)
					}
				}
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			idx.selectors[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					idx.qual[p+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if !declaring[n] {
				idx.bare[pkg+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// recvName strips pointers and type parameters off a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic(fmt.Sprintf("unexpected receiver type %T", e))
		}
	}
}

// unreferenced returns the declarations nothing refers to, in file order.
func (idx *repoIndex) unreferenced() []exportDecl {
	var hits []exportDecl
	for _, d := range idx.decls {
		used := idx.selectors[d.name]
		if d.recv == "" {
			used = idx.bare[d.pkg+"."+d.name] || idx.qual[d.pkg+"."+d.name]
		}
		if !used {
			hits = append(hits, d)
		}
	}
	return hits
}
