package lint

// Module-local call graph, the second layer of the flow-aware core. Nodes
// are function bodies — declared functions/methods and function literals —
// across every analyzed package; edges are call sites. Because each
// package is type-checked independently against export data, the same
// declared function is a *different* *types.Func object in each package's
// Info, so nodes are keyed by an FNV-64a hash of the qualified name
// (package path, receiver type, function name), which is stable across
// type-checks. Function literals have no qualified name and are keyed by
// identity; they are only reachable through direct invocation (`go
// func(){...}()`, immediately-invoked literals), which is exactly how the
// analyzers consume them. Calls through variables, fields and interfaces
// stay unresolved — the analyzers treat unresolved callees conservatively.

import (
	"fmt"
	"go/ast"
	"go/types"
	"hash/fnv"
	"io"
	"path"
)

// cgNode is one function body in the module.
type cgNode struct {
	pkg  *Package
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declared functions
	name string        // display name, e.g. "jobs.(*Manager).Submit"
	key  uint64        // FNV-64a of the qualified name; 0 for literals
	cfg  *funcCFG
	in   []*cgEdge
	out  []*cgEdge
	// recvObj is the method receiver's object, for propagating
	// constructor-ownership through helper calls (Open -> apply -> noteID).
	recvObj types.Object
}

func (n *cgNode) body() *ast.BlockStmt {
	if n.decl != nil {
		return n.decl.Body
	}
	return n.lit.Body
}

// cgEdge is one call site from caller to a resolved module-local callee.
type cgEdge struct {
	caller *cgNode
	callee *cgNode
	call   *ast.CallExpr
	goCall bool // the call is the operand of a go statement
	// held is the set of lock classes (id -> mode) the flow analysis proved
	// held when control reaches this site; filled in by flowCore.
	held map[string]int
	// ownedRecv marks calls whose receiver is a value still private to the
	// caller (constructed there, never escaped) — lock-free access through
	// it is safe, so such sites never weaken a callee's entry-held set.
	ownedRecv bool
	// recvBase is the object the call's receiver chain roots at, used to
	// extend ownership through entry-owned callers' receivers.
	recvBase types.Object
}

type callGraph struct {
	nodes  []*cgNode
	byKey  map[uint64]*cgNode
	byLit  map[*ast.FuncLit]*cgNode
	byCall map[*ast.CallExpr]*cgEdge
	// goSites lists every `go` statement with its (possibly nil) resolved
	// entry node, for the goroutine-lifetime analyzer.
	goSites []goSite
}

type goSite struct {
	pkg   *Package
	stmt  *ast.GoStmt
	entry *cgNode // nil when the callee is not module-local
}

// funcKey hashes a declared function's identity so the same function
// type-checked in two packages (source vs export data) lands on one node.
func funcKey(fn *types.Func) uint64 {
	h := fnv.New64a()
	if p := fn.Pkg(); p != nil {
		io.WriteString(h, p.Path()) //nolint:errcheck
	}
	io.WriteString(h, "·") //nolint:errcheck
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		io.WriteString(h, recvTypeName(sig.Recv().Type())) //nolint:errcheck
	}
	io.WriteString(h, "·")       //nolint:errcheck
	io.WriteString(h, fn.Name()) //nolint:errcheck
	return h.Sum64()
}

// recvTypeName names a method receiver's type with pointers stripped.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// buildCallGraph constructs nodes and edges for every function body in the
// given packages.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		byKey:  map[uint64]*cgNode{},
		byLit:  map[*ast.FuncLit]*cgNode{},
		byCall: map[*ast.CallExpr]*cgEdge{},
	}
	// Pass 1: nodes.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				n := &cgNode{pkg: pkg, decl: fd, name: declName(pkg, fd)}
				if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
					n.recvObj = pkg.Info.Defs[fd.Recv.List[0].Names[0]]
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					n.key = funcKey(obj)
					g.byKey[n.key] = n
				}
				g.nodes = append(g.nodes, n)
				// Every literal nested in this declaration is its own node.
				ast.Inspect(fd.Body, func(x ast.Node) bool {
					if fl, ok := x.(*ast.FuncLit); ok {
						pos := pkg.Fset.Position(fl.Pos())
						ln := &cgNode{
							pkg:  pkg,
							lit:  fl,
							name: fmt.Sprintf("%s·func@%s:%d", n.name, path.Base(pos.Filename), pos.Line),
						}
						g.byLit[fl] = ln
						g.nodes = append(g.nodes, ln)
					}
					return true
				})
			}
		}
	}
	// Pass 2: CFGs and edges.
	for _, n := range g.nodes {
		n.cfg = buildCFG(n.body())
		g.addEdges(n)
	}
	return g
}

// addEdges walks one node's own body (stopping at nested literals, which
// own their statements) and records every resolvable call site.
func (g *callGraph) addEdges(n *cgNode) {
	root := n.body()
	if root == nil {
		return
	}
	goCalls := map[*ast.CallExpr]*ast.GoStmt{}
	ast.Inspect(root, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok && fl != n.lit {
			return false
		}
		if gs, ok := x.(*ast.GoStmt); ok {
			goCalls[gs.Call] = gs
		}
		return true
	})
	ast.Inspect(root, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok && fl != n.lit {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := g.resolve(n.pkg, call)
		gs, isGo := goCalls[call]
		if isGo {
			g.goSites = append(g.goSites, goSite{pkg: n.pkg, stmt: gs, entry: callee})
		}
		if callee == nil {
			return true
		}
		e := &cgEdge{caller: n, callee: callee, call: call, goCall: isGo}
		n.out = append(n.out, e)
		callee.in = append(callee.in, e)
		g.byCall[call] = e
		return true
	})
}

// resolve maps a call expression to its module-local callee node, or nil.
func (g *callGraph) resolve(pkg *Package, call *ast.CallExpr) *cgNode {
	fun := ast.Unparen(call.Fun)
	if fl, ok := fun.(*ast.FuncLit); ok {
		return g.byLit[fl]
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	return g.byKey[funcKey(fn)]
}

// declName renders a readable qualified name for messages.
func declName(pkg *Package, fd *ast.FuncDecl) string {
	base := path.Base(pkg.ImportPath)
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		if t := recvASTName(fd.Recv.List[0].Type); t != "" {
			return base + "." + t + "." + fd.Name.Name
		}
	}
	return base + "." + fd.Name.Name
}

func recvASTName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvASTName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver
		return recvASTName(t.X)
	case *ast.IndexListExpr:
		return recvASTName(t.X)
	}
	return ""
}
