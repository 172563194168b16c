package lint

// The third layer of the flow-aware core: a small abstract interpreter
// over the per-function CFGs. The domain is a must-state — the set of
// mutex classes provably held (with read/write mode) plus, for waldur,
// whether a durable append or record-rank guard dominates the current
// point. Must-analysis means the join at control-flow merges is
// intersection: a fact survives only if it holds on every incoming path,
// so the analyzers never claim protection that a real execution could
// lack. On top of the per-function walk sits one interprocedural fixpoint:
// entryHeld, the set of classes held at every call site of a function,
// which is what lets helpers like appendLocked or trip — documented
// "callers hold mu" — check without annotations.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// Lock modes. Write subsumes read.
const (
	modeRead  = 1
	modeWrite = 2
)

// lockClass identifies one mutex across the module: a struct field
// ("yap/internal/jobs.Manager.mu"), a package-level variable, or a local.
type lockClass struct {
	id      string // canonical identity
	display string // short form for messages, e.g. "jobs.Manager.mu"
}

// flowState is the abstract state at one program point. A nil *flowState
// denotes an unreachable point (top), the identity of the join.
type flowState struct {
	held      map[string]int // lock class id -> modeRead|modeWrite
	protected bool           // waldur: durable append or rank guard dominates
}

func (s *flowState) clone() *flowState {
	c := &flowState{protected: s.protected}
	if len(s.held) > 0 {
		c.held = make(map[string]int, len(s.held))
		for k, v := range s.held {
			c.held[k] = v
		}
	}
	return c
}

// join intersects two states (must-analysis). Either side nil (unreachable)
// yields the other.
func join(a, b *flowState) *flowState {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := &flowState{protected: a.protected && b.protected}
	for k, va := range a.held {
		if vb, ok := b.held[k]; ok {
			m := va
			if vb < m {
				m = vb
			}
			if out.held == nil {
				out.held = make(map[string]int)
			}
			out.held[k] = m
		}
	}
	return out
}

func equalStates(a, b *flowState) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.protected != b.protected || len(a.held) != len(b.held) {
		return false
	}
	for k, v := range a.held {
		if b.held[k] != v {
			return false
		}
	}
	return true
}

// flowEvent is one fine-grained event inside a block, in evaluation order.
type flowEvent struct {
	n        ast.Node
	deferred bool // the event is the call of a defer statement
}

// expandNode flattens one coarse CFG node into evaluation-ordered events
// (children before parents, matching Go's evaluate-args-then-call order).
// Function literals are opaque: their bodies are separate CFG nodes.
func expandNode(dst []flowEvent, cn cfgNode) []flowEvent {
	root := cn.n
	if rs, ok := root.(*ast.RangeStmt); ok {
		// Only the range operand evaluates here; the body is its own block.
		if rs.X != nil {
			dst = expandExpr(dst, rs.X)
		}
		return dst
	}
	if gs, ok := root.(*ast.GoStmt); ok {
		// The spawned call runs elsewhere; only the statement itself is an
		// event (for analyzers that watch spawns).
		return append(dst, flowEvent{n: gs})
	}
	dst = expandExpr(dst, root)
	if cn.deferred && len(dst) > 0 {
		// The root (emitted last in postorder) is the deferred call itself;
		// its operands still evaluate immediately.
		dst[len(dst)-1].deferred = true
	}
	return dst
}

func expandExpr(dst []flowEvent, n ast.Node) []flowEvent {
	var stack []ast.Node
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.CallExpr, *ast.SelectorExpr, *ast.AssignStmt,
				*ast.IncDecStmt, *ast.UnaryExpr, *ast.BinaryExpr,
				*ast.SendStmt, *ast.GoStmt:
				dst = append(dst, flowEvent{n: top})
			}
			return true
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if gs, ok := x.(*ast.GoStmt); ok {
			dst = append(dst, flowEvent{n: gs})
			return false
		}
		stack = append(stack, x)
		return true
	})
	return dst
}

// lock operations
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opRLock
	opUnlock
	opRUnlock
)

// flowCore ties the CFGs and call graph together with the interprocedural
// summaries the analyzers share. Built once per Run via Module.
type flowCore struct {
	pkgs  []*Package
	graph *callGraph

	// entryHeld[n] = lock classes (id -> mode) held at every call site of
	// n; the optimistic least fixpoint described in the package comment.
	entryHeld map[*cgNode]map[string]int
	// entryOwned[n] reports that every call site of n passes a receiver
	// still private to its constructor — accesses inside n are unpublished.
	entryOwned map[*cgNode]bool
	// ownedVars[n] = local objects of n initialized from composite
	// literals (values not yet escaped; lock-free access is safe).
	ownedVars map[*cgNode]map[types.Object]bool
	// reachesSync[n]: n transitively performs a *.Sync() (fsync) call.
	reachesSync map[*cgNode]bool
	// acquires[n] = lock classes n may acquire, transitively (non-go).
	acquires map[*cgNode]map[string]lockClass
	// classes indexes every lock class seen anywhere in the module.
	classes map[string]lockClass
}

// newFlowCore builds the shared analysis state for one module.
func newFlowCore(pkgs []*Package) *flowCore {
	fc := &flowCore{
		pkgs:        pkgs,
		graph:       buildCallGraph(pkgs),
		entryHeld:   map[*cgNode]map[string]int{},
		entryOwned:  map[*cgNode]bool{},
		ownedVars:   map[*cgNode]map[types.Object]bool{},
		reachesSync: map[*cgNode]bool{},
		acquires:    map[*cgNode]map[string]lockClass{},
		classes:     map[string]lockClass{},
	}
	for _, n := range fc.graph.nodes {
		fc.ownedVars[n] = collectOwnedVars(n)
	}
	fc.markOwnedEdges()
	fc.solveEntryHeld()
	fc.solveSummaries()
	return fc
}

// collectOwnedVars finds locals bound to freshly constructed values:
// `x := T{...}`, `x := &T{...}`, `x := new(T)` and `var x T`. Such values
// are private to the function until stored or returned, so unlocked field
// access through them is safe (the constructor exemption).
func collectOwnedVars(n *cgNode) map[types.Object]bool {
	owned := map[types.Object]bool{}
	body := n.body()
	if body == nil {
		return owned
	}
	record := func(id *ast.Ident) {
		if obj := n.pkg.Info.Defs[id]; obj != nil {
			owned[obj] = true
		}
	}
	fresh := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		switch e := e.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" {
				if _, isBuiltin := n.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		return false
	}
	ast.Inspect(body, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok && fl != n.lit {
			return false
		}
		switch s := x.(type) {
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && fresh(s.Rhs[i]) {
					record(id)
				}
			}
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 0 {
					for _, id := range vs.Names {
						record(id) // zero value, trivially fresh
					}
					continue
				}
				if len(vs.Values) == len(vs.Names) {
					for i, id := range vs.Names {
						if fresh(vs.Values[i]) {
							record(id)
						}
					}
				}
			}
		}
		return true
	})
	return owned
}

// markOwnedEdges flags call edges whose receiver base is an owned local,
// and records the receiver base object so ownership can later extend
// through entry-owned callers (Open -> apply -> noteID).
func (fc *flowCore) markOwnedEdges() {
	for _, n := range fc.graph.nodes {
		for _, e := range n.out {
			sel, ok := ast.Unparen(e.call.Fun).(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if base := baseIdent(sel.X); base != nil {
				if obj := n.pkg.Info.Uses[base]; obj != nil {
					e.recvBase = obj
					if fc.ownedVars[n][obj] {
						e.ownedRecv = true
					}
				}
			}
		}
	}
}

// edgeOwned reports whether a call site's receiver is provably
// unpublished: an owned local of the caller, or the caller's own receiver
// when every path into the caller is itself owned.
func (fc *flowCore) edgeOwned(e *cgEdge) bool {
	if e.ownedRecv {
		return true
	}
	return e.recvBase != nil && e.caller.recvObj != nil &&
		e.recvBase == e.caller.recvObj && fc.entryOwned[e.caller]
}

// baseIdent walks a selector/index/star chain down to its root identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// solveEntryHeld iterates the interprocedural least fixpoint: run every
// function's local must-walk under the current entry assumption, snapshot
// the held set at each call site, then recompute each function's entry as
// the intersection over its sites. Bottom-up iteration from the empty set
// only ever grows the assumption, so it terminates and never credits a
// lock no caller actually holds.
func (fc *flowCore) solveEntryHeld() {
	for {
		for _, n := range fc.graph.nodes {
			fc.visitFlow(n, fc.entryState(n), func(ev flowEvent, st *flowState) {
				call, ok := ev.n.(*ast.CallExpr)
				if !ok {
					return
				}
				if e := fc.graph.byCall[call]; e != nil {
					e.held = make(map[string]int, len(st.held))
					for k, v := range st.held {
						e.held[k] = v
					}
				}
			})
		}
		changed := false
		for _, n := range fc.graph.nodes {
			entry, owned := fc.mergeSites(n)
			if owned != fc.entryOwned[n] || !sameHeld(entry, fc.entryHeld[n]) {
				changed = true
			}
			fc.entryHeld[n] = entry
			fc.entryOwned[n] = owned
		}
		if !changed {
			return
		}
	}
}

// entryState builds the flow entry for one node from the current
// interprocedural assumption.
func (fc *flowCore) entryState(n *cgNode) *flowState {
	st := &flowState{}
	if eh := fc.entryHeld[n]; len(eh) > 0 {
		st.held = make(map[string]int, len(eh))
		for k, v := range eh {
			st.held[k] = v
		}
	}
	return st
}

// mergeSites intersects the held sets of every call site of n. Sites
// spawned with `go` contribute nothing held; sites through an owned
// receiver are neutral (they cannot weaken the intersection); a node whose
// every site is owned is itself owned.
func (fc *flowCore) mergeSites(n *cgNode) (map[string]int, bool) {
	if len(n.in) == 0 {
		return nil, false
	}
	var acc map[string]int
	first := true
	constraining := 0
	for _, e := range n.in {
		if e.goCall {
			return nil, false // a goroutine entry holds nothing
		}
		if fc.edgeOwned(e) {
			continue
		}
		constraining++
		if first {
			acc = make(map[string]int, len(e.held))
			for k, v := range e.held {
				acc[k] = v
			}
			first = false
			continue
		}
		for k, v := range acc {
			if hv, ok := e.held[k]; !ok {
				delete(acc, k)
			} else if hv < v {
				acc[k] = hv
			}
		}
	}
	if constraining == 0 {
		return nil, true // every site passes an unpublished receiver
	}
	return acc, false
}

func sameHeld(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// solveSummaries computes the transitive union facts: reachesSync and
// acquires. Both exclude `go` edges — work done on another goroutine
// neither fsyncs on this path nor orders this path's lock acquisitions.
func (fc *flowCore) solveSummaries() {
	for _, n := range fc.graph.nodes {
		acq := map[string]lockClass{}
		body := n.body()
		if body != nil {
			ast.Inspect(body, func(x ast.Node) bool {
				if fl, ok := x.(*ast.FuncLit); ok && fl != n.lit {
					return false
				}
				call, ok := x.(*ast.CallExpr)
				if !ok {
					return true
				}
				if cls, op := fc.lockOpOf(n.pkg, call); op == opLock || op == opRLock {
					acq[cls.id] = cls
				}
				if isSyncCall(n.pkg, call) {
					fc.reachesSync[n] = true
				}
				return true
			})
		}
		fc.acquires[n] = acq
	}
	for changed := true; changed; {
		changed = false
		for _, n := range fc.graph.nodes {
			for _, e := range n.out {
				if e.goCall {
					continue
				}
				if fc.reachesSync[e.callee] && !fc.reachesSync[n] {
					fc.reachesSync[n] = true
					changed = true
				}
				for id, cls := range fc.acquires[e.callee] {
					if _, ok := fc.acquires[n][id]; !ok {
						fc.acquires[n][id] = cls
						changed = true
					}
				}
			}
		}
	}
}

// isSyncCall reports a call to a method named Sync (os.File fsync and the
// WAL helpers layered on it).
func isSyncCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Sync" {
		return false
	}
	_, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func)
	return isFunc
}

// lockOpOf classifies a call as a mutex operation and identifies the lock.
func (fc *flowCore) lockOpOf(pkg *Package, call *ast.CallExpr) (lockClass, lockOp) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, opNone
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op = opRLock
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op = opRUnlock
	default:
		return lockClass{}, opNone
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockClass{}, opNone
	}
	cls, ok := fc.lockClassOf(pkg, sel.X)
	if !ok {
		return lockClass{}, opNone
	}
	fc.classes[cls.id] = cls
	return cls, op
}

// lockClassOf canonicalizes the expression a mutex method is called on.
func (fc *flowCore) lockClassOf(pkg *Package, e ast.Expr) (lockClass, bool) {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		// m.mu — a mutex field: identity is (owner type, field name).
		if s := pkg.Info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			if owner := namedOf(s.Recv()); owner != nil {
				return fieldClass(owner, s.Obj().Name()), true
			}
		}
		// pkgname.Var — a package-level mutex accessed cross-package.
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return varClass(v), true
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			// A named struct that embeds sync.Mutex: calling c.Lock() locks
			// the embedded field — identity is (struct type, embedded name).
			if owner := namedOf(v.Type()); owner != nil && !isSyncLockType(owner) {
				if fname, ok := embeddedMutexField(owner); ok {
					return fieldClass(owner, fname), true
				}
			}
			return varClass(v), true
		}
	}
	return lockClass{}, false
}

// fieldClass builds the class of a mutex that is a struct field.
func fieldClass(owner *types.Named, field string) lockClass {
	pkgPath, pkgBase := "", ""
	if p := owner.Obj().Pkg(); p != nil {
		pkgPath, pkgBase = p.Path(), path.Base(p.Path())
	}
	return lockClass{
		id:      pkgPath + "." + owner.Obj().Name() + "." + field,
		display: pkgBase + "." + owner.Obj().Name() + "." + field,
	}
}

// varClass builds the class of a mutex variable (package-level or local;
// locals are distinguished by their definition position).
func varClass(v *types.Var) lockClass {
	pkgPath, pkgBase := "", ""
	if p := v.Pkg(); p != nil {
		pkgPath, pkgBase = p.Path(), path.Base(p.Path())
	}
	id := pkgPath + "." + v.Name()
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() {
		// Local mutex: pin identity to the declaration.
		id += "@" + itoa(int(v.Pos()))
	}
	return lockClass{id: id, display: pkgBase + "." + v.Name()}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// namedOf strips pointers down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		default:
			return nil
		}
	}
}

func isSyncLockType(n *types.Named) bool {
	p := n.Obj().Pkg()
	if p == nil || p.Path() != "sync" {
		return false
	}
	name := n.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// embeddedMutexField finds an embedded sync.Mutex/RWMutex field.
func embeddedMutexField(owner *types.Named) (string, bool) {
	st, ok := owner.Underlying().(*types.Struct)
	if !ok {
		return "", false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		if n := namedOf(f.Type()); n != nil && isSyncLockType(n) {
			return f.Name(), true
		}
	}
	return "", false
}

// transfer applies one event's effect to the state in place.
func (fc *flowCore) transfer(n *cgNode, st *flowState, ev flowEvent) {
	switch x := ev.n.(type) {
	case *ast.CallExpr:
		cls, op := fc.lockOpOf(n.pkg, x)
		switch op {
		case opLock:
			if st.held == nil {
				st.held = make(map[string]int)
			}
			st.held[cls.id] = modeWrite
		case opRLock:
			if st.held == nil {
				st.held = make(map[string]int)
			}
			if st.held[cls.id] < modeRead {
				st.held[cls.id] = modeRead
			}
		case opUnlock, opRUnlock:
			if !ev.deferred {
				// A deferred unlock releases only at return; the lock stays
				// held for the remainder of the body.
				delete(st.held, cls.id)
			}
		case opNone:
			if ev.deferred {
				// A deferred call runs at return, after everything else in
				// the body — it cannot dominate anything.
				break
			}
			if isSyncCall(n.pkg, x) {
				st.protected = true
			} else if e := fc.graph.byCall[x]; e != nil && !e.goCall && fc.reachesSync[e.callee] {
				st.protected = true
			}
		}
	case *ast.BinaryExpr:
		if isComparison(x.Op) && (mentionsRank(x.X) || mentionsRank(x.Y)) {
			st.protected = true
		}
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// mentionsRank reports whether an expression inspects a record's ordering
// rank: a call to a method named rank/Rank, or a Completed/Seq field.
func mentionsRank(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(x ast.Node) bool {
		if found {
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "rank", "Rank", "Completed", "Seq":
			found = true
			return false
		}
		return true
	})
	return found
}

// visitFlow runs the must-analysis to fixpoint over one function's CFG and
// then replays every reachable block once, calling visit with the state in
// effect immediately BEFORE each event.
func (fc *flowCore) visitFlow(n *cgNode, entry *flowState, visit func(ev flowEvent, st *flowState)) {
	g := n.cfg
	if g == nil || len(g.blocks) == 0 {
		return
	}
	in := make(map[*block]*flowState, len(g.blocks))
	in[g.entry] = entry
	work := []*block{g.entry}
	queued := map[*block]bool{g.entry: true}
	events := make(map[*block][]flowEvent, len(g.blocks))
	evOf := func(b *block) []flowEvent {
		evs, ok := events[b]
		if !ok {
			for _, cn := range b.nodes {
				evs = expandNode(evs, cn)
			}
			events[b] = evs
		}
		return evs
	}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		st := in[b]
		if st == nil {
			continue
		}
		out := st.clone()
		for _, ev := range evOf(b) {
			fc.transfer(n, out, ev)
		}
		for _, succ := range b.succs {
			merged := join(in[succ], out)
			if !equalStates(merged, in[succ]) {
				in[succ] = merged.clone()
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	if visit == nil {
		return
	}
	for _, b := range g.blocks {
		st := in[b]
		if st == nil {
			continue
		}
		cur := st.clone()
		for _, ev := range evOf(b) {
			visit(ev, cur)
			fc.transfer(n, cur, ev)
		}
	}
}

// displayOf renders one class id.
func (fc *flowCore) displayOf(id string) string {
	if c, ok := fc.classes[id]; ok {
		return c.display
	}
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
