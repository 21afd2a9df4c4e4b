package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafety flags blocking operations performed while an exclusive lock —
// a sync.Mutex, or the write side of a sync.RWMutex — is held. The engine's
// bounded-stall guarantee (rollover pauses ingest only for the buffer swap)
// holds exactly as long as nothing under its locks waits on the outside
// world, so under a held lock the analyzer rejects:
//
//   - channel sends and receives outside a select with a default case;
//   - selects with no default (they park the goroutine);
//   - time.Sleep, anything in net or net/http, and blocking os file calls;
//   - alert-sink deliveries (methods named Send or Deliver on a *Sink type).
//
// It also flags sync.Mutex / sync.RWMutex passed or copied by value, which
// silently forks the lock.
//
// The lock-region tracking is lexical and per function, in source order:
// X.Lock() opens the region for X, X.Unlock() closes it, defer X.Unlock()
// leaves it open to the end of the function. This matches how the engine is
// written — including the interior "unlock, wait, relock" pattern around
// <-done channels — at the cost of two accepted blind spots: functions whose
// caller holds the lock (the *Locked helpers) are scanned as unlocked, and
// closure bodies are skipped entirely since they may run on another
// goroutine or after release. RLock regions are also not scanned: shared
// holders (ingest-path readers; checkpoint encoders and previews under
// commitGate.RLock, whose write side the day-close holds across its
// pipeline run) block each other by design and are bounded elsewhere.
var LockSafety = &Analyzer{
	Name: "locksafety",
	Doc: "no channel operations, selects without default, sleeps, file/network I/O, or " +
		"sink deliveries while a sync.Mutex or RWMutex write lock is held; no mutex copies",
	Run: runLockSafety,
}

// blockingOSCalls are the os functions that can block on the filesystem.
var blockingOSCalls = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true, "WriteFile": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true, "MkdirAll": true,
}

func runLockSafety(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			checkMutexByValue(pass, fd)
			if fd.Body != nil {
				scanLockRegions(pass, fd.Body)
			}
		}
	}
	return nil
}

// scanLockRegions walks one function body in source order, maintaining the
// set of exclusively-held locks and flagging blocking operations inside any
// region.
func scanLockRegions(pass *Pass, body *ast.BlockStmt) {
	held := map[string]token.Pos{} // lock expr key -> Lock() position

	heldDesc := func() string {
		keys := make([]string, 0, len(held))
		for k := range held {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return strings.Join(keys, ", ")
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closure bodies may run on another goroutine or after the lock
			// is released; out of scope for lexical tracking.
			return false

		case *ast.DeferStmt:
			// A deferred Unlock keeps the region open to function end; any
			// other deferred call runs at return, outside this region's
			// lexical extent. Argument expressions evaluate now, though.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false

		case *ast.GoStmt:
			// The spawned goroutine does not run under our lock; arguments
			// evaluate now.
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, visit)
			}
			return false

		case *ast.SelectStmt:
			if len(held) > 0 && !selectHasDefault(n) {
				pass.Reportf(n.Pos(), "select without default while holding %s blocks with the lock held", heldDesc())
			}
			// The comm operations themselves are adjudicated by the select;
			// only the clause bodies need scanning.
			for _, clause := range n.Body.List {
				cc := clause.(*ast.CommClause)
				for _, st := range cc.Body {
					ast.Inspect(st, visit)
				}
			}
			return false

		case *ast.SendStmt:
			if len(held) > 0 {
				pass.Reportf(n.Arrow, "channel send while holding %s can block with the lock held; use a select with default or release first", heldDesc())
			}

		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				pass.Reportf(n.OpPos, "channel receive while holding %s blocks with the lock held; release the lock first", heldDesc())
			}

		case *ast.CallExpr:
			if key, op, ok := mutexOp(pass.TypesInfo, n); ok {
				switch op {
				case "Lock":
					held[key] = n.Pos()
				case "Unlock":
					delete(held, key)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			if what := blockingCall(pass.TypesInfo, n); what != "" {
				pass.Reportf(n.Pos(), "%s while holding %s blocks with the lock held", what, heldDesc())
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// mutexOp decodes X.Lock() / X.Unlock() on a sync.Mutex or sync.RWMutex
// into (canonical key for X, operation). RLock/RUnlock and unkeyable
// receivers (index expressions, call results) return ok=false.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	name := sel.Sel.Name
	if name != "Lock" && name != "Unlock" {
		return "", "", false
	}
	if !isSyncLock(info.TypeOf(sel.X)) {
		return "", "", false
	}
	key = exprString(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, name, true
}

// isSyncLock reports whether t (possibly behind a pointer) is sync.Mutex or
// sync.RWMutex.
func isSyncLock(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// blockingCall classifies a call as blocking under a lock, returning a
// description for the diagnostic or "".
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if pkg, name := calleePkgFunc(info, call); pkg != "" {
		switch {
		case pkg == "time" && name == "Sleep":
			return "time.Sleep"
		case pkg == "net" || pkg == "net/http" || strings.HasPrefix(pkg, "net/"):
			return "network call " + pkg + "." + name
		case pkg == "os" && blockingOSCalls[name]:
			return "file I/O os." + name
		}
		return ""
	}
	// Sink deliveries: a method named Send or Deliver whose receiver type is
	// (or implements) a type named Sink / *Sink.
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return ""
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return ""
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return ""
	}
	if fn.Name() != "Send" && fn.Name() != "Deliver" {
		return ""
	}
	if tn := namedTypeName(info.TypeOf(sel.X)); tn == "Sink" || strings.HasSuffix(tn, "Sink") {
		return "sink delivery " + tn + "." + fn.Name()
	}
	return ""
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	if named, isNamed := t.(*types.Named); isNamed {
		return named.Obj().Name()
	}
	return ""
}

// checkMutexByValue flags parameters, results, and assignments whose type is
// directly sync.Mutex or sync.RWMutex — a by-value lock is a forked lock.
// (Structs containing locks are go vet copylocks territory; this catches the
// bare-primitive cases vet's heuristics share.)
func checkMutexByValue(pass *Pass, fd *ast.FuncDecl) {
	flagFields := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			if t := pass.TypesInfo.TypeOf(field.Type); isDirectSyncLock(t) {
				pass.Reportf(field.Type.Pos(), "%s passes %s by value; pass a pointer, a copied lock guards nothing", what, types.TypeString(t, nil))
			}
		}
	}
	flagFields(fd.Type.Params, "parameter")
	flagFields(fd.Type.Results, "result")
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, isAssign := n.(*ast.AssignStmt)
		if !isAssign {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, isCall := rhs.(*ast.CallExpr); isCall {
				continue
			}
			// Discarding to _ copies nothing anyone can lock.
			if len(as.Lhs) == len(as.Rhs) {
				if id, isIdent := as.Lhs[i].(*ast.Ident); isIdent && id.Name == "_" {
					continue
				}
			}
			if t := pass.TypesInfo.TypeOf(rhs); isDirectSyncLock(t) {
				pass.Reportf(rhs.Pos(), "assignment copies %s by value; a copied lock guards nothing", types.TypeString(t, nil))
			}
		}
		return true
	})
}

// isDirectSyncLock is isSyncLock without the pointer indirection: only a
// bare mutex value counts as a copy.
func isDirectSyncLock(t types.Type) bool {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, isComm := clause.(*ast.CommClause); isComm && cc.Comm == nil {
			return true
		}
	}
	return false
}
