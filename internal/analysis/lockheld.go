package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockheldAnalyzer flags a sync.Mutex or sync.RWMutex held across an
// operation that can block: a channel send/receive/range, a select with
// no default, or a call to a function the call graph marks
// blocking-reachable (net I/O, time.Sleep, sync.Wait, channel operations
// — directly or through any call chain). Holding a lock across a park is
// how a slow peer turns into a wedged process: every other goroutine
// touching that lock stops too, and the collection path's whole design
// (DESIGN.md §6) is that one hostile connection never stalls the rest.
//
// The scan is per-function and flow-insensitive across branches: a Lock
// tracked at one nesting level stays held until an Unlock on the same
// receiver text. Function literals are separate scopes — their bodies run
// on other goroutines (or later), so a lock held at the spawn site is not
// held inside them. Deferred unlocks mean the lock is held to the end of
// the function, so everything after the Lock is in scope.
var LockheldAnalyzer = &Analyzer{
	Name:      "lockheld",
	Doc:       "sync.Mutex/RWMutex held across a blocking operation (channel op, net I/O, time.Sleep, or a call that can reach one)",
	RunModule: runLockheld,
}

func runLockheld(mp *ModulePass) {
	blocking := mp.Graph.BlockingNodes()
	mp.Graph.Walk(func(n *Node) {
		if n.Decl == nil || n.Decl.Body == nil || n.Test {
			return
		}
		s := &lockScan{mp: mp, g: mp.Graph, pass: n.Pass, blocking: blocking}
		s.scanScope(n.Decl.Body)
	})
}

// lockScan walks one function scope tracking which mutexes are held.
type lockScan struct {
	mp       *ModulePass
	g        *CallGraph
	pass     *Pass
	blocking map[*Node]bool
	held     map[string]bool // receiver text → held
}

// scanScope scans one function body (a declaration's or a literal's)
// with a fresh held set, queueing nested literals as their own scopes.
func (s *lockScan) scanScope(body *ast.BlockStmt) {
	outer := s.held
	s.held = map[string]bool{}
	s.scanStmts(body)
	s.held = outer
}

// scanStmts walks statements in order, updating the held set and
// reporting blocking operations under a held lock. Nested blocks, loop
// and branch bodies share the running set — an over-approximation in
// both directions that matches the tripwire spirit of the other checks.
func (s *lockScan) scanStmts(n ast.Node) {
	ast.Inspect(n, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			s.scanScope(nd.Body)
			return false
		case *ast.GoStmt:
			// The spawn itself never blocks; the goroutine body is its own
			// scope.
			if lit, ok := nd.Call.Fun.(*ast.FuncLit); ok {
				s.scanScope(lit.Body)
				return false
			}
			return false
		case *ast.DeferStmt:
			// A deferred unlock runs at return: the lock stays held for the
			// rest of the scan, which is exactly the tracked state. Other
			// deferred calls run after the body too; skip them.
			if recv, name, ok := syncMethod(s.pass, nd.Call, "sync.Mutex", "sync.RWMutex"); ok && (name == "Unlock" || name == "RUnlock") {
				_ = recv // the lock is deliberately NOT released from the set
			}
			return false
		case *ast.SelectStmt:
			if len(s.held) > 0 && isBlockingStmt(s.pass, nd) {
				s.report(nd.Pos(), "a channel operation")
				return false
			}
			// A select with a default polls its comm clauses without
			// parking; only the clause bodies can block.
			for _, clause := range nd.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						s.scanStmts(st)
					}
				}
			}
			return false
		case *ast.CallExpr:
			if recv, name, ok := syncMethod(s.pass, nd, "sync.Mutex", "sync.RWMutex"); ok {
				switch name {
				case "Lock", "RLock":
					s.held[recv] = true
				case "Unlock", "RUnlock":
					delete(s.held, recv)
				case "TryLock", "TryRLock":
					s.held[recv] = true
				}
				return true
			}
			s.checkCall(nd)
			return true
		default:
			if len(s.held) > 0 && isBlockingStmt(s.pass, nd) {
				s.report(nd.Pos(), "a channel operation")
				return false
			}
			return true
		}
	})
}

// checkCall reports a call to a blocking-reachable function while a lock
// is held.
func (s *lockScan) checkCall(call *ast.CallExpr) {
	if len(s.held) == 0 {
		return
	}
	id := calleeIdent(call)
	if id == nil {
		return
	}
	fn, ok := s.pass.ObjectOf(id).(*types.Func)
	if !ok {
		return
	}
	node := s.g.Nodes[fn.FullName()]
	if node == nil || !s.blocking[node] {
		return
	}
	s.report(call.Pos(), node.DisplayName(s.g.Mod)+", which "+s.g.BlockingReason(node, s.blocking))
}

// report emits one diagnostic naming the held mutexes (sorted for
// determinism) and the blocking operation.
func (s *lockScan) report(pos token.Pos, what string) {
	locks := make([]string, 0, len(s.held))
	for recv := range s.held {
		locks = append(locks, recv)
	}
	sort.Strings(locks)
	s.mp.Reportf(pos, nil,
		"mutex %s held across %s; release the lock first (snapshot the guarded state, then block outside the critical section)",
		strings.Join(locks, ", "), what)
}
