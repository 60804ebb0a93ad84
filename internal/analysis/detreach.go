package analysis

import (
	"go/types"
	"strings"
)

// detreachRoots are the determinism roots: the packages whose outputs
// EXPERIMENTS.md pins byte-for-byte. A time.Now three packages away is
// exactly as fatal to reproducibility as one written in sim code, and an
// allowlisted networked package is only safe while the deterministic
// pipeline cannot reach it.
var detreachRoots = []string{
	"cmd/wearstudy",
	"internal/study/...",
	"internal/gen/...",
}

// ban is one class of determinism-hostile call: the packages that may
// use it directly, whether _test.go files may too, and the remedy the
// diagnostic names.
type ban struct {
	allowed []string
	testsOK bool
	remedy  string
}

// clockBan: only the two genuinely-networked packages (the live proxy
// and the replay harness speak real TCP, so deadlines and stamps must be
// real time), binaries and examples (which time their own phases for
// operators) and test files (which poll real deadlines) read the clock.
// Everything else works in simtime hour indices.
var clockBan = &ban{
	allowed: []string{"internal/mnet/netproxy", "internal/mnet/replay", "cmd/...", "examples/..."},
	testsOK: true,
	remedy:  "use internal/simtime hour indices, or take the clock from cmd/",
}

// randBan: only the randomness package itself touches math/rand, and
// even there only to construct seeded generators.
var randBan = &ban{
	allowed: []string{"internal/randx"},
	remedy:  "split a seeded stream from internal/randx",
}

// clockReaders are the time functions that couple output to the host
// clock or scheduler.
var clockReaders = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// DetreachAnalyzer reports every wall-clock or global-rand call site
// once: with its call chain when the determinism roots can reach it,
// otherwise when it sits outside its ban's allowlist.
var DetreachAnalyzer = &Analyzer{
	Name:      "detreach",
	Doc:       "wall-clock or global math/rand use outside its allowlist, or reachable from the deterministic pipeline (wearstudy, internal/study, internal/gen) with the call chain",
	RunModule: runDetreach,
}

// detreachBanned classifies a non-module function as determinism-hostile:
// the package-level time clock readers and the package-level math/rand
// stream draws. Methods compare instants or draw from seeded streams,
// and rand.New* constructs one, so none of those is banned.
func detreachBanned(fn *types.Func) (string, *ban) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", nil
	}
	switch pkg.Path() {
	case "time":
		if clockReaders[fn.Name()] {
			return "time." + fn.Name() + " couples output to the wall clock", clockBan
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			return "rand." + fn.Name() + " draws from the process-global stream", randBan
		}
	}
	return "", nil
}

func runDetreach(mp *ModulePass) {
	g := mp.Graph
	var roots []*Node
	g.Walk(func(n *Node) {
		if n.InModule && !n.Test && matchRel(n.Rel, detreachRoots) {
			roots = append(roots, n)
		}
	})
	reach := g.ReachableFrom(roots)

	// Every edge into a banned function is one site, judged once: by
	// reachability first (the chain is the shortest discovery path to the
	// caller plus the offending call), then by the ban's allowlist. The
	// allowlist judges only sites that name the function; a call through
	// a func value is matched by signature and names nothing.
	g.Walk(func(caller *Node) {
		for _, e := range caller.Out {
			if e.Callee.Fn == nil || e.Callee.InModule {
				continue
			}
			why, b := detreachBanned(e.Callee.Fn)
			if b == nil {
				continue
			}
			if reach.Contains(caller) && !caller.Test {
				chain := append(reach.PathTo(caller), e)
				root := chain[0].Caller
				mp.Reportf(e.Pos, pathSteps(mp.Mod, chain),
					"%s and is reachable from determinism root %s: %s; %s",
					why, root.DisplayName(mp.Mod), renderChain(mp.Mod, chain), b.remedy)
				continue
			}
			if (e.Dynamic && !e.Ref) || matchRel(caller.Rel, b.allowed) {
				continue
			}
			if b.testsOK && strings.HasSuffix(mp.Mod.Fset.Position(e.Pos).Filename, "_test.go") {
				continue
			}
			mp.Reportf(e.Pos, nil, "%s; only %s may use it directly; %s",
				why, strings.Join(b.allowed, ", "), b.remedy)
		}
	})
}
