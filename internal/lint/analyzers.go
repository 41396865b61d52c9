package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// All returns the registered analyzer set in the order the driver runs them.
func All() []*Analyzer {
	return []*Analyzer{
		DetWallClock,
		DetRand,
		FloatEq,
		SyncErr,
		MapRange,
		ObsImport,
		DetTaint,
		LockHeld,
		PoolEscape,
		WalSwitch,
	}
}

// Names returns the names of every registered analyzer; allow directives may
// only name these.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}

// deterministicDirs names the internal packages whose behaviour must be a
// pure function of their inputs: a replayed history (WAL replay, golden
// corpus rerun) has to reproduce the promised (deadline, p) pairs exactly,
// so nothing in these packages may read the wall clock or the process-global
// PRNG. The obs/service wall-clock boundary sits outside this set.
var deterministicDirs = map[string]bool{
	"sim":        true,
	"sched":      true,
	"predict":    true,
	"checkpoint": true,
	"negotiate":  true,
	"failure":    true,
	"experiment": true,
	"durability": true,
	// The scenario runner replays declarative timelines onto the engine;
	// golden zoo reports are byte-compared in CI, so the whole package —
	// decoder included — must be input-pure.
	"scenario": true,
	// The promise machine and its ledger are replayed by qosd's WAL, its
	// snapshots and scenario export/resume; the conformance record they
	// carry must come out of a replay bit for bit.
	"promise": true,
}

// IsDeterministicPkg reports whether the import path lies in (or under) one
// of the deterministic internal packages.
func IsDeterministicPkg(path string) bool {
	segs := strings.Split(path, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && deterministicDirs[segs[i+1]] {
			return true
		}
	}
	return false
}

// observabilityDirs names the internal packages on the wall-clock side of
// the boundary: metrics exposition (obs) and request tracing (trace). They
// may read the process clock — annotated at each site — but the dependency
// between them and the deterministic set must point one way only: the
// service layer hands state to observability, never the reverse.
var observabilityDirs = map[string]bool{
	"obs":   true,
	"trace": true,
}

// IsObservabilityPkg reports whether the import path lies in (or under) one
// of the observability internal packages.
func IsObservabilityPkg(path string) bool {
	segs := strings.Split(path, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && observabilityDirs[segs[i+1]] {
			return true
		}
	}
	return false
}

// durabilityCriticalPkg reports whether the import path is in scope for the
// syncerr analyzer: the WAL/snapshot layer and the service that wires it.
func durabilityCriticalPkg(path string) bool {
	segs := strings.Split(path, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && (segs[i+1] == "durability" || segs[i+1] == "service") {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" if the identifier is not a package name.
func pkgNameOf(pass *Pass, id *ast.Ident) string {
	if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// exprString renders an expression as source text for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "expression"
	}
	return buf.String()
}
