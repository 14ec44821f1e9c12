// Package lint is the project-specific static-analysis suite (mndmst-lint).
// It enforces the unchecked conventions the distributed MST pipeline's
// correctness rests on — conventions a general-purpose linter cannot know:
//
//   - det-mapiter: no Go map iteration order may leak into rank-visible
//     output on the data path (merge, partition, cluster, hypar, boruvka,
//     core). Bit-identical virtual clocks across transports require every
//     rank to produce byte-identical messages, and map order is the classic
//     leak.
//   - det-wallclock: time.Now/time.Since and the global math/rand source are
//     confined to the packages that legitimately touch real time (trace,
//     transport, gen); everywhere else they break run-to-run determinism.
//   - tag-literal / tag-dup: p2p protocols name their message tags through
//     constants; raw integer tags and duplicate tag values are how send/recv
//     pairs silently desynchronize.
//   - go-hygiene: goroutines outside the designated concurrency layers
//     (parutil, transport) must be joined in their spawning function, or the
//     rank program leaks work past its virtual-time accounting.
//   - err-drop: transport, wire, cluster and the commands may not discard
//     error returns — a swallowed transport error turns a clean failure into
//     a hang or a wrong answer.
//   - weight-cmp: edge weights are compared only through the designated
//     total-order helpers in internal/graph; ad-hoc <, > comparisons are
//     where tie-break bugs (non-unique MSF output) creep in.
//
// Findings can be suppressed only by a justification comment on the same
// or the preceding line: //lint:<token> <reason>. See DESIGN.md
// ("Determinism & analysis rules") for the token table.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position. Fix, when non-nil,
// is a mechanical remediation `mndmst-lint -fix` can apply.
type Finding struct {
	Pos token.Position
	ID  string
	Msg string
	Fix []TextEdit
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.ID, f.Msg)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	directives map[*ast.File]*fileDirectives
}

// Check is one analyzer of the suite. File-local checks set Run; the
// whole-program checks set RunProgram and see every loaded package at
// once (cross-package call graphs, tag constants used far from their
// declarations). Exactly one of the two is non-nil.
type Check struct {
	// ID is the stable check identifier reported with each finding.
	ID string
	// Suppress is the //lint: token that justifies ignoring a finding.
	Suppress string
	// Doc is a one-line description of the protected invariant.
	Doc string
	// Run analyzes one package.
	Run func(p *Package) []Finding
	// RunProgram analyzes the whole loaded program.
	RunProgram func(prog *Program) []Finding
}

// Checks is the registry of the full suite, in reporting order.
var Checks = []Check{
	{
		ID:       "det-mapiter",
		Suppress: "sorted",
		Doc:      "map iteration order must not reach rank-visible data on the merge/partition/cluster/hypar/boruvka/core path",
		Run:      checkMapIter,
	},
	{
		ID:       "det-wallclock",
		Suppress: "wallclock",
		Doc:      "time.Now/time.Since and the global math/rand source are confined to trace, transport, and gen",
		Run:      checkWallClock,
	},
	{
		ID:       "tag-literal",
		Suppress: "tag",
		Doc:      "message tags passed to Send/Recv-style calls must be named constants, not integer literals",
		Run:      checkTagLiteral,
	},
	{
		ID:       "tag-dup",
		Suppress: "tag",
		Doc:      "tag constants must be unique within a package and respect the reserved control-tag bands",
		Run:      checkTagDup,
	},
	{
		ID:       "go-hygiene",
		Suppress: "detached",
		Doc:      "goroutines outside parutil/transport must be joined (WaitGroup/channel) in the spawning function",
		Run:      checkGoHygiene,
	},
	{
		ID:       "err-drop",
		Suppress: "droperr",
		Doc:      "error returns must not be discarded in transport, wire, cluster, or cmd/*",
		Run:      checkErrDrop,
	},
	{
		ID:       "weight-cmp",
		Suppress: "weightcmp",
		Doc:      "edge weights are ordered only through the internal/graph tie-break helpers",
		Run:      checkWeightCmp,
	},
	{
		ID:         "lock-order",
		Suppress:   "lockorder",
		Doc:        "the mutex acquisition graph across transport, serve, and chaos must be cycle-free",
		RunProgram: checkLockOrder,
	},
	{
		ID:         "goroutine-leak",
		Suppress:   "goleak",
		Doc:        "every goroutine needs a termination path tied to a context, done-channel, or WaitGroup visible at the launch site",
		RunProgram: checkGoroutineLeak,
	},
	{
		ID:         "ctx-prop",
		Suppress:   "noctx",
		Doc:        "functions receiving a context must observe it in blocking calls and selects",
		RunProgram: checkCtxProp,
	},
	{
		ID:         "collective-symmetry",
		Suppress:   "collective",
		Doc:        "tag constants in merge/cluster/core are used in matched send/recv pairs with one payload encoding",
		RunProgram: checkCollectiveSymmetry,
	},
	{
		// Must stay last: it inspects which justification tokens the
		// earlier checks actually consumed during this Run.
		ID:         "stale-justification",
		Suppress:   "keep",
		Doc:        "//lint: justification tokens must match a live finding (mark intentional keepers with //lint:keep)",
		RunProgram: checkStaleJustifications,
	},
}

// Run executes the whole suite over the loaded packages and returns all
// findings sorted by file position. File-local checks run first, then the
// whole-program checks in registry order — stale-justification last, so it
// observes every suppression the other checks consumed.
func Run(pkgs []*Package) []Finding {
	prog := NewProgram(pkgs)
	var out []Finding
	for _, c := range Checks {
		if c.Run == nil {
			continue
		}
		for _, p := range pkgs {
			out = append(out, c.Run(p)...)
		}
	}
	for _, c := range Checks {
		if c.RunProgram != nil {
			out = append(out, c.RunProgram(prog)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.ID < b.ID
	})
	return out
}

// finding builds a Finding at the node's position.
func (p *Package) finding(id string, n ast.Node, format string, args ...interface{}) Finding {
	return Finding{Pos: p.Fset.Position(n.Pos()), ID: id, Msg: fmt.Sprintf(format, args...)}
}

// ScopePath reports the import path used for scoping decisions for file f:
// the package's import path unless the file carries a //lint:path override
// (used by the self-test corpus to impersonate data-path packages).
func (p *Package) ScopePath(f *ast.File) string {
	if d := p.fileDirectives(f); d != nil && d.pathOverride != "" {
		return d.pathOverride
	}
	return p.Path
}

// pathElem returns the last element of an import path.
func pathElem(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// pathHasParent reports whether the second-to-last element of path is elem
// (e.g. pathHasParent("mndmst/cmd/mndmstd", "cmd")).
func pathHasParent(path, elem string) bool {
	i := strings.LastIndex(path, "/")
	if i < 0 {
		return false
	}
	return pathElem(path[:i]) == elem
}

// typeOf resolves the type of e, or nil.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// objectOf resolves the object an identifier refers to, or nil.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// calleeObject resolves the called function/method object of a call, or nil
// (e.g. for conversions and calls through function-typed variables).
func (p *Package) calleeObject(call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.objectOf(fun)
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			return sel.Obj()
		}
		return p.objectOf(fun.Sel)
	}
	return nil
}

// calleeSignature resolves the signature of a call's callee, or nil for
// conversions and untypeable callees.
func (p *Package) calleeSignature(call *ast.CallExpr) *types.Signature {
	t := p.typeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// isPackageQualifier reports whether e is an identifier naming an imported
// package (so sel.X in time.Now is a qualifier, not a value).
func (p *Package) isPackageQualifier(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isPkg := p.objectOf(id).(*types.PkgName)
	return isPkg
}

// isErrorType reports whether t is the built-in error type.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
