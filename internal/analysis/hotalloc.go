package analysis

import (
	"go/ast"
)

// hotFuncNames are the functions that form the zero-allocation hot paths:
// every WorkspaceGAR kernel (AggregateInto, enforced at runtime by
// TestWorkspaceZeroSteadyStateAllocs) and the datagram encode and decode
// paths, held at 0 allocs/packet by the SendAllocs and RecvAllocs
// benchmarks. The gcflags=-m escape baseline (see cmd/aggrevet
// -escape) covers what this syntactic pass cannot see — allocations the
// compiler introduces for escaping locals.
var hotFuncNames = map[string]bool{
	"AggregateInto":    true, // gar workspace kernels
	"AppendPacket":     true, // transport zero-copy packet encode
	"SplitInto":        true, // transport gradient → packet slicing
	"putCoords":        true, // transport coordinate encode
	"getCoords":        true, // transport coordinate decode
	"DecodePacketInto": true, // transport zero-alloc datagram decode
}

// HotAlloc flags allocation sites inside the hot functions: make, new,
// composite literals, growing appends and closures (a func literal that
// captures state heap-allocates on every call — PR 6's closure-per-flush
// bug). Amortized or cold allocations (workspace arena growth) are
// justified in place with //aggrevet:alloc, which doubles as the index of
// every spot the zero-alloc tests must cover.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	Directive: "alloc",
	Doc: "flags allocation sites (make/new/append/composite literals/" +
		"closures) inside zero-allocation hot-path functions",
	Run: runHotAlloc,
}

func runHotAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotFuncNames[fd.Name.Name] {
				continue
			}
			checkHotBody(p, fd)
		}
	}
}

func checkHotBody(p *Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	// A composite literal written directly into an append slot is stored
	// in the destination slice's backing array, not separately allocated;
	// the append itself is the (already flagged) potential allocation.
	inAppendSlot := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			fn, ok := x.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			// Only the builtins: a shadowing local would resolve to a
			// non-nil *types.Func with a package.
			if obj := p.ObjectOf(fn); obj != nil && obj.Pkg() != nil {
				return true
			}
			switch fn.Name {
			case "make", "new":
				p.Reportf(x.Pos(),
					"%s in hot function %s allocates; reuse a workspace/arena buffer or justify with %salloc",
					fn.Name, name, DirectivePrefix)
			case "append":
				p.Reportf(x.Pos(),
					"append in hot function %s may grow and allocate; ensure capacity up front via the workspace or justify with %salloc",
					name, DirectivePrefix)
				for _, arg := range x.Args[1:] {
					if lit, ok := arg.(*ast.CompositeLit); ok {
						inAppendSlot[lit] = true
					}
				}
			}
		case *ast.CompositeLit:
			if inAppendSlot[x] {
				return true // elements may still allocate; keep walking
			}
			p.Reportf(x.Pos(),
				"composite literal in hot function %s may escape and allocate; hoist it onto the workspace/receiver or justify with %salloc",
				name, DirectivePrefix)
			return false
		case *ast.FuncLit:
			p.Reportf(x.Pos(),
				"func literal in hot function %s heap-allocates its captures per call; hoist the state onto a struct method or justify with %salloc",
				name, DirectivePrefix)
			return false // inner allocations belong to the flagged closure
		}
		return true
	})
}
