// Package keyhash implements the p5lint analyzer that guards cache-key
// soundness: every value handed to cachestore.HashValue must be fully
// and unambiguously hashable at compile time.
//
// The persistent result cache keys entries by a canonical reflection
// hash of the Job (cachestore.HashValue). The encoder accepts only
// deterministic kinds — bool, fixed-width numbers, strings, arrays and
// structs — and rejects maps, slices, pointers, funcs, chans and
// interfaces at runtime, because their contents either have no stable
// canonical form or escape the walk entirely. Today that rejection
// surfaces as a MustHashValue panic in whatever process first builds a
// key, and TestJobKeyPerturbation sweeps the Job schema dynamically.
// keyhash performs the same walk over the *types* reachable from every
// hash-call site, so a field added to engine.Job (or anything it
// embeds: core.Config, fame.Options, workload.Ref, ...) that the hash
// schema cannot encode fails `make lint` instead of panicking later —
// including fields added but never given an explicit stable digest.
//
// It also checks the one ambiguity the runtime encoding cannot see:
// HashValue writes struct types by their reflect string
// ("pkgname.Type"), which is not package-path qualified, so two
// distinct struct types from same-named packages would alias under the
// encoding. keyhash reports any such collision in a walked type graph.
package keyhash

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"power5prio/internal/lint/analysis"
)

// Analyzer walks the type graph under every cachestore hash-call site
// and reports fields the canonical encoding would reject or alias.
var Analyzer = &analysis.Analyzer{
	Name: "keyhash",
	Doc: "verify every struct reachable from a cachestore.HashValue/MustHashValue call site " +
		"(e.g. the engine.JobKey hash root) contains only canonically hashable fields",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			argIdx, ok := hashCall(pass, call)
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			arg := call.Args[argIdx]
			t := pass.TypesInfo.TypeOf(arg)
			if t == nil {
				return true
			}
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				// The dynamic value escapes static analysis; the
				// runtime check still applies. Only flag the literal
				// interface-typed argument if it is a plain
				// conversion we can see through.
				return true
			}
			w := &walker{pass: pass, call: call, seen: make(map[types.Type]bool), names: make(map[string]types.Type)}
			w.walk(t, "value")
			return true
		})
	}
	return nil, nil
}

// hashCall reports whether the call is a cachestore hash entry point
// and returns the index of the hashed-value argument:
//
//   - cachestore.HashValue(schema, v) / MustHashValue(schema, v): v at 1
//   - (*engine.Engine).Memo(schema, keyVal, out, compute): keyVal at 1
func hashCall(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0, false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return 0, false
	}
	path := obj.Pkg().Path()
	switch obj.Name() {
	case "HashValue", "MustHashValue":
		if strings.HasSuffix(path, "cachestore") {
			return 1, true
		}
	case "Memo":
		if strings.HasSuffix(path, "engine") && obj.Type().(*types.Signature).Recv() != nil {
			return 1, true
		}
	}
	return 0, false
}

// walker mirrors cachestore.encodeValue over types.Type instead of
// reflect.Value.
type walker struct {
	pass  *analysis.Pass
	call  *ast.CallExpr
	seen  map[types.Type]bool
	names map[string]types.Type // reflect-style struct name -> type
}

func (w *walker) walk(t types.Type, path string) {
	if w.seen[t] {
		return
	}
	w.seen[t] = true
	defer delete(w.seen, t)

	if named, ok := t.(*types.Named); ok {
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			w.checkAlias(named, path)
		}
		w.walk(named.Underlying(), path)
		return
	}
	if alias, ok := t.(*types.Alias); ok {
		w.walk(types.Unalias(alias), path)
		return
	}

	switch u := t.(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.Bool,
			types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
			types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64, types.Uintptr,
			types.Float32, types.Float64,
			types.String:
			return
		default:
			w.reject(path, u.String())
		}
	case *types.Array:
		w.walk(u.Elem(), path+"[i]")
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			w.walk(f.Type(), path+"."+f.Name())
		}
	case *types.Map:
		w.reject(path, "map")
	case *types.Slice:
		w.reject(path, "slice")
	case *types.Pointer:
		w.reject(path, "pointer")
	case *types.Chan:
		w.reject(path, "chan")
	case *types.Signature:
		w.reject(path, "func")
	case *types.Interface:
		w.reject(path, "interface")
	default:
		w.reject(path, t.String())
	}
}

// reject reports one unhashable leaf, at the hash-call site so the
// diagnostic lands in the package that owns the key.
func (w *walker) reject(path, kind string) {
	w.pass.Reportf(w.call.Pos(),
		"hash key field %s has kind %s, which cachestore.HashValue rejects at runtime; "+
			"give the field an explicit stable digest (like workload.Ref fingerprints kernel "+
			"content) or remove it from the key (//p5lint:allow keyhash to defer to the runtime check)",
		path, kind)
}

// checkAlias detects two distinct struct types whose reflect strings
// collide: the runtime encoding writes t.String() ("pkgname.Type"),
// which is not package-path qualified.
func (w *walker) checkAlias(named *types.Named, path string) {
	obj := named.Obj()
	name := obj.Name()
	if obj.Pkg() != nil {
		name = obj.Pkg().Name() + "." + name
	}
	if prev, ok := w.names[name]; ok {
		if !types.Identical(prev, named) {
			w.pass.Reportf(w.call.Pos(),
				"hash key field %s: struct types %s and %s both encode as %q "+
					"(the canonical encoding is not package-path qualified), so their "+
					"keys can alias; rename one of the types",
				path, fullName(prev), fullName(named), name)
		}
		return
	}
	w.names[name] = named
}

func fullName(t types.Type) string {
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return fmt.Sprintf("%s.%s", named.Obj().Pkg().Path(), named.Obj().Name())
	}
	return t.String()
}
