package engine

import (
	"fmt"
	"reflect"
	"testing"

	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/fame"
	"power5prio/internal/isa"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// leafPaths recursively collects the path of every mutable leaf field
// reachable from v (bools, integers, floats, strings — descending
// through structs and arrays). Any other kind fails the test: a new Job
// field of an unhashable kind must be given an explicit digest, not
// silently skipped.
func leafPaths(t *testing.T, v reflect.Value, path string, out *[]string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64,
		reflect.String:
		*out = append(*out, path)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			leafPaths(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Fatalf("unexported field %s.%s cannot participate in the disk key; export it or digest it explicitly", path, f.Name)
			}
			leafPaths(t, v.Field(i), path+"."+f.Name, out)
		}
	default:
		t.Fatalf("field %s has kind %s, which the disk key cannot hash", path, v.Kind())
	}
}

// fieldAt walks a dotted/indexed path to the addressable leaf value.
func fieldAt(t *testing.T, root reflect.Value, path string) reflect.Value {
	t.Helper()
	v := root
	rest := path
	for rest != "" {
		var seg string
		if i := indexAny(rest, ".["); i < 0 {
			seg, rest = rest, ""
		} else if rest[i] == '.' {
			seg, rest = rest[:i], rest[i+1:]
		} else { // '['
			if seg = rest[:i]; seg == "" {
				var idx int
				fmt.Sscanf(rest, "[%d]", &idx)
				v = v.Index(idx)
				if j := indexAny(rest, "]"); j >= 0 {
					rest = rest[j+1:]
					if len(rest) > 0 && rest[0] == '.' {
						rest = rest[1:]
					}
				}
				continue
			}
			rest = rest[i:]
		}
		if seg != "" {
			v = v.FieldByName(seg)
			if !v.IsValid() {
				t.Fatalf("path %s: no field %q", path, seg)
			}
		}
	}
	return v
}

func indexAny(s, chars string) int {
	for i := 0; i < len(s); i++ {
		for j := 0; j < len(chars); j++ {
			if s[i] == chars[j] {
				return i
			}
		}
	}
	return -1
}

// mutate changes a leaf to a deterministic different value.
func mutate(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		if v.Float() == 0 {
			v.SetFloat(1.5)
		} else {
			v.SetFloat(v.Float() * 1.5)
		}
	case reflect.String:
		v.SetString(v.String() + "~")
	default:
		t.Fatalf("cannot mutate kind %s", v.Kind())
	}
}

// baseJob is a fully-populated job: every field non-degenerate so each
// perturbation is meaningful.
func baseJob(t testing.TB) Job {
	return Pair(
		ref(t, microbench.CPUInt), ref(t, microbench.LdIntL1),
		prio.High, prio.Low,
		prio.Supervisor, 0.5,
		core.DefaultConfig(), fame.DefaultOptions(),
	)
}

// TestJobKeyPerturbation is the exhaustive field-perturbation property
// of the acceptance criteria: changing ANY leaf field of a Job — through
// the workload Refs, the priority/privilege settings, the iteration
// scale, every core.Config sub-field (mem, pipeline, balance) and every
// fame.Options field — must change the persistent cache key, and no two
// perturbations may collide.
func TestJobKeyPerturbation(t *testing.T) {
	base := baseJob(t)
	baseKey := JobKey(base)

	var paths []string
	leafPaths(t, reflect.ValueOf(base), "Job", &paths)
	// The walk must actually reach the deep config: a refactor that
	// hides fields behind an unhashable kind would shrink this list.
	if len(paths) < 50 {
		t.Fatalf("only %d leaf fields found, expected the full Job/Config/Options surface", len(paths))
	}

	seen := map[cachestore.Key]string{baseKey: "base"}
	for _, path := range paths {
		j := base // value copy
		leaf := fieldAt(t, reflect.ValueOf(&j).Elem(), trimRoot(path))
		if !leaf.CanSet() {
			t.Fatalf("leaf %s not settable", path)
		}
		mutate(t, leaf)
		if j == base {
			t.Fatalf("mutating %s did not change the Job value", path)
		}
		k := JobKey(j)
		if k == baseKey {
			t.Errorf("perturbing %s did not change the disk key", path)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collides with %s", path, prev)
		}
		seen[k] = path
	}
}

func trimRoot(path string) string {
	const root = "Job."
	if len(path) > len(root) && path[:len(root)] == root {
		return path[len(root):]
	}
	return path
}

// TestJobKeyConstructionPaths: jobs that are semantically equal must
// hash identically no matter how they were built, and jobs that differ
// semantically must not.
func TestJobKeyConstructionPaths(t *testing.T) {
	cfg := core.DefaultConfig()
	opts := fame.DefaultOptions()
	refA := ref(t, microbench.CPUInt)

	// Single vs Pair-with-empty-secondary: the same placement.
	single := Single(refA, prio.Supervisor, 1.0, cfg, opts)
	pairOff := Pair(refA, workload.Ref{}, prio.Medium, prio.Medium, prio.Supervisor, 1.0, cfg, opts)
	if single != pairOff {
		t.Fatalf("Single and thread-off Pair built different Jobs:\n%+v\n%+v", single, pairOff)
	}
	if JobKey(single) != JobKey(pairOff) {
		t.Error("identical jobs from different constructors hash differently")
	}

	// Registry resolution is stable across registries and processes for
	// built-ins: two independent registries yield the same Ref and key.
	r1, err := workload.NewRegistry().Resolve(microbench.CPUInt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := workload.NewRegistry().Resolve(microbench.CPUInt)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("registry resolution unstable: %+v vs %+v", r1, r2)
	}
	if JobKey(Single(r1, prio.Supervisor, 1.0, cfg, opts)) != JobKey(Single(r2, prio.Supervisor, 1.0, cfg, opts)) {
		t.Error("same workload resolved twice hashes differently")
	}

	// A real secondary is a different measurement than thread-off.
	withB := Pair(refA, ref(t, microbench.LdIntL1), prio.Medium, prio.Medium, prio.Supervisor, 1.0, cfg, opts)
	if JobKey(withB) == JobKey(single) {
		t.Error("pair job collides with single job")
	}

	// Swapping primary and secondary is a different placement.
	swapped := Pair(ref(t, microbench.LdIntL1), refA, prio.Medium, prio.Medium, prio.Supervisor, 1.0, cfg, opts)
	if JobKey(withB) == JobKey(swapped) {
		t.Error("swapped pair collides")
	}
}

// TestJobKeyCustomKernels: pattern-free custom kernels are fingerprinted
// by content, so the same kernel registered in two registries (two
// processes) hashes to the same disk key, while different content — or a
// pattern-bearing kernel, which has no stable content hash — does not.
func TestJobKeyCustomKernels(t *testing.T) {
	build := func(stores int) *isa.Kernel {
		b := isa.NewBuilder("custom_k")
		it, one := b.Reg("it"), b.Reg("one")
		for i := 0; i < stores; i++ {
			b.Op2(isa.OpIntAdd, it, it, one)
		}
		b.Branch(isa.BranchLoop, it)
		return b.MustBuild(16)
	}
	cfg := core.DefaultConfig()
	opts := testOptions()

	reg1, reg2 := workload.NewRegistry(), workload.NewRegistry()
	ref1, err := reg1.Register(build(3))
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := reg2.Register(build(3))
	if err != nil {
		t.Fatal(err)
	}
	k1 := JobKey(Single(ref1, prio.Supervisor, 1.0, cfg, opts))
	k2 := JobKey(Single(ref2, prio.Supervisor, 1.0, cfg, opts))
	if k1 != k2 {
		t.Error("identical custom kernel content hashes differently across registries")
	}

	reg3 := workload.NewRegistry()
	ref3, err := reg3.Register(build(4))
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(Single(ref3, prio.Supervisor, 1.0, cfg, opts)) == k1 {
		t.Error("different custom kernel content collides")
	}

	// Pattern-bearing kernels are fingerprinted by registration identity
	// (nonce), never by content — two registrations must not alias.
	pattern := func() *isa.Kernel {
		b := isa.NewBuilder("custom_pat")
		it, one := b.Reg("it"), b.Reg("one")
		b.Op2(isa.OpIntAdd, it, it, one)
		b.Pattern(func(i uint64) bool { return i%2 == 0 })
		b.Branch(isa.BranchPattern, it)
		b.Branch(isa.BranchLoop, it)
		return b.MustBuild(16)
	}
	p1, err := workload.NewRegistry().Register(pattern())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := workload.NewRegistry().Register(pattern())
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(Single(p1, prio.Supervisor, 1.0, cfg, opts)) == JobKey(Single(p2, prio.Supervisor, 1.0, cfg, opts)) {
		t.Error("pattern-bearing kernels alias in the disk key")
	}
}

// TestJobKeyAllocs gates the cost of JobKey, which every client
// submission and every daemon admission computes per job: a
// deterministic allocation count, where wall time is too noisy to gate.
func TestJobKeyAllocs(t *testing.T) {
	j := baseJob(t)
	JobKey(j) // encode the struct headers once
	if n := testing.AllocsPerRun(100, func() { JobKey(j) }); n > 4 {
		t.Errorf("JobKey allocates %v times per call, want at most 4", n)
	}
}

func BenchmarkJobKey(b *testing.B) {
	j := baseJob(b)
	b.ReportAllocs()
	for b.Loop() {
		JobKey(j)
	}
}
