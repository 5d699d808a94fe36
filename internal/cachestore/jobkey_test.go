package cachestore_test

import (
	"reflect"
	"testing"

	"power5prio/internal/cachestore"
	"power5prio/internal/core"
	"power5prio/internal/engine"
	"power5prio/internal/fame"
	"power5prio/internal/microbench"
	"power5prio/internal/prio"
	"power5prio/internal/workload"
)

// jobKeySchema mirrors the engine's Job key schema tag.
const jobKeySchema = "power5prio/job/v1"

// eachLeaf calls visit on every bool, number and string reachable from
// v through structs and arrays, in declaration order.
func eachLeaf(v reflect.Value, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(v.Field(i), visit)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(v.Index(i), visit)
		}
	default:
		visit(v)
	}
}

// perturb changes one leaf to a different value of its kind.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*1.5 + 1)
	case reflect.String:
		v.SetString(v.String() + "~")
	default:
		t.Fatalf("job leaf of kind %s", v.Kind())
	}
}

// TestJobKeyMatchesReference: over a fully populated Job and every
// single-leaf perturbation of it (the engine's key-perturbation corpus),
// engine.JobKey is byte-identical to the reference encoder, so neither
// on-disk entries nor Memo keys move.
func TestJobKeyMatchesReference(t *testing.T) {
	reg := workload.NewRegistry()
	refP, err := reg.Resolve(microbench.CPUInt)
	if err != nil {
		t.Fatal(err)
	}
	refS, err := reg.Resolve(microbench.LdIntL1)
	if err != nil {
		t.Fatal(err)
	}
	base := engine.Pair(refP, refS, prio.High, prio.Low, prio.Supervisor, 0.5, core.DefaultConfig(), fame.DefaultOptions())
	jobs := []engine.Job{base, engine.Single(refP, prio.User, 1, core.DefaultConfig(), fame.DefaultOptions())}
	n := 0
	eachLeaf(reflect.ValueOf(base), func(reflect.Value) { n++ })
	for k := 0; k < n; k++ {
		j := base
		i := 0
		eachLeaf(reflect.ValueOf(&j).Elem(), func(leaf reflect.Value) {
			if i == k {
				perturb(t, leaf)
			}
			i++
		})
		jobs = append(jobs, j)
	}
	if n < 50 {
		t.Fatalf("only %d job leaves walked", n)
	}
	for i, j := range jobs {
		want, err := cachestore.ReferenceHashValue(jobKeySchema, j)
		if err != nil {
			t.Fatalf("job %d: reference encoder: %v", i, err)
		}
		if got := engine.JobKey(j); got != want {
			t.Errorf("job %d: JobKey %s, reference %s", i, got, want)
		}
	}
}
