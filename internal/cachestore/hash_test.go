package cachestore

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"reflect"
	"strings"
	"testing"
)

// referenceHashValue is the original streaming encoder, kept as the
// specification of the canonical encoding: it feeds a hash.Hash field by
// field and builds every field path eagerly. HashValue must produce
// byte-identical keys — and the same errors — for every value, or every
// persisted entry and Memo key would move.
func referenceHashValue(schema string, v any) (Key, error) {
	h := sha256.New()
	refWriteString(h, schema)
	if err := refEncodeValue(h, reflect.ValueOf(v), "value"); err != nil {
		return Key{}, err
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// ReferenceHashValue exports the reference encoder to the external
// test package, which checks it against engine.JobKey.
var ReferenceHashValue = referenceHashValue

func refWriteString(h hash.Hash, s string) {
	refWriteUint64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func refWriteUint64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func refEncodeValue(h hash.Hash, v reflect.Value, path string) error {
	if !v.IsValid() {
		return fmt.Errorf("cachestore: cannot hash invalid value at %s", path)
	}
	// Unwrap interface values (e.g. the any parameter itself).
	if v.Kind() == reflect.Interface && path == "value" && !v.IsNil() {
		return refEncodeValue(h, v.Elem(), path)
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			refWriteUint64(h, 1)
		} else {
			refWriteUint64(h, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		refWriteUint64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		refWriteUint64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		refWriteUint64(h, math.Float64bits(v.Float()))
	case reflect.String:
		refWriteString(h, v.String())
	case reflect.Array:
		refWriteString(h, "array")
		refWriteUint64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			if err := refEncodeValue(h, v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		refWriteString(h, "struct")
		refWriteString(h, t.String())
		refWriteUint64(h, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			refWriteString(h, f.Name)
			refWriteString(h, f.Type.String())
			if err := refEncodeValue(h, v.Field(i), path+"."+f.Name); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("cachestore: cannot hash %s at %s (give the field an explicit stable digest instead)", v.Kind(), path)
	}
	return nil
}

type hashFixture struct {
	A int
	B string
	C float64
	D [2]uint8
	E bool
}

var fixture = hashFixture{A: -3, B: "x", C: 1.5, D: [2]uint8{7, 9}, E: true}

// TestHashDeterministic pins the canonical encoding: the key of a fixed
// value must never change across runs, processes or refactors — a silent
// algorithm change would strand (at best) or misread (at worst) every
// persisted cache. If this test fails because the encoding was changed
// deliberately, bump the schema everywhere and update the constant.
func TestHashDeterministic(t *testing.T) {
	const pinned = "2f2418376b68238c397e8948fb20a0882deabca657dba9831637c4d4db5ec57a"
	k1, err := HashValue("test/v1", fixture)
	if err != nil {
		t.Fatalf("HashValue: %v", err)
	}
	k2, err := HashValue("test/v1", fixture)
	if err != nil {
		t.Fatalf("HashValue: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("HashValue not deterministic: %s vs %s", k1, k2)
	}
	if k1.String() != pinned {
		t.Errorf("canonical encoding changed: key %s, pinned %s", k1, pinned)
	}
	if k1.IsZero() {
		t.Error("real key reads as zero")
	}
	if ref, err := referenceHashValue("test/v1", fixture); err != nil || ref.String() != pinned {
		t.Errorf("reference encoder: key %s (err %v), pinned %s", ref, err, pinned)
	}
}

// TestHashMatchesReference: HashValue agrees with the reference encoder
// on keys and on errors — field paths included — across every kind the
// encoding accepts or rejects.
func TestHashMatchesReference(t *testing.T) {
	type inner struct {
		U   uint16
		F32 float32
		Arr [3]struct{ S string }
	}
	type nested struct {
		I     int8
		In    inner
		Grid  [2][2]int64
		Empty struct{}
	}
	type badArray struct {
		Items [2]struct{ P *int }
	}
	type badIface struct{ X any }
	values := []any{
		fixture, 0, "", true, 3.25, [0]int{}, [2]string{"a", "bc"}, struct{}{},
		nested{I: -1, In: inner{U: 9, F32: 0.5, Arr: [3]struct{ S string }{{"p"}, {""}, {"qq"}}}, Grid: [2][2]int64{{1, 2}, {3, 4}}},
		nil, map[string]int{}, []int{1}, badArray{}, badIface{X: 1},
		struct{ Inner struct{ M map[string]int } }{},
	}
	for i, v := range values {
		want, wantErr := referenceHashValue("s", v)
		got, gotErr := HashValue("s", v)
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("value %d (%T): HashValue = %s, %v; reference = %s, %v", i, v, got, gotErr, want, wantErr)
		}
	}
}

// TestHashSchemaSeparation: the same value under different schemas must
// produce different keys, so bumping a schema orphans old entries.
func TestHashSchemaSeparation(t *testing.T) {
	k1 := MustHashValue("test/v1", fixture)
	k2 := MustHashValue("test/v2", fixture)
	if k1 == k2 {
		t.Error("schema change did not change the key")
	}
}

// TestHashFieldNameSensitivity: identical field values under renamed
// fields must not alias (a struct refactor must invalidate, not hit).
func TestHashFieldNameSensitivity(t *testing.T) {
	type a struct{ X int }
	type b struct{ Y int }
	if MustHashValue("s", a{1}) == MustHashValue("s", b{1}) {
		t.Error("renamed field did not change the key")
	}
}

// TestHashStringBoundaries: length prefixes must prevent adjacent
// strings from aliasing ("ab"+"c" vs "a"+"bc").
func TestHashStringBoundaries(t *testing.T) {
	type s struct{ A, B string }
	if MustHashValue("s", s{"ab", "c"}) == MustHashValue("s", s{"a", "bc"}) {
		t.Error("string boundary aliasing")
	}
}

// TestHashRejectsUnstableKinds: kinds with no deterministic content
// (maps, slices, pointers, funcs) must be rejected with the field path,
// not silently hashed by address.
func TestHashRejectsUnstableKinds(t *testing.T) {
	type bad struct {
		Inner struct{ M map[string]int }
	}
	_, err := HashValue("s", bad{})
	if err == nil {
		t.Fatal("map field was accepted")
	}
	if !strings.Contains(err.Error(), "Inner.M") {
		t.Errorf("error does not name the offending field path: %v", err)
	}

	defer func() {
		if recover() == nil {
			t.Error("MustHashValue did not panic on unhashable value")
		}
	}()
	MustHashValue("s", bad{})
}

// TestHashDistinguishesValues: a spread of single-field changes, each of
// which must move the key.
func TestHashDistinguishesValues(t *testing.T) {
	seen := map[Key]string{MustHashValue("s", fixture): "base"}
	for name, v := range map[string]hashFixture{
		"A":    {A: -4, B: "x", C: 1.5, D: [2]uint8{7, 9}, E: true},
		"B":    {A: -3, B: "y", C: 1.5, D: [2]uint8{7, 9}, E: true},
		"C":    {A: -3, B: "x", C: 1.25, D: [2]uint8{7, 9}, E: true},
		"D[1]": {A: -3, B: "x", C: 1.5, D: [2]uint8{7, 10}, E: true},
		"E":    {A: -3, B: "x", C: 1.5, D: [2]uint8{7, 9}, E: false},
	} {
		k := MustHashValue("s", v)
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collides with %s", name, prev)
		}
		seen[k] = name
	}
}
