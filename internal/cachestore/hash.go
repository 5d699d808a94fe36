package cachestore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Key identifies one stored entry: a SHA-256 over the canonical encoding
// of the value the entry memoizes. Keys are stable across processes,
// architectures and Go versions — unlike Go's built-in map hashing — so
// they are safe to use as on-disk names.
type Key [sha256.Size]byte

// String renders the key as lower-case hex (the on-disk spelling).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// IsZero reports whether the key is the zero value (never produced by
// HashValue, whose encoding always includes a schema prefix).
func (k Key) IsZero() bool { return k == Key{} }

// HashValue computes the canonical content key of a value under a schema
// tag. The schema names the meaning of the value ("power5prio/job/v1");
// bump it whenever the interpretation of equal bytes changes, so stale
// entries become unreachable instead of wrong.
//
// The encoding walks the value by reflection in declaration order and is
// designed so that every semantic change to the value changes the key:
//
//   - numeric leaves encode as fixed-width little-endian (floats by IEEE
//     bit pattern), strings length-prefixed, so adjacent fields cannot
//     alias each other;
//   - struct fields contribute their names and types as well as their
//     values, so renaming or retyping a field invalidates old keys
//     (conservative: a rename can only cause misses, never false hits);
//   - only deterministic kinds are accepted. A value reaching a map,
//     slice, pointer, func, chan or interface returns an error — such a
//     field must be given an explicit stable digest (the way
//     workload.Ref fingerprints kernel content) before it can be part of
//     a key.
//
// The whole encoding is appended into one pooled buffer and hashed in a
// single pass; each struct type's header and field-name bytes are
// encoded once per process, so hashing a value allocates nothing beyond
// what boxing it into an any costs.
func HashValue(schema string, v any) (Key, error) {
	bp := bufPool.Get().(*[]byte)
	buf, bad := appendValue(appendString((*bp)[:0], schema), reflect.ValueOf(v))
	var k Key
	if bad == nil {
		k = sha256.Sum256(buf)
	}
	*bp = buf
	bufPool.Put(bp)
	if bad != nil {
		return Key{}, bad.err()
	}
	return k, nil
}

// MustHashValue is HashValue for values the caller guarantees hashable
// (e.g. engine Jobs, whose hashability is enforced by tests). It panics
// on error.
func MustHashValue(schema string, v any) Key {
	k, err := HashValue(schema, v)
	if err != nil {
		panic(fmt.Sprintf("cachestore: %v", err))
	}
	return k
}

// bufPool recycles encoding buffers across HashValue calls.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendString appends a length-prefixed string.
func appendString(buf []byte, s string) []byte {
	return append(appendUint64(buf, uint64(len(s))), s...)
}

// appendUint64 appends a fixed-width little-endian word.
func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// structInfo is the constant part of a struct type's encoding: the
// header and, per field, its name and type, in declaration order.
type structInfo struct {
	header []byte
	fields []fieldInfo
}

type fieldInfo struct {
	name   string
	prefix []byte
}

// structInfos caches each struct type's structInfo (reflect.Type ->
// *structInfo). Entries are pure functions of the type, so a race to
// fill one stores equal values.
var structInfos sync.Map

func structInfoOf(t reflect.Type) *structInfo {
	if si, ok := structInfos.Load(t); ok {
		return si.(*structInfo)
	}
	si := &structInfo{fields: make([]fieldInfo, t.NumField())}
	si.header = appendUint64(appendString(appendString(nil, "struct"), t.String()), uint64(t.NumField()))
	for i := range si.fields {
		f := t.Field(i)
		si.fields[i] = fieldInfo{name: f.Name, prefix: appendString(appendString(nil, f.Name), f.Type.String())}
	}
	structInfos.Store(t, si)
	return si
}

// unhashable reports a value HashValue cannot encode. Its position is
// collected innermost-first while the encoder unwinds, so the common,
// successful path never builds a path string.
type unhashable struct {
	kind reflect.Kind // reflect.Invalid for an invalid value
	segs []string     // path segments below "value", innermost first
}

func (u *unhashable) err() error {
	var path strings.Builder
	path.WriteString("value")
	for i := len(u.segs) - 1; i >= 0; i-- {
		path.WriteString(u.segs[i])
	}
	if u.kind == reflect.Invalid {
		return fmt.Errorf("cachestore: cannot hash invalid value at %s", path.String())
	}
	return fmt.Errorf("cachestore: cannot hash %s at %s (give the field an explicit stable digest instead)", u.kind, path.String())
}

// appendValue appends v's canonical encoding to buf.
func appendValue(buf []byte, v reflect.Value) ([]byte, *unhashable) {
	switch v.Kind() {
	case reflect.Invalid:
		return buf, &unhashable{kind: reflect.Invalid}
	case reflect.Bool:
		if v.Bool() {
			return appendUint64(buf, 1), nil
		}
		return appendUint64(buf, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendUint64(buf, uint64(v.Int())), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return appendUint64(buf, v.Uint()), nil
	case reflect.Float32, reflect.Float64:
		return appendUint64(buf, math.Float64bits(v.Float())), nil
	case reflect.String:
		return appendString(buf, v.String()), nil
	case reflect.Array:
		buf = appendUint64(appendString(buf, "array"), uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			var bad *unhashable
			if buf, bad = appendValue(buf, v.Index(i)); bad != nil {
				bad.segs = append(bad.segs, "["+strconv.Itoa(i)+"]")
				return buf, bad
			}
		}
		return buf, nil
	case reflect.Struct:
		si := structInfoOf(v.Type())
		buf = append(buf, si.header...)
		for i, f := range si.fields {
			buf = append(buf, f.prefix...)
			var bad *unhashable
			if buf, bad = appendValue(buf, v.Field(i)); bad != nil {
				bad.segs = append(bad.segs, "."+f.name)
				return buf, bad
			}
		}
		return buf, nil
	default:
		return buf, &unhashable{kind: v.Kind()}
	}
}
