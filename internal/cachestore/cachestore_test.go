package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(t *testing.T, v any) Key {
	t.Helper()
	k, err := HashValue("cachestore/test", v)
	if err != nil {
		t.Fatalf("HashValue: %v", err)
	}
	return k
}

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := openStore(t)
	k := testKey(t, "a")
	payload := []byte(`{"ipc": 1.25}`)

	if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get before Put: %v, want ErrNotFound", err)
	}
	if err := s.Put(k, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}

	// A second handle on the same directory sees the entry (this is the
	// cross-process reuse path, minus the process boundary).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, err := s2.Get(k); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := openStore(t)
	k := testKey(t, "empty")
	if err := s.Put(k, nil); err != nil {
		t.Fatalf("Put(nil): %v", err)
	}
	if got, err := s.Get(k); err != nil || len(got) != 0 {
		t.Fatalf("Get = %q, %v; want empty, nil", got, err)
	}
}

// corrupt applies fn to the entry's file bytes and writes them back.
func corrupt(t *testing.T, s *Store, k Key, fn func([]byte) []byte) {
	t.Helper()
	path := s.EntryPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatalf("rewrite entry: %v", err)
	}
}

// TestCorruptionDetection covers the three damage classes the ISSUE
// names — truncation, bit flips and version bumps — plus a misnamed
// entry. Each must be detected (ErrCorrupt), self-healed (file removed,
// next Get a clean miss) and recoverable (Put rewrites a good entry).
func TestCorruptionDetection(t *testing.T) {
	payload := []byte(`{"cycles": 123456, "ipc": 0.75}`)
	cases := []struct {
		name   string
		damage func([]byte) []byte
	}{
		{"truncated-header", func(raw []byte) []byte { return raw[:headerSize-3] }},
		{"truncated-payload", func(raw []byte) []byte { return raw[:len(raw)-5] }},
		{"payload-bit-flip", func(raw []byte) []byte {
			raw[headerSize+2] ^= 0x10
			return raw
		}},
		{"header-bit-flip", func(raw []byte) []byte {
			raw[5] ^= 0x01 // inside the embedded key
			return raw
		}},
		{"version-bump", func(raw []byte) []byte {
			raw[3]++ // magic's format-version byte
			return raw
		}},
		{"extra-bytes", func(raw []byte) []byte { return append(raw, 0xFF) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t)
			k := testKey(t, tc.name)
			if err := s.Put(k, payload); err != nil {
				t.Fatalf("Put: %v", err)
			}
			corrupt(t, s, k, tc.damage)

			if _, err := s.Get(k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get on damaged entry: %v, want ErrCorrupt", err)
			}
			// Detection unlinks the entry: the next Get is a clean miss.
			if _, err := s.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get after detection: %v, want ErrNotFound", err)
			}
			// Recompute-and-rewrite restores service.
			if err := s.Put(k, payload); err != nil {
				t.Fatalf("rewrite Put: %v", err)
			}
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("Get after rewrite = %q, %v", got, err)
			}
		})
	}
}

// TestMisnamedEntry: an entry copied under another key's name must not
// be served — the envelope binds the key.
func TestMisnamedEntry(t *testing.T) {
	s := openStore(t)
	k1, k2 := testKey(t, 1), testKey(t, 2)
	if err := s.Put(k1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(s.EntryPath(k1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.EntryPath(k2)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.EntryPath(k2), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(k2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get on misnamed entry: %v, want ErrCorrupt", err)
	}
	if got, err := s.Get(k1); err != nil || string(got) != "one" {
		t.Fatalf("original entry damaged: %q, %v", got, err)
	}
}

func TestDeleteAndClear(t *testing.T) {
	s := openStore(t)
	for i := 0; i < 5; i++ {
		if err := s.Put(testKey(t, i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(testKey(t, 3)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete(testKey(t, 3)); err != nil {
		t.Fatalf("Delete absent: %v", err)
	}
	info, err := s.Info()
	if err != nil || info.Entries != 4 {
		t.Fatalf("Info after delete = %+v, %v; want 4 entries", info, err)
	}
	if err := s.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	info, err = s.Info()
	if err != nil || info.Entries != 0 || info.Bytes != 0 {
		t.Fatalf("Info after clear = %+v, %v; want empty", info, err)
	}
	// The store stays usable after Clear.
	if err := s.Put(testKey(t, "after"), []byte("x")); err != nil {
		t.Fatalf("Put after Clear: %v", err)
	}
}

func TestVerify(t *testing.T) {
	s := openStore(t)
	var keys []Key
	for i := 0; i < 6; i++ {
		k := testKey(t, i)
		keys = append(keys, k)
		if err := s.Put(k, []byte(fmt.Sprint("payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, s, keys[1], func(raw []byte) []byte { raw[headerSize] ^= 0xFF; return raw })
	corrupt(t, s, keys[4], func(raw []byte) []byte { return raw[:headerSize-1] })

	vr, err := s.Verify(false)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if vr.Checked != 6 || vr.Corrupt != 2 || vr.Removed != 0 {
		t.Fatalf("Verify(false) = %+v, want 6 checked, 2 corrupt, 0 removed", vr)
	}

	vr, err = s.Verify(true)
	if err != nil {
		t.Fatalf("Verify(repair): %v", err)
	}
	if vr.Corrupt != 2 || vr.Removed != 2 {
		t.Fatalf("Verify(true) = %+v, want 2 corrupt removed", vr)
	}
	vr, err = s.Verify(false)
	if err != nil || vr.Checked != 4 || vr.Corrupt != 0 {
		t.Fatalf("Verify after repair = %+v, %v; want 4 clean", vr, err)
	}
}

// TestConcurrentSharedDir is the -race coverage for one cache directory
// shared by concurrent readers, writers, verifiers and scanners across
// two Store handles — the normal state of affairs when parallel engine
// workers and a second process share a cache.
func TestConcurrentSharedDir(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*Store{s1, s2}

	const keys = 16
	payloadOf := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64) }

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := stores[g%2]
			for round := 0; round < 50; round++ {
				i := (g + round) % keys
				k := testKey(t, i)
				switch round % 4 {
				case 0:
					if err := s.Put(k, payloadOf(i)); err != nil {
						t.Errorf("Put: %v", err)
					}
				case 1:
					got, err := s.Get(k)
					if err == nil && !bytes.Equal(got, payloadOf(i)) {
						t.Errorf("Get(%d) served wrong payload", i)
					} else if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Get: %v", err)
					}
				case 2:
					if _, err := s.Verify(false); err != nil {
						t.Errorf("Verify: %v", err)
					}
				case 3:
					if _, err := s.Info(); err != nil {
						t.Errorf("Info: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
