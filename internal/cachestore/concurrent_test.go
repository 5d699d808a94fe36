package cachestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the multi-process contract the distributed setup
// leans on: the documented zero-code sharding path is several worker
// processes sharing one cachestore directory on network storage, so
// concurrent writers, readers and Verify — each through its own
// Store handle, as separate processes would be — must never corrupt an
// entry, fail a clean write, or misreport corruption.

// concKey derives a distinct key per index.
func concKey(i int) Key { return MustHashValue("cachestore/test/v1", i) }

// concPayload is a deterministic payload per index, so readers can
// verify content, not just presence.
func concPayload(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 64+i%17) }

// TestConcurrentMultiStoreAccess: several Store handles on one
// directory (one per simulated process) race puts and gets over an
// overlapping key space. Every read must return either ErrNotFound
// (not yet written) or the exact payload — never corruption, never a
// partial write — and the store must verify clean afterwards.
func TestConcurrentMultiStoreAccess(t *testing.T) {
	dir := t.TempDir()
	const stores = 4
	const keys = 48
	const rounds = 40

	handles := make([]*Store, stores)
	for i := range handles {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = s
	}

	var wg sync.WaitGroup
	errc := make(chan error, stores*2)
	for g := 0; g < stores; g++ {
		wg.Add(2)
		s := handles[g]
		go func(seed int) { // writer
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (seed + r) % keys
				if err := s.Put(concKey(i), concPayload(i)); err != nil {
					errc <- fmt.Errorf("put %d: %w", i, err)
					return
				}
			}
		}(g * 7)
		go func(seed int) { // reader
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (seed + 3*r) % keys
				payload, err := s.Get(concKey(i))
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					errc <- fmt.Errorf("get %d: %w", i, err)
					return
				}
				if !bytes.Equal(payload, concPayload(i)) {
					errc <- fmt.Errorf("get %d: wrong payload (%d bytes)", i, len(payload))
					return
				}
			}
		}(g * 11)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	vr, err := handles[0].Verify(false)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Corrupt != 0 {
		t.Errorf("%d corrupt entries after concurrent access", vr.Corrupt)
	}
	if vr.Checked == 0 {
		t.Error("nothing written")
	}
}

// TestVerifyRacingWrites: Verify in repair mode scanning while writers
// stage-and-rename entries must never count an in-flight write as
// corrupt, and must never unlink a staging file out from under its
// writer (which would fail the writer's rename) — the exact race a
// shared network directory hits when one operator runs `p5exp -cache
// verify` while workers are busy.
func TestVerifyRacingWrites(t *testing.T) {
	dir := t.TempDir()
	vStore, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 3
	const perWriter = 150
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)

	wg.Add(1)
	go func() { // the administrator: verify/repair in a tight loop
		defer wg.Done()
		for !stop.Load() {
			vr, err := vStore.Verify(true)
			if err != nil {
				errc <- fmt.Errorf("verify: %w", err)
				return
			}
			if vr.Corrupt != 0 {
				errc <- fmt.Errorf("verify flagged %d in-flight writes as corrupt", vr.Corrupt)
				return
			}
		}
	}()
	var writerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		writerWG.Add(1)
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		go func(base int) {
			defer wg.Done()
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				k := base*perWriter + i
				if err := s.Put(concKey(k), concPayload(k%250)); err != nil {
					errc <- fmt.Errorf("put %d during verify: %w", k, err)
					return
				}
			}
		}(g)
	}
	writerWG.Wait()
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Every write must have survived repair-mode verification.
	info, err := vStore.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Entries != writers*perWriter {
		t.Errorf("%d entries after verify raced writers, want %d", info.Entries, writers*perWriter)
	}
}

// TestStaleTempSweep: a staging file orphaned by a crashed writer is
// reclaimed by repair-mode Verify once it is old enough, while a fresh
// staging file (a live writer mid-Put) is left alone — and neither is
// ever counted as a corrupt entry.
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(concKey(1), concPayload(1)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.EntryPath(concKey(1)))
	orphan := filepath.Join(shard, "put-orphan")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(orphan, past, past); err != nil {
		t.Fatal(err)
	}
	live := filepath.Join(shard, "put-live")
	if err := os.WriteFile(live, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	vr, err := s.Verify(true)
	if err != nil {
		t.Fatal(err)
	}
	if vr.Checked != 1 || vr.Corrupt != 0 {
		t.Errorf("verify saw %d entries (%d corrupt), want 1 clean entry", vr.Checked, vr.Corrupt)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Error("orphaned staging file survived repair-mode verify")
	}
	if _, err := os.Stat(live); err != nil {
		t.Error("live staging file was swept out from under its writer")
	}
	if info, err := s.Info(); err != nil || info.Entries != 1 {
		t.Errorf("Info after sweep: %+v, %v", info, err)
	}
}
