// Package cachestore is the disk-backed, versioned result store behind
// the batch engine's second cache tier: simulation results keyed by a
// stable content hash of the job that produced them, surviving process
// restarts so repeated p5exp/p5sim invocations reuse each other's work.
//
// Layout. A store rooted at dir keeps every entry as its own immutable
// file, dir/v<FormatVersion>/<k0k1>/<keyhex>, sharded by the key's first
// byte. The layout is append-only — entries are only ever added (by
// atomic rename) or unlinked, never rewritten in place — so concurrent
// readers and writers, in one process or many, need no locking: a reader
// sees each entry either complete or not at all.
//
// Integrity. Every entry carries a versioned envelope: magic+format
// version, the full key, the payload length and a CRC32 of the payload.
// Get verifies all four; a truncated, bit-flipped, version-bumped or
// misnamed entry is detected, removed, and reported as ErrCorrupt so the
// caller recomputes (and the subsequent Put rewrites the entry clean). A
// format bump changes the version directory, orphaning — never
// misreading — old entries.
package cachestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// FormatVersion is the on-disk format generation. Bumping it orphans all
// existing entries (they live under a version-named directory), which is
// the safe failure mode for incompatible layout changes.
const FormatVersion = 1

// entryMagic opens every entry file; the last byte is the envelope
// version within this format generation.
var entryMagic = [4]byte{'p', '5', 'c', FormatVersion}

// headerSize is the fixed envelope prefix: magic, key, payload length,
// payload CRC32 (IEEE).
const headerSize = 4 + len(Key{}) + 8 + 4

// Sentinel errors returned by Get.
var (
	// ErrNotFound reports a clean miss: no entry under the key.
	ErrNotFound = errors.New("cachestore: entry not found")
	// ErrCorrupt reports a detected-and-removed bad entry: truncation,
	// bit flip, envelope version mismatch, or key/filename mismatch. The
	// caller should recompute and Put the result again.
	ErrCorrupt = errors.New("cachestore: entry corrupt")
)

// Store is one on-disk result store. Multiple Store handles — in one
// process or several — may share a directory; all methods are safe for
// concurrent use.
type Store struct {
	root string // user-supplied directory
	dir  string // versioned entry directory under root

	mu      sync.Mutex
	putHook PutHook // write-fault seam; nil passes writes through
}

// PutHook intercepts an entry write just before it reaches the staging
// file: it receives the key and the fully encoded entry (envelope
// included) and returns the bytes to persist, or an error that fails
// the Put. It exists as a fault-injection seam — internal/chaos uses it
// to emulate full disks (error) and torn writes (a prefix of the
// entry, which Get's checksum then catches) without touching the real
// filesystem behaviour underneath.
type PutHook func(k Key, encoded []byte) ([]byte, error)

// putPrefix names Put's staging files; walkEntries ignores them.
const putPrefix = "put-"

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir, dir: filepath.Join(dir, fmt.Sprintf("v%d", FormatVersion))}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: open %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// SetPutHook installs (or with nil, removes) the write-fault hook; see
// PutHook. Writes in flight keep the hook they
// started with.
func (s *Store) SetPutHook(h PutHook) {
	s.mu.Lock()
	s.putHook = h
	s.mu.Unlock()
}

// EntryPath returns the file path an entry for the key occupies. The
// file exists only while the entry is stored; the path itself is stable.
func (s *Store) EntryPath(k Key) string {
	hex := k.String()
	return filepath.Join(s.dir, hex[:2], hex)
}

// Get returns the payload stored under the key. It returns ErrNotFound
// on a clean miss, and ErrCorrupt — after unlinking the bad file — when
// an entry exists but fails integrity verification.
func (s *Store) Get(k Key) ([]byte, error) {
	path := s.EntryPath(k)
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("cachestore: read %s: %w", path, err)
	}
	payload, err := decodeEntry(k, raw)
	if err != nil {
		os.Remove(path) // self-heal: drop the bad entry so Put rewrites it clean
		return nil, err
	}
	return payload, nil
}

// Put stores the payload under the key, atomically: the entry is staged
// in a temp file and renamed into place, so concurrent readers never see
// a partial write. Re-putting a key replaces its entry (used to rewrite
// entries Get found corrupt).
func (s *Store) Put(k Key, payload []byte) error {
	encoded := encodeEntry(k, payload)
	s.mu.Lock()
	hook := s.putHook
	s.mu.Unlock()
	if hook != nil {
		var err error
		if encoded, err = hook(k, encoded); err != nil {
			return fmt.Errorf("cachestore: put %s: %w", k, err)
		}
	}
	path := s.EntryPath(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cachestore: put %s: %w", k, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), putPrefix+"*")
	if err != nil {
		return fmt.Errorf("cachestore: put %s: %w", k, err)
	}
	_, werr := tmp.Write(encoded)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: put %s: %w", k, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("cachestore: put %s: %w", k, err)
	}
	return nil
}

// Delete removes the entry under the key (no error if absent).
func (s *Store) Delete(k Key) error {
	err := os.Remove(s.EntryPath(k))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cachestore: delete %s: %w", k, err)
	}
	return nil
}

// Clear removes every entry (the store stays open and usable).
func (s *Store) Clear() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return fmt.Errorf("cachestore: clear: %w", err)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("cachestore: clear: %w", err)
	}
	return nil
}

// Info summarizes the store's contents.
type Info struct {
	Entries int
	Bytes   int64 // entry file bytes (envelopes included)
}

// Info scans the store and reports entry count and total size.
func (s *Store) Info() (Info, error) {
	var info Info
	err := s.walkEntries(func(path string, fi fs.FileInfo) error {
		info.Entries++
		info.Bytes += fi.Size()
		return nil
	})
	return info, err
}

// VerifyResult reports a Verify scan.
type VerifyResult struct {
	Checked int // entries examined
	Corrupt int // entries that failed integrity verification
	Removed int // corrupt entries unlinked (repair mode)
}

// Verify scans every entry and validates its envelope, checksum and
// filename-vs-embedded-key binding. With repair set, corrupt entries are
// unlinked so later lookups recompute and rewrite them, and staging
// files orphaned by crashed writers are swept.
func (s *Store) Verify(repair bool) (VerifyResult, error) {
	if repair {
		s.sweepStaleTemps()
	}
	var vr VerifyResult
	err := s.walkEntries(func(path string, fi fs.FileInfo) error {
		vr.Checked++
		if verifyEntryFile(path) == nil {
			return nil
		}
		vr.Corrupt++
		if repair {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			vr.Removed++
		}
		return nil
	})
	return vr, err
}

// staleTempAge is how old a staging file must be before Verify
// treats it as an orphan of a crashed writer. A live Put holds its
// staging file for milliseconds (plus arbitrary scheduler delay, hence
// the generous margin); anything this old has no writer left to rename
// it and would otherwise leak disk forever.
const staleTempAge = 10 * time.Minute

// sweepStaleTemps removes orphaned staging files; fresh ones (a
// concurrent Put mid-write) are left for their writers. Best-effort:
// a sweep that loses a remove race changes nothing.
func (s *Store) sweepStaleTemps() {
	cutoff := time.Now().Add(-staleTempAge)
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), putPrefix) {
			return nil
		}
		if fi, ierr := d.Info(); ierr == nil && fi.ModTime().Before(cutoff) {
			os.Remove(path)
		}
		return nil
	})
}

// walkEntries visits every entry file in the versioned directory.
// In-flight staging files (Put's temp files, pre-rename) are not
// entries and are skipped: unlinking one from a concurrent Verify
// would make the writer's rename fail, so a store shared between
// processes could not be administered while in use. Orphaned staging
// files are reclaimed separately (sweepStaleTemps).
func (s *Store) walkEntries(fn func(path string, fi fs.FileInfo) error) error {
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // raced with Clear or a removal
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), putPrefix) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		return fn(path, fi)
	})
}

// encodeEntry wraps a payload in the integrity envelope.
func encodeEntry(k Key, payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], entryMagic[:])
	copy(buf[4:4+len(k)], k[:])
	binary.LittleEndian.PutUint64(buf[4+len(k):4+len(k)+8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[4+len(k)+8:headerSize], crc32.ChecksumIEEE(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// decodeEntry validates the envelope and returns the payload.
func decodeEntry(k Key, raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("%w: %s: truncated header (%d bytes)", ErrCorrupt, k, len(raw))
	}
	if [4]byte(raw[0:4]) != entryMagic {
		return nil, fmt.Errorf("%w: %s: bad magic/version %q (want %q)", ErrCorrupt, k, raw[0:4], entryMagic[:])
	}
	var stored Key
	copy(stored[:], raw[4:4+len(stored)])
	if stored != k {
		return nil, fmt.Errorf("%w: %s: entry holds key %s (misnamed or copied file)", ErrCorrupt, k, stored)
	}
	n := binary.LittleEndian.Uint64(raw[4+len(stored) : 4+len(stored)+8])
	payload := raw[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("%w: %s: payload length %d, header says %d", ErrCorrupt, k, len(payload), n)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(raw[4+len(stored)+8:headerSize]) {
		return nil, fmt.Errorf("%w: %s: payload checksum mismatch", ErrCorrupt, k)
	}
	return payload, nil
}

// verifyEntryFile validates one entry file on disk, binding the embedded
// key to the filename.
func verifyEntryFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil // raced with a concurrent removal; nothing to verify
		}
		return err
	}
	var k Key
	name := filepath.Base(path)
	if len(name) != 2*len(k) {
		return fmt.Errorf("%w: %s: unexpected entry filename", ErrCorrupt, name)
	}
	for i := 0; i < len(k); i++ {
		hi, lo := unhex(name[2*i]), unhex(name[2*i+1])
		if hi < 0 || lo < 0 {
			return fmt.Errorf("%w: %s: unexpected entry filename", ErrCorrupt, name)
		}
		k[i] = byte(hi<<4 | lo)
	}
	_, err = decodeEntry(k, raw)
	return err
}

// unhex decodes one lower-case hex digit (-1 if invalid).
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}
