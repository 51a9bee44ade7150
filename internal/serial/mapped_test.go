package serial

// Memory-mapped segment contract at the serial level:
//
//   - a segment opened with OpenSnapshotMapped serves the identical
//     store (triples, metadata, index-served match lists, rules) without
//     decoding the columns onto the heap;
//   - every single-bit flip and every truncation of the file surfaces as
//     ErrCorrupt at open time — columns are validated before any view is
//     published, so damage can never SIGBUS a query later;
//   - ErrNotMappable is reserved for the host (no mmap, big-endian, a
//     failed mmap call) and never swallows damage, so callers fall back
//     to the eager decoder only for the same bytes it would accept.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"trinit/internal/store"
)

// writeSegFile writes an encoded segment to a temp file and returns its
// path.
func writeSegFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.trnt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openMappedFile opens a segment file via the mapped path, skipping the
// test on hosts without mmap support.
func openMappedFile(t *testing.T, path string) *MappedSnapshot {
	t.Helper()
	m, err := OpenSnapshotMapped(path)
	if errors.Is(err, ErrNotMappable) && runtime.GOOS == "windows" {
		t.Skipf("mapped open unsupported here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMappedRoundTrip(t *testing.T) {
	st, rules := segStore(t, 50)
	data := encodeSeg(t, st, rules, 7)
	m := openMappedFile(t, writeSegFile(t, data))
	defer m.Close()

	if m.Epoch != 7 {
		t.Fatalf("epoch = %d, want 7", m.Epoch)
	}
	if !m.Store.Mapped() {
		t.Fatal("mapped open materialised the columns")
	}
	if m.MappedBytes() != len(data) {
		t.Fatalf("MappedBytes = %d, want %d", m.MappedBytes(), len(data))
	}
	if !m.Store.Frozen() {
		t.Fatal("mapped store not frozen")
	}
	sameStore(t, st, m.Store)
	if len(m.Rules) != len(rules) {
		t.Fatalf("rules: %d, want %d", len(m.Rules), len(rules))
	}
	for i, r := range m.Rules {
		if r.ID != rules[i].ID || r.Weight != rules[i].Weight || RuleText(r) != RuleText(rules[i]) {
			t.Fatalf("rule %d: %+v vs %+v", i, r, rules[i])
		}
	}
}

// TestMappedMatchesEagerDecode pins representation equivalence one level
// down: the mapped store and the eagerly decoded store of the same bytes
// agree triple for triple and match list for match list.
func TestMappedMatchesEagerDecode(t *testing.T) {
	st, rules := segStore(t, 30)
	data := encodeSeg(t, st, rules, 1)
	m := openMappedFile(t, writeSegFile(t, data))
	defer m.Close()
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	sameStore(t, snap.Store, m.Store)
}

// TestMappedBitFlips: every single-bit flip must fail the open with
// ErrCorrupt — never a panic, never ErrNotMappable (which would silently
// route damaged bytes to the eager decoder), and never a mapping that
// faults later.
func TestMappedBitFlips(t *testing.T) {
	st, rules := segStore(t, 3)
	data := encodeSeg(t, st, rules, 1)
	// Probe once for platform support before the loop.
	openMappedFile(t, writeSegFile(t, data)).Close()

	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 1 << (i % 8)
		m, err := OpenSnapshotMapped(writeSegFile(t, mut))
		if err == nil {
			m.Close()
			t.Fatalf("bit flip at byte %d mapped silently", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

// TestMappedTruncations: every proper prefix fails the open with
// ErrCorrupt.
func TestMappedTruncations(t *testing.T) {
	st, rules := segStore(t, 3)
	data := encodeSeg(t, st, rules, 1)
	openMappedFile(t, writeSegFile(t, data)).Close()

	for n := 0; n < len(data); n++ {
		if m, err := OpenSnapshotMapped(writeSegFile(t, data[:n])); !errors.Is(err, ErrCorrupt) {
			if m != nil {
				m.Close()
			}
			t.Fatalf("truncation to %d bytes: err=%v, want ErrCorrupt", n, err)
		}
	}
	if m, err := OpenSnapshotMapped(writeSegFile(t, append(bytes.Clone(data), 0xAA))); !errors.Is(err, ErrCorrupt) {
		if m != nil {
			m.Close()
		}
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// refusedByBoth checks that the eager decoder and the mapped open both
// refuse data with an ErrCorrupt naming want and return nothing. The
// refusal is never ErrNotMappable, which would hand the bytes to the
// other decoder.
func refusedByBoth(t *testing.T, data []byte, want string) {
	t.Helper()
	snap, err := DecodeSnapshot(data)
	if snap != nil || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeSnapshot: snapshot=%t err=%v, want ErrCorrupt %q", snap != nil, err, want)
	}
	m, err := OpenSnapshotMapped(writeSegFile(t, data))
	if m != nil {
		m.Close()
		t.Fatal("OpenSnapshotMapped accepted the file")
	}
	if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrNotMappable) || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenSnapshotMapped: err=%v, want ErrCorrupt %q", err, want)
	}
}

// TestMappedV1NotMappable: a retired v1 header (with its 24-byte header
// checksum valid, so only the version is wrong) is neither mapped nor
// decoded eagerly — both readers refuse it as corrupt.
func TestMappedV1NotMappable(t *testing.T) {
	st, rules := segStore(t, 10)
	data := encodeSeg(t, st, rules, 2)
	openMappedFile(t, writeSegFile(t, data)).Close()

	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[24:], crc32.Checksum(data[:24], castagnoli))
	refusedByBoth(t, data, "unsupported snapshot format version 1")
}

// TestMappedStaleIndexVersionNotMappable: the mapped path serves the
// permutation indexes verbatim, so a file stamped with another index
// format version is refused rather than trusted, and the eager decoder
// refuses it too instead of re-sorting.
func TestMappedStaleIndexVersionNotMappable(t *testing.T) {
	st, rules := segStore(t, 10)
	data := encodeSeg(t, st, rules, 1)
	openMappedFile(t, writeSegFile(t, data)).Close()

	binary.LittleEndian.PutUint32(data[12:], store.IndexFormatVersion+1)
	binary.LittleEndian.PutUint32(data[28:], crc32.Checksum(data[:28], castagnoli))
	refusedByBoth(t, data, fmt.Sprintf("unsupported index format version %d", store.IndexFormatVersion+1))
}

// TestMappedCloseIdempotent: Close unmaps once; double Close and Close
// after MappedBytes are safe.
func TestMappedCloseIdempotent(t *testing.T) {
	st, rules := segStore(t, 5)
	m := openMappedFile(t, writeSegFile(t, encodeSeg(t, st, rules, 1)))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSnap *MappedSnapshot
	if nilSnap.MappedBytes() != 0 || nilSnap.Close() != nil {
		t.Fatal("nil MappedSnapshot must be inert")
	}
}
