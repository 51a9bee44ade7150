package serial

// Segment snapshot contract: a frozen store round-trips losslessly
// through the binary format (triples with source/confidence/provenance,
// dictionary, eager permutation indexes, rules), and every single-bit
// flip, truncation or length-field lie in the file surfaces as
// ErrCorrupt — never a panic, never a silently partial store.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// segStore builds a frozen store with n people: KG facts (resources and
// literals), XKG token triples with provenance, and duplicate adds that
// exercise the keep-max-confidence path.
func segStore(t testing.TB, n int) (*store.Store, []*relax.Rule) {
	t.Helper()
	st := store.New(nil, nil)
	for i := 0; i < n; i++ {
		p := rdf.Resource(fmt.Sprintf("Person%d", i))
		st.AddKG(p, rdf.Resource("worksAt"), rdf.Resource(fmt.Sprintf("Org%d", i%7)))
		st.AddFact(p, rdf.Resource("bornOn"), rdf.Literal(fmt.Sprintf("19%02d-01-02", i%100)), rdf.SourceKG, 1, rdf.NoProv)
		prov := st.Prov().Add(rdf.Prov{Doc: fmt.Sprintf("doc-%d", i), Sentence: fmt.Sprintf("Person%d lectured at Org%d.", i, i%7)})
		st.AddFact(p, rdf.Token("lectured at"), rdf.Token(fmt.Sprintf("the institute of Org%d", i%7)), rdf.SourceXKG, 0.5+float64(i%5)/10, prov)
	}
	// Duplicate with a higher confidence: the survivor must persist.
	st.AddFact(rdf.Resource("Person0"), rdf.Token("lectured at"), rdf.Token("the institute of Org0"), rdf.SourceXKG, 0.99, rdf.NoProv)
	st.Freeze()
	rules := []*relax.Rule{
		mustRule(t, "r1", "?x worksAt ?y => ?x 'lectured at' ?y", 0.8, "manual"),
		mustRule(t, "r2", "?x hasAdvisor ?y => ?y hasStudent ?x", 0.7, "mined"),
	}
	return st, rules
}

func mustRule(t testing.TB, id, text string, w float64, origin string) *relax.Rule {
	t.Helper()
	r, err := relax.ParseRule(id, text, w, origin)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func encodeSeg(t testing.TB, st *store.Store, rules []*relax.Rule, epoch uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st, rules, epoch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameStore asserts the decoded store matches the source triple for
// triple, including metadata and index-served match lists.
func sameStore(t *testing.T, src, dst *store.Store) {
	t.Helper()
	if dst.Len() != src.Len() {
		t.Fatalf("triples: %d, want %d", dst.Len(), src.Len())
	}
	if dst.Dict().Len() != src.Dict().Len() {
		t.Fatalf("dict terms: %d, want %d", dst.Dict().Len(), src.Dict().Len())
	}
	for i := 0; i < src.Len(); i++ {
		a, b := src.Triple(store.ID(i)), dst.Triple(store.ID(i))
		if src.Dict().Term(a.S) != dst.Dict().Term(b.S) ||
			src.Dict().Term(a.P) != dst.Dict().Term(b.P) ||
			src.Dict().Term(a.O) != dst.Dict().Term(b.O) ||
			a.Source != b.Source || a.Conf != b.Conf {
			t.Fatalf("triple %d: %+v vs %+v", i, a, b)
		}
		if src.Prov().Get(a.Prov) != dst.Prov().Get(b.Prov) {
			t.Fatalf("triple %d provenance differs", i)
		}
	}
	// Index-served lookups agree: same match lists for a bound predicate.
	p, ok := src.Dict().Lookup(rdf.Resource("worksAt"))
	if !ok {
		t.Fatal("worksAt missing in source")
	}
	p2, ok := dst.Dict().Lookup(rdf.Resource("worksAt"))
	if !ok {
		t.Fatal("worksAt missing after decode")
	}
	ms, md := src.Match(rdf.NoTerm, p, rdf.NoTerm), dst.Match(rdf.NoTerm, p2, rdf.NoTerm)
	if len(ms) != len(md) {
		t.Fatalf("match list length %d, want %d", len(md), len(ms))
	}
	for i := range ms {
		if ms[i] != md[i] {
			t.Fatalf("match list order diverges at %d", i)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	st, rules := segStore(t, 50)
	data := encodeSeg(t, st, rules, 3)
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 3 {
		t.Fatalf("epoch=%d, want 3", snap.Epoch)
	}
	if !snap.Store.Frozen() {
		t.Fatal("decoded store not frozen")
	}
	sameStore(t, st, snap.Store)
	if len(snap.Rules) != len(rules) {
		t.Fatalf("rules: %d, want %d", len(snap.Rules), len(rules))
	}
	for i, r := range snap.Rules {
		if r.ID != rules[i].ID || r.Weight != rules[i].Weight ||
			r.Origin != rules[i].Origin || RuleText(r) != RuleText(rules[i]) {
			t.Fatalf("rule %d: %+v vs %+v", i, r, rules[i])
		}
	}
}

// TestSnapshotOldIndexVersionRebuilds: a file stamped with an older
// index format version is no longer rebuilt by re-sorting the triple
// column. Every reader refuses it as corrupt and loads no store, while
// the same bytes at the current version still decode.
func TestSnapshotOldIndexVersionRebuilds(t *testing.T) {
	st, rules := segStore(t, 20)
	data := encodeSeg(t, st, rules, 1)
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatal(err)
	}
	openMappedFile(t, writeSegFile(t, data)).Close()

	binary.LittleEndian.PutUint32(data[12:], store.IndexFormatVersion-1)
	binary.LittleEndian.PutUint32(data[28:], crc32.Checksum(data[:28], castagnoli))
	refusedByBoth(t, data, fmt.Sprintf("unsupported index format version %d", store.IndexFormatVersion-1))
}

// TestSnapshotBitFlips: flipping any single bit of the encoded file
// must surface as ErrCorrupt (CRC-32C catches all single-bit errors in
// checksummed regions; frame structure checks catch the rest), never a
// panic and never a silently different store.
func TestSnapshotBitFlips(t *testing.T) {
	st, rules := segStore(t, 8)
	data := encodeSeg(t, st, rules, 1)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 1 << (i % 8)
		snap, err := DecodeSnapshot(mut)
		if err == nil {
			t.Fatalf("bit flip at byte %d decoded silently", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
		if snap != nil {
			t.Fatalf("bit flip at byte %d returned a partial snapshot", i)
		}
	}
}

// TestSnapshotTruncations: every proper prefix of the file is rejected
// with ErrCorrupt — the end marker means truncation is always visible.
func TestSnapshotTruncations(t *testing.T) {
	st, rules := segStore(t, 8)
	data := encodeSeg(t, st, rules, 1)
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err=%v, want ErrCorrupt", n, err)
		}
	}
	// Trailing garbage after the end marker is equally corrupt.
	if _, err := DecodeSnapshot(append(bytes.Clone(data), 0xAA)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestSnapshotLengthLies: a section length claiming more bytes than the
// file holds, and a record count claiming more records than the payload
// can carry, are rejected before any proportional allocation happens.
func TestSnapshotLengthLies(t *testing.T) {
	st, rules := segStore(t, 4)
	data := encodeSeg(t, st, rules, 1)
	// The first section frame follows the header: id, three zero bytes,
	// the u32 payload CRC, then the u64 length. Claim near-max length.
	lie := bytes.Clone(data)
	binary.LittleEndian.PutUint64(lie[headerSize+8:], 1<<60)
	if _, err := DecodeSnapshot(lie); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("length lie: %v", err)
	}
	// A dict count lie inside the payload: huge uvarint count, tiny
	// payload. Rebuild the section frame so the CRC is valid — the count
	// check itself must reject it.
	payload := binary.AppendUvarint(nil, 1<<40)
	padded := append(bytes.Clone(payload), make([]byte, pad(len(payload))-len(payload))...)
	frame := make([]byte, frameSize)
	frame[0] = secDict
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(padded, castagnoli))
	binary.LittleEndian.PutUint64(frame[8:], uint64(len(payload)))
	lie2 := append(append(bytes.Clone(data[:headerSize]), frame...), padded...)
	if _, err := DecodeSnapshot(lie2); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds payload capacity") {
		t.Fatalf("count lie: %v", err)
	}
}

func TestWriteSnapshotFileAtomicity(t *testing.T) {
	st, rules := segStore(t, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.trnt")
	if err := WriteSnapshotFile(path, st, rules, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temp file left behind after a successful write")
	}
	snap, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Bytes == 0 {
		t.Fatal("ReadSnapshotFile did not record the file size")
	}
	sameStore(t, st, snap.Store)

	// Overwrite with a new epoch: readers must never see a mix.
	if err := WriteSnapshotFile(path, st, rules, 2); err != nil {
		t.Fatal(err)
	}
	snap2, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Epoch != 2 {
		t.Fatalf("epoch after overwrite = %d", snap2.Epoch)
	}
}

func TestWriteSnapshotRequiresFrozen(t *testing.T) {
	st := store.New(nil, nil)
	if err := WriteSnapshot(&bytes.Buffer{}, st, nil, 1); err == nil {
		t.Fatal("unfrozen store accepted")
	}
}
