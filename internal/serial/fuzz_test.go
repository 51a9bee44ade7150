package serial

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"trinit/internal/rdf"
	"trinit/internal/store"
)

// FuzzRead checks the TNT reader never panics on malformed input and that
// whatever it accepts re-serialises losslessly.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"# comment only\n",
		"KG\tR\"A\"\tR\"p\"\tR\"B\"\n",
		"XKG\tR\"A\"\tT\"p q\"\tT\"o o\"\t0.5\t\"d\"\t\"s\"\n",
		"RULE\t\"r\"\t0.7\t\"manual\"\t\"?x p ?y => ?x q ?y\"\n",
		"KG\tZ\"bad\"\tR\"p\"\tR\"B\"\n",
		"BOGUS\n",
		"KG\tR\"A\"\n",
		"\t\t\t\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st := store.New(nil, nil)
		dec, err := Read(strings.NewReader(input), st)
		if err != nil {
			return
		}
		if dec.Triples != st.Len() {
			t.Fatalf("decoded %d triples but store holds %d", dec.Triples, st.Len())
		}
		// Round trip what was accepted.
		var buf strings.Builder
		if err := WriteStore(&buf, st); err != nil {
			t.Fatal(err)
		}
		st2 := store.New(nil, nil)
		dec2, err := Read(strings.NewReader(buf.String()), st2)
		if err != nil {
			t.Fatalf("re-read of serialised store failed: %v", err)
		}
		if dec2.Triples != dec.Triples {
			t.Fatalf("round trip changed triple count: %d -> %d", dec.Triples, dec2.Triples)
		}
	})
}

// fuzzSnapshotSeed builds one valid encoded snapshot for the corpus.
func fuzzSnapshotSeed(f *testing.F) []byte {
	f.Helper()
	st := store.New(nil, nil)
	st.AddKG(rdf.Resource("A"), rdf.Resource("p"), rdf.Resource("B"))
	prov := st.Prov().Add(rdf.Prov{Doc: "d", Sentence: "s"})
	st.AddFact(rdf.Resource("A"), rdf.Token("p q"), rdf.Token("o o"), rdf.SourceXKG, 0.5, prov)
	st.Freeze()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, st, nil, 1); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeSnapshot: the segment decoder must never panic or
// over-allocate on adversarial input — truncations, bit flips,
// length-field lies and unsupported versions all land on ErrCorrupt —
// whatever it accepts must re-encode to an image that decodes to the same
// store, and the mapped decoder must accept it too and agree.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := fuzzSnapshotSeed(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncation
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x10 // bit flip
	f.Add(flipped)
	lie := bytes.Clone(valid)
	for i := headerSize + 8; i < headerSize+16; i++ { // first section length field
		lie[i] = 0xFF
	}
	f.Add(lie)
	v1 := bytes.Clone(valid) // the retired v1 header: CRC over 24 bytes
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[24:], crc32.Checksum(v1[:24], castagnoli))
	f.Add(v1)
	staleIndex := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(staleIndex[12:], store.IndexFormatVersion+1)
	binary.LittleEndian.PutUint32(staleIndex[28:], crc32.Checksum(staleIndex[:28], castagnoli))
	f.Add(staleIndex)
	f.Add([]byte("TRNTSEG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed decode error: %v", err)
			}
			return
		}
		// Accepted input must round-trip losslessly.
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, snap.Store, snap.Rules, snap.Epoch); err != nil {
			t.Fatalf("re-encode of accepted snapshot: %v", err)
		}
		again, err := DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decode of accepted snapshot: %v", err)
		}
		if again.Store.Len() != snap.Store.Len() || len(again.Rules) != len(snap.Rules) {
			t.Fatalf("round trip changed shape: %d/%d triples, %d/%d rules",
				snap.Store.Len(), again.Store.Len(), len(snap.Rules), len(again.Rules))
		}
		// The mapped decoder reads the same bytes in place; give it an
		// 8-byte-aligned copy, as a mapping would be.
		aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]uint64, (len(data)+7)/8)))), len(data))
		copy(aligned, data)
		m, err := openMapped(aligned)
		if err != nil {
			t.Fatalf("mapped decoder rejects what eager decode accepted: %v", err)
		}
		if m.Store.Len() != snap.Store.Len() || m.Epoch != snap.Epoch || len(m.Rules) != len(snap.Rules) {
			t.Fatalf("mapped decode differs: %d/%d triples, epoch %d/%d, %d/%d rules",
				m.Store.Len(), snap.Store.Len(), m.Epoch, snap.Epoch, len(m.Rules), len(snap.Rules))
		}
		for i, r := range m.Rules {
			if r.ID != snap.Rules[i].ID || r.Weight != snap.Rules[i].Weight || RuleText(r) != RuleText(snap.Rules[i]) {
				t.Fatalf("mapped rule %d: %+v vs %+v", i, r, snap.Rules[i])
			}
		}
	})
}

// FuzzWALReplay: the delta-log reader must never panic; damage is
// either a truncated torn tail (reopen is then clean and idempotent) or
// a typed ErrCorrupt, and replayed records always re-encode losslessly.
func FuzzWALReplay(f *testing.F) {
	var buf bytes.Buffer
	buf.WriteString(walMagic)
	f.Add(bytes.Clone(buf.Bytes()))
	{
		dir := f.TempDir()
		path := filepath.Join(dir, "seed.log")
		w, _, err := OpenWAL(path)
		if err != nil {
			f.Fatal(err)
		}
		err = w.Append(
			WALRecord{Epoch: 1, Op: WALTriple, S: rdf.Resource("A"), P: rdf.Token("p q"), O: rdf.Literal("x"),
				Source: rdf.SourceXKG, Conf: 0.5, Doc: "d", Sentence: "s"},
			WALRecord{Epoch: 1, Op: WALRuleAdd, RuleID: "r", RuleText: "?x p ?y => ?x q ?y", RuleWeight: 0.7, RuleOrigin: "manual"},
			WALRecord{Epoch: 1, Op: WALRuleRemove, RuleID: "r"},
			WALRecord{Epoch: 1, Op: WALRuleClear},
		)
		w.Close()
		if err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(data))
		f.Add(bytes.Clone(data[:len(data)-3])) // torn tail
		mid := bytes.Clone(data)
		mid[len(walMagic)+9] ^= 0x01 // mid-file flip
		f.Add(mid)
		f.Add(append(bytes.Clone(data), make([]byte, 32)...)) // zero tail
	}
	f.Add([]byte("NOTAWAL0junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, replay, err := OpenWAL(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-typed replay error: %v", err)
			}
			return
		}
		w.Close()
		// Whatever was truncated away, a second open must be clean: no new
		// torn bytes, identical records.
		w2, replay2, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("reopen after recovery failed: %v", err)
		}
		w2.Close()
		if replay2.TornBytes != 0 {
			t.Fatalf("recovery not idempotent: %d torn bytes on reopen", replay2.TornBytes)
		}
		if len(replay2.Records) != len(replay.Records) {
			t.Fatalf("recovery not idempotent: %d then %d records", len(replay.Records), len(replay2.Records))
		}
		// Replayed records re-encode and decode losslessly.
		for i, rec := range replay.Records {
			payload := encodeWALRecord(nil, rec)
			back, err := decodeWALRecord(payload)
			if err != nil {
				t.Fatalf("record %d does not re-encode: %v", i, err)
			}
			if back != rec {
				t.Fatalf("record %d changed across re-encode: %+v vs %+v", i, back, rec)
			}
		}
	})
}
