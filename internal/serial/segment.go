package serial

// Binary segment snapshots of a frozen store.
//
// A snapshot is the durable image of the XKG at one epoch: dictionary,
// provenance, the triple column, the three columnar permutation indexes,
// and the relaxation rules, each in its own CRC-framed section. The
// layout is mmap-ready, so a reader can serve the hot columns in place
// from a memory-mapped file (see mapped.go):
//
//	magic "TRNTSEG1"
//	u32 format version (2) | u32 index version | u64 epoch
//	u32 reserved (0) | u32 header CRC            → 32-byte header
//	sections, each at an 8-byte-aligned offset:
//	  u8 id | 3 zero bytes | u32 payload CRC | u64 payload length
//	  payload, zero-padded to the next 8-byte boundary
//	end marker: section id 0xFF with empty payload
//
// All integers are little-endian; checksums are CRC-32C (Castagnoli).
// Sections appear in a fixed canonical order, and the end marker means a
// truncated file is always detectable. The section CRC covers the padded
// stored bytes, so verification is one pass over exactly the bytes on
// disk. The triple and index sections are fixed-width columns:
//
//	triples: u64 n | f64 conf[n] | u32 s[n] | u32 p[n] | u32 o[n]
//	         | u32 prov[n] | u8 src[n]
//	index:   u64 n | u32 ids[n] | u32 k1[n] | u32 k2[n]
//
// Every array starts at an offset aligned to its element size (the
// payload itself starts 8-aligned: 32-byte header, 16-byte frames, padded
// payloads). The dictionary, provenance and rule sections are
// varint-packed; they are always decoded eagerly, because their strings
// must survive an unmap. The index sections carry exactly what
// store.Freeze would have sorted under store.IndexFormatVersion.
//
// This is the only format either decoder reads. A file with another
// format version (the retired varint-packed v1) or another index version
// is refused with an error wrapping ErrCorrupt, like every other decoding
// failure. The decoder validates section lengths and record counts
// against the bytes actually present before allocating, so a length-field
// lie cannot make it over-allocate, and a snapshot can never load
// partially: the caller gets the whole frozen store or a typed error.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"trinit/internal/faultinject"
	"trinit/internal/rdf"
	"trinit/internal/relax"
	"trinit/internal/store"
)

// ErrCorrupt is wrapped by every error reporting damaged, inconsistent or
// unsupported on-disk data — checksum mismatches, truncation, length-field
// lies, records that fail validation, unknown format versions. Callers
// test with errors.Is.
var ErrCorrupt = errors.New("serial: corrupt data")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

const (
	snapMagic         = "TRNTSEG1"
	snapFormatVersion = 2

	headerSize = 32
	frameSize  = 16
)

const (
	secDict    byte = 1
	secProv    byte = 2
	secTriples byte = 3
	secSPO     byte = 4
	secPOS     byte = 5
	secOSP     byte = 6
	secRules   byte = 7
	secEnd     byte = 0xFF
)

// sectionOrder is the canonical section sequence of a snapshot file.
var sectionOrder = []byte{secDict, secProv, secTriples, secSPO, secPOS, secOSP, secRules, secEnd}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is a decoded segment snapshot: a frozen store plus the rules
// and epoch it was written with.
type Snapshot struct {
	// Epoch is the snapshot's epoch stamp; WAL records carry the same
	// stamp so recovery can tell live deltas from stale ones.
	Epoch uint64
	// Bytes is the encoded size, when known (ReadSnapshotFile sets it).
	Bytes int64
	// Store is the decoded store, already frozen.
	Store *store.Store
	// Rules holds the relaxation rules in file order.
	Rules []*relax.Rule
}

// sectionBufPool recycles the writer's per-section encode buffer across
// snapshot writes, so checkpoint loops do not regrow a multi-megabyte
// scratch slice every epoch.
var sectionBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1<<16); return &b }}

// pad returns the stored (padded) length of a payload.
func pad(n int) int { return (n + 7) &^ 7 }

// WriteSnapshot encodes a snapshot of the frozen store and rules at the
// given epoch to w.
func WriteSnapshot(w io.Writer, st *store.Store, rules []*relax.Rule, epoch uint64) error {
	if !st.Frozen() {
		return fmt.Errorf("serial: WriteSnapshot requires a frozen store")
	}
	var hdr [headerSize]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapFormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], store.IndexFormatVersion)
	binary.LittleEndian.PutUint64(hdr[16:], epoch)
	binary.LittleEndian.PutUint32(hdr[28:], crc32.Checksum(hdr[:28], castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	idx := st.IndexSnapshot()
	sections := []struct {
		id     byte
		encode func(buf []byte) []byte
	}{
		{secDict, func(buf []byte) []byte { return appendDict(buf, st.Dict()) }},
		{secProv, func(buf []byte) []byte { return appendProv(buf, st.Prov()) }},
		{secTriples, func(buf []byte) []byte { return appendTriples(buf, st) }},
		{secSPO, func(buf []byte) []byte { return appendIndex(buf, idx.SPO) }},
		{secPOS, func(buf []byte) []byte { return appendIndex(buf, idx.POS) }},
		{secOSP, func(buf []byte) []byte { return appendIndex(buf, idx.OSP) }},
		{secRules, func(buf []byte) []byte { return appendRules(buf, rules) }},
		{secEnd, func(buf []byte) []byte { return buf }},
	}
	bufp := sectionBufPool.Get().(*[]byte)
	payload := *bufp
	defer func() { *bufp = payload[:0]; sectionBufPool.Put(bufp) }()
	for _, s := range sections {
		payload = s.encode(payload[:0])
		rawLen := len(payload)
		for len(payload) < pad(rawLen) {
			payload = append(payload, 0)
		}
		// The length field records the unpadded payload; the stored
		// length is derived by rounding up, and the CRC covers the
		// padded bytes so verification reads exactly what is on disk.
		var frame [frameSize]byte
		frame[0] = s.id
		binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
		binary.LittleEndian.PutUint64(frame[8:], uint64(rawLen))
		if _, err := w.Write(frame[:]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// WriteSnapshotFile writes the snapshot atomically: encode to path+".tmp",
// fsync the file, rename over path, fsync the directory. Readers see the
// old snapshot or the new one, never a mix. On failure the temp file is
// left behind — exactly the state a crash would leave — and recovery
// sweeps stale temp files on open.
func WriteSnapshotFile(path string, st *store.Store, rules []*relax.Rule, epoch uint64) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := WriteSnapshot(&faultWriter{w: f}, st, rules, epoch); err != nil {
		f.Close()
		return err
	}
	if err := faultinject.FireErr(faultinject.SiteFsync, "snapshot"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := faultinject.FireErr(faultinject.SiteRename, "before"); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := faultinject.FireErr(faultinject.SiteRename, "after"); err != nil {
		return err
	}
	if err := faultinject.FireErr(faultinject.SiteFsync, "dir"); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// faultWriter injects short writes at SiteSnapshotWrite: on an injected
// error, half the chunk reaches the underlying file and the rest never
// does — the on-disk state a power cut mid-write leaves behind.
type faultWriter struct {
	w io.Writer
	n int
}

func (fw *faultWriter) Write(p []byte) (int, error) {
	fw.n++
	key := ""
	if faultinject.Enabled() {
		key = strconv.Itoa(fw.n)
	}
	if err := faultinject.FireErr(faultinject.SiteSnapshotWrite, key); err != nil {
		half := len(p) / 2
		if half > 0 {
			fw.w.Write(p[:half])
		}
		return half, err
	}
	return fw.w.Write(p)
}

// ReadSnapshotFile reads and decodes a snapshot file.
func ReadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	snap.Bytes = int64(len(data))
	return snap, nil
}

// checkHeader verifies a snapshot header — magic, format version, header
// checksum, index version — and returns the epoch it carries. The format
// version is checked before the checksum, whose position depends on it.
func checkHeader(data []byte) (epoch uint64, err error) {
	if len(data) < headerSize {
		return 0, corruptf("snapshot header truncated (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return 0, corruptf("bad snapshot magic")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapFormatVersion {
		return 0, corruptf("unsupported snapshot format version %d", v)
	}
	if crc := binary.LittleEndian.Uint32(data[28:]); crc != crc32.Checksum(data[:28], castagnoli) {
		return 0, corruptf("snapshot header checksum mismatch")
	}
	// The index sections are trusted after validation, so a file sorted
	// under another index format is refused rather than re-sorted.
	if v := binary.LittleEndian.Uint32(data[12:]); v != store.IndexFormatVersion {
		return 0, corruptf("unsupported index format version %d (want %d)", v, store.IndexFormatVersion)
	}
	return binary.LittleEndian.Uint64(data[16:]), nil
}

// DecodeSnapshot eagerly decodes an in-memory snapshot image into a heap
// store — the path taken when mapping is unavailable or disabled. Any
// damage — truncation, checksum mismatch, invalid records, an unsupported
// format or index version — returns an error wrapping ErrCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	epoch, err := checkHeader(data)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Epoch: epoch}
	dict := rdf.NewDict()
	prov := rdf.NewProvTable()
	st := store.New(dict, prov)
	var idx store.IndexSnapshot

	err = walkSections(data, func(id byte, payload []byte) error {
		switch id {
		case secDict:
			return decodeDict(payload, dict)
		case secProv:
			return decodeProv(payload, prov)
		case secTriples:
			return decodeTriples(payload, st)
		case secSPO, secPOS, secOSP:
			cols, err := decodeIndex(payload)
			*indexSlot(&idx, id) = cols
			return err
		case secRules:
			rules, err := decodeRules(payload)
			snap.Rules = rules
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := st.FreezeWithIndexes(idx); err != nil {
		return nil, corruptf("%v", err)
	}
	snap.Store = st
	return snap, nil
}

// indexSlot returns the permutation index an index section fills.
func indexSlot(idx *store.IndexSnapshot, id byte) *store.IndexColumns {
	switch id {
	case secSPO:
		return &idx.SPO
	case secPOS:
		return &idx.POS
	}
	return &idx.OSP
}

// walkSections verifies the framing and checksums of every section in data
// (which must start with a verified header) and calls fn with each
// unpadded payload in canonical order; the end marker must be empty and
// is not passed to fn. The payloads alias data.
func walkSections(data []byte, fn func(id byte, payload []byte) error) error {
	off := headerSize
	for _, want := range sectionOrder {
		if off+frameSize > len(data) {
			return corruptf("snapshot truncated at section header (offset %d)", off)
		}
		id := data[off]
		if id != want {
			return corruptf("snapshot section %#x out of order (want %#x)", id, want)
		}
		if data[off+1] != 0 || data[off+2] != 0 || data[off+3] != 0 {
			return corruptf("section %#x frame padding is not zero", id)
		}
		crc := binary.LittleEndian.Uint32(data[off+4:])
		n := binary.LittleEndian.Uint64(data[off+8:])
		off += frameSize
		stored := (n + 7) &^ 7
		if stored > uint64(len(data)-off) {
			return corruptf("section %#x claims %d bytes, only %d remain", id, n, len(data)-off)
		}
		padded := data[off : off+int(stored)]
		if crc32.Checksum(padded, castagnoli) != crc {
			return corruptf("section %#x checksum mismatch", id)
		}
		if id == secEnd {
			if n != 0 {
				return corruptf("end marker carries %d payload bytes", n)
			}
		} else if err := fn(id, padded[:n]); err != nil {
			return err
		}
		off += int(stored)
	}
	if off != len(data) {
		return corruptf("%d trailing bytes after end marker", len(data)-off)
	}
	return nil
}

// --- section payloads ---

func appendDict(buf []byte, d *rdf.Dict) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.Len()))
	d.All(func(_ rdf.TermID, t rdf.Term) bool {
		buf = append(buf, byte(t.Kind))
		buf = binary.AppendUvarint(buf, uint64(len(t.Text)))
		buf = append(buf, t.Text...)
		return true
	})
	return buf
}

func decodeDict(payload []byte, d *rdf.Dict) error {
	r := &byteReader{data: payload}
	count, err := r.count("dict terms", 2)
	if err != nil {
		return err
	}
	d.Reserve(count)
	for i := 0; i < count; i++ {
		kind, err := r.u8()
		if err != nil {
			return err
		}
		if kind > uint8(rdf.KindToken) {
			return corruptf("dict term %d has unknown kind %d", i, kind)
		}
		text, err := r.str("dict term text")
		if err != nil {
			return err
		}
		t := rdf.Term{Kind: rdf.TermKind(kind), Text: text}
		if id := d.Intern(t); int(id) != i+1 {
			return corruptf("dict term %d duplicates term %d", i+1, id)
		}
	}
	return r.done()
}

func appendProv(buf []byte, pt *rdf.ProvTable) []byte {
	buf = binary.AppendUvarint(buf, uint64(pt.Len()))
	for i := 1; i <= pt.Len(); i++ {
		p := pt.Get(rdf.ProvID(i))
		buf = binary.AppendUvarint(buf, uint64(len(p.Doc)))
		buf = append(buf, p.Doc...)
		buf = binary.AppendUvarint(buf, uint64(len(p.Sentence)))
		buf = append(buf, p.Sentence...)
	}
	return buf
}

func decodeProv(payload []byte, pt *rdf.ProvTable) error {
	r := &byteReader{data: payload}
	count, err := r.count("provenance records", 2)
	if err != nil {
		return err
	}
	pt.Reserve(count)
	for i := 0; i < count; i++ {
		doc, err := r.str("provenance doc")
		if err != nil {
			return err
		}
		sentence, err := r.str("provenance sentence")
		if err != nil {
			return err
		}
		pt.Add(rdf.Prov{Doc: doc, Sentence: sentence})
	}
	return r.done()
}

// appendTriples encodes the triple set column-at-a-time in fixed-width
// little-endian layout (see the package comment for offsets).
func appendTriples(buf []byte, st *store.Store) []byte {
	n := st.Len()
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Triple(store.ID(i)).Conf))
	}
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Triple(store.ID(i)).S))
	}
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Triple(store.ID(i)).P))
	}
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Triple(store.ID(i)).O))
	}
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(st.Triple(store.ID(i)).Prov))
	}
	for i := 0; i < n; i++ {
		buf = append(buf, byte(st.Triple(store.ID(i)).Source))
	}
	return buf
}

// appendIndex encodes one permutation index as three fixed-width columns.
func appendIndex(buf []byte, c store.IndexColumns) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(c.IDs)))
	for _, id := range c.IDs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(id))
	}
	for _, k := range c.K1 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	for _, k := range c.K2 {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	}
	return buf
}

// triplesLen and indexLen are the exact payload sizes for n records; the
// decoders reject any section whose length disagrees, so a count lie can
// never cause over-allocation or an out-of-bounds column view.
func triplesLen(n uint64) uint64 { return 8 + 25*n }
func indexLen(n uint64) uint64   { return 8 + 12*n }

// triplesN validates a triple-section payload and returns its record count.
func triplesN(payload []byte) (int, error) {
	if len(payload) < 8 {
		return 0, corruptf("triple section truncated (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	if uint64(len(payload)) != triplesLen(n) {
		return 0, corruptf("triple section claims %d records in %d bytes (want %d)", n, len(payload), triplesLen(n))
	}
	return int(n), nil
}

// indexN validates an index-section payload and returns its entry count.
func indexN(payload []byte) (int, error) {
	if len(payload) < 8 {
		return 0, corruptf("index section truncated (%d bytes)", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload)
	if uint64(len(payload)) != indexLen(n) {
		return 0, corruptf("index section claims %d entries in %d bytes (want %d)", n, len(payload), indexLen(n))
	}
	return int(n), nil
}

// decodeTriples decodes the columnar triple section into the store,
// validating each record with the same store.ValidateTriple the mapped
// open runs.
func decodeTriples(payload []byte, st *store.Store) error {
	n, err := triplesN(payload)
	if err != nil {
		return err
	}
	conf := payload[8:]
	s := payload[8+8*n:]
	p := payload[8+12*n:]
	o := payload[8+16*n:]
	pv := payload[8+20*n:]
	src := payload[8+24*n:]
	dict, prov := st.Dict(), st.Prov()
	for i := 0; i < n; i++ {
		t := rdf.Triple{
			S:      rdf.TermID(binary.LittleEndian.Uint32(s[4*i:])),
			P:      rdf.TermID(binary.LittleEndian.Uint32(p[4*i:])),
			O:      rdf.TermID(binary.LittleEndian.Uint32(o[4*i:])),
			Source: rdf.Source(src[i]),
			Conf:   math.Float64frombits(binary.LittleEndian.Uint64(conf[8*i:])),
			Prov:   rdf.ProvID(binary.LittleEndian.Uint32(pv[4*i:])),
		}
		if err := store.ValidateTriple(t, dict, prov); err != nil {
			return corruptf("triple %d: %v", i, err)
		}
		if id := st.Add(t); int(id) != i {
			return corruptf("triple %d duplicates triple %d", i, id)
		}
	}
	return nil
}

// decodeIndex decodes one columnar index section into heap columns.
func decodeIndex(payload []byte) (store.IndexColumns, error) {
	n, err := indexN(payload)
	if err != nil {
		return store.IndexColumns{}, err
	}
	c := store.IndexColumns{
		IDs: make([]store.ID, n),
		K1:  make([]rdf.TermID, n),
		K2:  make([]rdf.TermID, n),
	}
	ids := payload[8:]
	k1 := payload[8+4*n:]
	k2 := payload[8+8*n:]
	for i := 0; i < n; i++ {
		c.IDs[i] = store.ID(binary.LittleEndian.Uint32(ids[4*i:]))
		c.K1[i] = rdf.TermID(binary.LittleEndian.Uint32(k1[4*i:]))
		c.K2[i] = rdf.TermID(binary.LittleEndian.Uint32(k2[4*i:]))
	}
	return c, nil
}

func appendRules(buf []byte, rules []*relax.Rule) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rules)))
	for _, r := range rules {
		buf = appendStr(buf, r.ID)
		buf = appendStr(buf, r.Origin)
		buf = appendStr(buf, RuleText(r))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Weight))
	}
	return buf
}

func decodeRules(payload []byte) ([]*relax.Rule, error) {
	r := &byteReader{data: payload}
	count, err := r.count("rules", 11)
	if err != nil {
		return nil, err
	}
	rules := make([]*relax.Rule, 0, count)
	for i := 0; i < count; i++ {
		id, err1 := r.str("rule id")
		origin, err2 := r.str("rule origin")
		text, err3 := r.str("rule text")
		bits, err4 := r.u64()
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return nil, err
		}
		rule, perr := relax.ParseRule(id, text, math.Float64frombits(bits), origin)
		if perr != nil {
			return nil, corruptf("rule %d: %v", i, perr)
		}
		rules = append(rules, rule)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rules, nil
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// byteReader is a bounds-checked cursor over one section payload. Every
// read that would pass the end returns ErrCorrupt, and count() validates
// a declared record count against the bytes actually present before the
// caller allocates — the defence against length-field lies.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) u8() (uint8, error) {
	if r.remaining() < 1 {
		return 0, corruptf("payload truncated")
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *byteReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, corruptf("payload truncated")
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, corruptf("bad varint")
	}
	r.off += n
	return v, nil
}

// count reads a record count and rejects it unless count*minRecordSize
// fits in the remaining payload.
func (r *byteReader) count(what string, minRecordSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()/minRecordSize) {
		return 0, corruptf("%s count %d exceeds payload capacity (%d bytes)", what, v, r.remaining())
	}
	return int(v), nil
}

// str reads a length-prefixed string, bounding the length by the bytes
// present.
func (r *byteReader) str(what string) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", corruptf("%s length %d exceeds payload", what, n)
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// done asserts the payload was consumed exactly.
func (r *byteReader) done() error {
	if r.remaining() != 0 {
		return corruptf("%d trailing bytes in section payload", r.remaining())
	}
	return nil
}
