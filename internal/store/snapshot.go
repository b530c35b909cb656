package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"sort"

	"sapphire/internal/rdf"
)

// Snapshot codec: an epoch-consistent, checksummed binary image of the
// store, written in the same ID-space representation the staged bulk
// loader uses, plus the slice of the term dictionary those IDs need.
//
// The encoding is *structural*: the shard section carries the three
// index permutations as CSR-style (key, level-2 key, inner-list) runs,
// in the term-sorted order the live indexes already maintain. Because
// restore preserves dictionary IDs exactly (terms are re-inserted under
// their snapshotted IDs and the allocator watermark is restored), every
// sorted key slice comes back byte-identical without a single sort or
// term comparison — restoring a snapshot costs decode + map
// construction, nothing else. That is what
// makes restart-from-snapshot several times faster than re-ingesting an
// N-Triples dump, which pays parsing, interning, and index sorting.
//
// The dictionary section is compacted at write time: only IDs referenced
// by at least one committed triple are serialized, so terms that were
// interned but whose triples never committed (or were only ever staged)
// do not survive a snapshot/restore cycle. This is the long-promised
// compaction point for the otherwise append-only dictionary: the
// in-memory dictionary of a restored store contains exactly the terms
// the data references.
//
// Wire layout (all integers little-endian):
//
//	magic "SPHRSNP1" | u32 version | u64 epoch | u32 shards |
//	u64 triples | u32 watermark | u32 terms | u32 crc(header)
//	sections: u8 kind | u64 payloadLen | payload | u32 crc(payload)
//	  kind 1 (dict):  terms × (u32 id, binary term — rdf.AppendTerm),
//	                  strictly ascending in term order
//	  kind 2 (shard): u32 shardIndex, u64 shardEpoch, u32 size,
//	                  3 index blocks (SPO, POS, OSP):
//	                    u32 nkeys, nkeys × u32 key,
//	                    per key: u32 n2, n2 × (u32 l2key, u32 innerLen),
//	                             then the concatenated inner IDs
//	  kind 0xFF (end): empty payload
//
// This build writes shards = 1 and one shard section (index 0). Earlier
// builds partitioned the store by subject hash and wrote one shard
// section per partition; such a snapshot still restores, through the
// packed path (RestoreSnapshotBytes).
//
// Every section payload carries a CRC32C; a flipped bit anywhere in the
// file surfaces as a decode error, never as a silently wrong store.

const (
	snapshotMagic   = "SPHRSNP1"
	snapshotVersion = 1

	sectionDict  = 1
	sectionShard = 2
	sectionEnd   = 0xFF
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SnapshotInfo describes a written or restored snapshot.
type SnapshotInfo struct {
	// Epoch is the store mutation epoch the snapshot captured; the
	// triple set it contains is exactly the set that epoch names.
	Epoch uint64
	// Triples is the number of committed triples in the image.
	Triples uint64
	// Terms is the number of dictionary terms serialized (referenced
	// terms only — the compacted dictionary).
	Terms int
	// Bytes is the encoded size.
	Bytes int64
}

// WriteSnapshot writes an epoch-consistent snapshot of the store to w
// and returns what it wrote. The read lock is held while the indexes
// are encoded into memory — the cut is a single instant: the stamped
// epoch, every index, and the triple count all belong to one store
// state — and released before any byte reaches w, so writers are
// stalled for the in-memory encode only, never for disk I/O.
func (s *Store) WriteSnapshot(w io.Writer) (SnapshotInfo, error) {
	s.mu.RLock()
	epoch := s.epoch.Load()
	triples := uint64(s.size)
	watermark := s.dict.next.Load()
	refs := make([]uint64, (int(watermark)+63)/64)
	shardBuf := s.appendShardSection(nil, refs)
	s.mu.RUnlock()

	// The dictionary is append-only and term slots are immutable, so the
	// referenced IDs collected under the locks resolve safely without
	// them. Only referenced terms are written: this is the dictionary
	// compaction point. The section is written in term order — restore
	// adopts the sorted ID list directly as its term→ID search structure
	// instead of building a million-entry hash map. Rank labels, when
	// current, decide most comparisons with one integer compare.
	tv := s.dict.view()
	rt := s.dict.ranks.Load()
	var ids []ID
	for word, w := range refs {
		for w != 0 {
			ids = append(ids, ID(word*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if la, lb := rt.label(a), rt.label(b); la != 0 && lb != 0 && la != lb {
			return la < lb
		}
		return tv.atPtr(a).CompareTo(tv.atPtr(b)) < 0
	})
	terms := len(ids)
	var dictPayload []byte
	for _, id := range ids {
		dictPayload = binary.LittleEndian.AppendUint32(dictPayload, id)
		dictPayload = rdf.AppendTerm(dictPayload, *tv.atPtr(id))
	}

	var out []byte
	out = append(out, snapshotMagic...)
	out = binary.LittleEndian.AppendUint32(out, snapshotVersion)
	out = binary.LittleEndian.AppendUint64(out, epoch)
	out = binary.LittleEndian.AppendUint32(out, 1) // shards
	out = binary.LittleEndian.AppendUint64(out, triples)
	out = binary.LittleEndian.AppendUint32(out, watermark)
	out = binary.LittleEndian.AppendUint32(out, uint32(terms))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
	out = appendSection(out, sectionDict, dictPayload)
	out = append(out, shardBuf...)
	out = appendSection(out, sectionEnd, nil)

	info := SnapshotInfo{
		Epoch:   epoch,
		Triples: triples,
		Terms:   terms,
		Bytes:   int64(len(out)),
	}
	if _, err := w.Write(out); err != nil {
		return info, fmt.Errorf("store: writing snapshot: %w", err)
	}
	return info, nil
}

// appendSection frames a payload: kind, length, payload, CRC32C.
func appendSection(out []byte, kind byte, payload []byte) []byte {
	out = append(out, kind)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
}

// appendShardSection encodes the indexes as shard section 0. Caller
// must hold the read lock. Referenced dictionary IDs are recorded in
// refs (from the SPO permutation, which mentions every position of
// every triple exactly once).
func (s *Store) appendShardSection(out []byte, refs []uint64) []byte {
	var p []byte
	p = binary.LittleEndian.AppendUint32(p, 0)
	p = binary.LittleEndian.AppendUint64(p, s.epoch.Load())
	p = binary.LittleEndian.AppendUint32(p, uint32(s.size))
	p = appendIndexBlock(p, &s.spo, refs)
	p = appendIndexBlock(p, &s.pos, nil)
	p = appendIndexBlock(p, &s.osp, nil)
	return appendSection(out, sectionShard, p)
}

func appendIndexBlock(p []byte, x *index, refs []uint64) []byte {
	p = binary.LittleEndian.AppendUint32(p, uint32(len(x.keys)))
	for _, k := range x.keys {
		p = binary.LittleEndian.AppendUint32(p, k)
		if refs != nil {
			refs[k>>6] |= 1 << (k & 63)
		}
	}
	for _, k := range x.keys {
		e := x.m[k]
		p = binary.LittleEndian.AppendUint32(p, uint32(len(e.keys)))
		for i, k2 := range e.keys {
			p = binary.LittleEndian.AppendUint32(p, k2)
			p = binary.LittleEndian.AppendUint32(p, uint32(len(*e.lists[i])))
			if refs != nil {
				refs[k2>>6] |= 1 << (k2 & 63)
			}
		}
		for _, lst := range e.lists {
			for _, id := range *lst {
				p = binary.LittleEndian.AppendUint32(p, id)
				if refs != nil {
					refs[id>>6] |= 1 << (id & 63)
				}
			}
		}
	}
	return p
}

// RestoreSnapshotBytes rebuilds a store from a snapshot image written
// by WriteSnapshot. A one-section snapshot takes the fast structural
// path, which rebuilds every index without sorting because restore
// preserves dictionary IDs. A snapshot written by an earlier build that
// partitioned the store (several shard sections) is merged into the one
// partition through the bulk-commit path instead: its key slices are
// sorted once, but no term is re-interned.
//
// Corruption anywhere — bad magic, version, checksum, or truncation —
// returns an error; RestoreSnapshotBytes never panics on hostile input
// and never returns a partially restored store.
func RestoreSnapshotBytes(data []byte) (*Store, SnapshotInfo, error) {
	rd := &sreader{b: data}
	if string(rd.bytes(len(snapshotMagic))) != snapshotMagic {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: bad magic")
	}
	if v := rd.u32(); rd.err == nil && v != snapshotVersion {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: unsupported version %d", v)
	}
	epoch := rd.u64()
	snapShards := int(rd.u32())
	triples := rd.u64()
	watermark := rd.u32()
	termCount := int(rd.u32())
	headerEnd := rd.off
	wantCRC := rd.u32()
	if rd.err != nil {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: truncated header")
	}
	if crc32.Checksum(data[:headerEnd], castagnoli) != wantCRC {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: header checksum mismatch")
	}
	if snapShards < 1 || snapShards > 1<<16 || watermark < 1 {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: implausible header (shards=%d watermark=%d)", snapShards, watermark)
	}

	s := New()
	structural := snapShards == 1

	var (
		sawDict   bool
		shardSeen = make([]bool, snapShards)
		// packed collects the triples of a multi-section snapshot.
		packed [][3]ID
		slabs  decodeSlabs
	)
	for {
		kind := rd.u8()
		plen := rd.u64()
		if rd.err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: truncated section header")
		}
		if plen > uint64(len(rd.b)-rd.off) {
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: section length %d exceeds file", plen)
		}
		payload := rd.bytes(int(plen))
		if crc32.Checksum(payload, castagnoli) != rd.u32() || rd.err != nil {
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: section checksum mismatch")
		}
		if kind == sectionEnd {
			break
		}
		switch kind {
		case sectionDict:
			if sawDict {
				return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: duplicate dictionary section")
			}
			sawDict = true
			if err := s.dict.restore(payload, termCount, watermark); err != nil {
				return nil, SnapshotInfo{}, err
			}
		case sectionShard:
			if !sawDict {
				return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: shard section before dictionary")
			}
			idx, shardPacked, err := s.restoreShardSection(payload, snapShards, structural, &slabs)
			if err != nil {
				return nil, SnapshotInfo{}, err
			}
			if shardSeen[idx] {
				return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: duplicate shard section %d", idx)
			}
			shardSeen[idx] = true
			packed = append(packed, shardPacked...)
		default:
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: unknown section kind %d", kind)
		}
	}
	if !sawDict {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: missing dictionary section")
	}
	for i, seen := range shardSeen {
		if !seen {
			return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: missing shard section %d", i)
		}
	}
	if !structural {
		// IDs (and with them term order) are preserved, so the commit
		// sorts key slices but never re-interns a term. The snapshot
		// epoch is re-established explicitly.
		s.commitBatch(s.dict.view(), packed)
	}
	s.epoch.Store(epoch)
	if got := s.Len(); uint64(got) != triples {
		return nil, SnapshotInfo{}, fmt.Errorf("store: snapshot: restored %d triples, header says %d", got, triples)
	}
	info := SnapshotInfo{
		Epoch:   epoch,
		Triples: triples,
		Terms:   termCount,
		Bytes:   int64(len(data)),
	}
	return s, info, nil
}

// restore rebuilds the dictionary from a snapshot dictionary section:
// every term goes back in under its snapshotted ID, and the
// allocator watermark is restored, so IDs assigned after the restore
// never collide with snapshotted ones. Single-threaded (the store is
// not yet published); no locks are taken.
//
// The section arrives in strictly ascending term order (enforced here),
// so restore does not populate the intern map at all: the
// sorted ID list is installed as the dictionary's base (see
// dict.baseLookup) and term→ID resolution binary-searches it through
// the spine. Skipping a million Term-keyed map inserts is most of what
// makes restoring a large snapshot cheap; the order check doubles as a
// duplicate-ID and duplicate-term rejection for checksummed-but-bogus
// input. Because the base is term-sorted, the rank table is seeded in
// O(n) too — a restored store starts with every term labeled, where a
// re-ingested one pays a full sort on its first rank build.
func (d *dict) restore(payload []byte, termCount int, watermark ID) error {
	d.ensureCovers(watermark - 1)
	spine := *d.spine.Load()
	base := make([]ID, 0, termCount)
	var prev *rdf.Term
	for i := 0; i < termCount; i++ {
		if len(payload) < 4 {
			return fmt.Errorf("store: snapshot: dictionary section truncated at term %d", i)
		}
		id := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		t, n, err := rdf.DecodeTerm(payload)
		if err != nil {
			return fmt.Errorf("store: snapshot: dictionary term %d: %w", i, err)
		}
		payload = payload[n:]
		if id == Wildcard || id >= watermark {
			return fmt.Errorf("store: snapshot: dictionary ID %d out of range", id)
		}
		slot := &spine[id>>chunkShift][id&chunkMask]
		*slot = t
		if prev != nil && prev.CompareTo(slot) >= 0 {
			return fmt.Errorf("store: snapshot: dictionary section out of term order at term %d", i)
		}
		prev = slot
		if !d.numericLits.Load() && isNumericLiteral(slot) {
			d.numericLits.Store(true)
		}
		base = append(base, id)
	}
	if len(payload) != 0 {
		return fmt.Errorf("store: snapshot: %d trailing bytes in dictionary section", len(payload))
	}
	d.base = base
	d.next.Store(watermark)
	d.terms.Store(uint32(termCount))
	// Seed the rank table from the already-sorted base (same floor as
	// maybeBuildRanks: tiny stores merge fine on string compares).
	if termCount >= rankMinTerms {
		nt := &rankTable{labels: make([]uint64, watermark)}
		stride := math.MaxUint64 / uint64(termCount+1)
		for k, id := range base {
			nt.labels[id] = uint64(k+1) * stride
		}
		d.rankOrder = base
		d.ranks.Store(nt)
		d.labeled.Store(uint32(termCount))
	}
	return nil
}

// Slab allocators for structural decode. A 1M-triple snapshot expands
// into millions of inner lists, level-2 key slices, and list headers;
// allocating each individually makes restore GC-bound and erases the
// advantage over re-ingesting. Slabs hand out stable sub-slices of
// large chunks instead — a previously returned slice is never moved
// because a full slab is replaced, not grown.
// Chunks start small (restoring a tiny snapshot should not allocate
// megabytes) and double per refill up to a cap, so big restores settle
// into large chunks quickly.
func slabChunk(n, prev, maxChunk int) int {
	c := prev * 2
	if c < 1<<8 {
		c = 1 << 8
	}
	if c > maxChunk {
		c = maxChunk
	}
	if n > c {
		c = n
	}
	return c
}

type idSlab struct{ buf []ID }

func (s *idSlab) take(n int) []ID {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]ID, 0, slabChunk(n, cap(s.buf), 1<<18))
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

// listSlab provides addressable []ID headers (the *[]ID values shared
// between entry.lists and entry.m).
type listSlab struct{ buf [][]ID }

func (s *listSlab) take(n int) [][]ID {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([][]ID, 0, slabChunk(n, cap(s.buf), 1<<15))
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

type ptrSlab struct{ buf []*[]ID }

func (s *ptrSlab) take(n int) []*[]ID {
	if cap(s.buf)-len(s.buf) < n {
		s.buf = make([]*[]ID, 0, slabChunk(n, cap(s.buf), 1<<15))
	}
	off := len(s.buf)
	s.buf = s.buf[:off+n]
	return s.buf[off : off+n : off+n]
}

type decodeSlabs struct {
	ids   idSlab
	lists listSlab
	ptrs  ptrSlab
	// entries slabs the entry structs themselves.
	entries []entry
}

func (ds *decodeSlabs) takeEntry() *entry {
	if len(ds.entries) == cap(ds.entries) {
		ds.entries = make([]entry, 0, slabChunk(1, cap(ds.entries), 1<<14))
	}
	ds.entries = ds.entries[:len(ds.entries)+1]
	return &ds.entries[len(ds.entries)-1]
}

// restoreShardSection decodes one shard section. In structural mode
// (a one-section snapshot) the indexes are rebuilt in place, preserved
// IDs keeping every key slice term-sorted; otherwise the packed triples
// are collected for one bulk commit.
func (s *Store) restoreShardSection(payload []byte, snapShards int, structural bool, slabs *decodeSlabs) (int, [][3]ID, error) {
	rd := &sreader{b: payload}
	idx := int(rd.u32())
	rd.u64() // the section's epoch; the header's is the store's
	size := int(rd.u32())
	if rd.err != nil || idx < 0 || idx >= snapShards {
		return 0, nil, fmt.Errorf("store: snapshot: bad shard section header")
	}
	if !structural {
		// Only the SPO block is needed; it enumerates every triple.
		packed, err := decodePackedTriples(rd, size, slabs)
		if err != nil {
			return 0, nil, err
		}
		return idx, packed, nil
	}
	if err := decodeIndexBlock(rd, &s.spo, slabs); err != nil {
		return 0, nil, err
	}
	if err := decodeIndexBlock(rd, &s.pos, slabs); err != nil {
		return 0, nil, err
	}
	if err := decodeIndexBlock(rd, &s.osp, slabs); err != nil {
		return 0, nil, err
	}
	if rd.off != len(rd.b) {
		return 0, nil, fmt.Errorf("store: snapshot: %d trailing bytes in shard section %d", len(rd.b)-rd.off, idx)
	}
	// present and size derive from the SPO permutation.
	s.present = make(map[[3]ID]struct{}, size)
	for _, sb := range s.spo.keys {
		e := s.spo.m[sb]
		for i, p := range e.keys {
			for _, o := range *e.lists[i] {
				s.present[[3]ID{sb, p, o}] = struct{}{}
			}
		}
	}
	if len(s.present) != size {
		return 0, nil, fmt.Errorf("store: snapshot: shard %d holds %d triples, section says %d", idx, len(s.present), size)
	}
	s.size = size
	return idx, nil, nil
}

// decodeIndexBlock rebuilds one index permutation structurally: key
// slices are adopted in file order (term-sorted at write time, still
// term-sorted now because IDs are preserved), inner lists are cut from
// slabs at exact size, and per-entry totals are recomputed. The hot
// loops index the payload directly instead of going through sreader
// per value.
func decodeIndexBlock(rd *sreader, x *index, slabs *decodeSlabs) error {
	nkeys := int(rd.u32())
	if rd.err != nil || nkeys < 0 || nkeys > (len(rd.b)-rd.off)/4 {
		return fmt.Errorf("store: snapshot: bad index key count")
	}
	keyBuf := rd.bytes(4 * nkeys)
	x.keys = make([]ID, nkeys)
	for i := range x.keys {
		x.keys[i] = binary.LittleEndian.Uint32(keyBuf[4*i:])
	}
	x.m = make(map[ID]*entry, nkeys)
	for _, k := range x.keys {
		n2 := int(rd.u32())
		if rd.err != nil || n2 < 0 || n2 > (len(rd.b)-rd.off)/8 {
			return fmt.Errorf("store: snapshot: bad index entry count")
		}
		pairBuf := rd.bytes(8 * n2)
		e := slabs.takeEntry()
		e.m = make(map[ID]*[]ID, n2)
		e.keys = slabs.ids.take(n2)
		e.lists = slabs.ptrs.take(n2)
		headers := slabs.lists.take(n2)
		total := 0
		for i := 0; i < n2; i++ {
			e.keys[i] = binary.LittleEndian.Uint32(pairBuf[8*i:])
			n := int(binary.LittleEndian.Uint32(pairBuf[8*i+4:]))
			if n < 0 || total > (len(rd.b)-rd.off)/4-n {
				return fmt.Errorf("store: snapshot: bad inner list length")
			}
			total += n
			e.lists[i] = &headers[i]
			e.m[e.keys[i]] = &headers[i]
		}
		e.total = total
		innerBuf := rd.bytes(4 * total)
		if rd.err != nil {
			return fmt.Errorf("store: snapshot: truncated index block")
		}
		inner := slabs.ids.take(total)
		for i := range inner {
			inner[i] = binary.LittleEndian.Uint32(innerBuf[4*i:])
		}
		off := 0
		for i := 0; i < n2; i++ {
			n := int(binary.LittleEndian.Uint32(pairBuf[8*i+4:]))
			headers[i] = inner[off : off+n : off+n]
			off += n
		}
		x.m[k] = e
	}
	return nil
}

// decodePackedTriples walks a shard section's SPO block and returns the
// packed triples, skipping the POS/OSP blocks (the slow path rebuilds
// them itself).
func decodePackedTriples(rd *sreader, size int, slabs *decodeSlabs) ([][3]ID, error) {
	var spo index
	if err := decodeIndexBlock(rd, &spo, slabs); err != nil {
		return nil, err
	}
	packed := make([][3]ID, 0, size)
	for _, sb := range spo.keys {
		e := spo.m[sb]
		for i, p := range e.keys {
			for _, o := range *e.lists[i] {
				packed = append(packed, [3]ID{sb, p, o})
			}
		}
	}
	if len(packed) != size {
		return nil, fmt.Errorf("store: snapshot: shard SPO holds %d triples, section says %d", len(packed), size)
	}
	return packed, nil
}

// sreader is a bounds-checked little-endian reader over a byte slice.
// Reads past the end set err and return zero values instead of
// panicking — snapshot decoding must survive arbitrary corruption.
type sreader struct {
	b   []byte
	off int
	err error
}

func (r *sreader) bytes(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.off {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *sreader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *sreader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *sreader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
