package store

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"sapphire/internal/rdf"
)

// snapshotSample builds a store with mixed term kinds across both the
// bulk and online paths, so snapshots cover every encoding case.
func snapshotSample(t testing.TB) *Store {
	t.Helper()
	s := New()
	l := NewBulkLoader(s)
	if err := l.AddAll(benchTriples(2000)); err != nil {
		t.Fatal(err)
	}
	if l.Commit() != 2000 {
		t.Fatal("short commit")
	}
	extra := []rdf.Triple{
		tri(iri("s0"), iri("label"), rdf.NewLangLiteral("zero", "en")),
		tri(iri("s0"), iri("age"), rdf.NewTypedLiteral("42", rdf.XSDInteger)),
		tri(rdf.NewBlank("b1"), iri("p"), rdf.NewBlank("b2")),
		tri(iri("s1"), iri("note"), lit("a \"quoted\"\nvalue")),
	}
	for _, tr := range extra {
		if _, err := s.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// dump renders every triple as one N-Triples line in Match's term-sorted
// order, so stores holding the same triples give the same bytes.
func dump(t testing.TB, s *Store) []byte {
	t.Helper()
	var b bytes.Buffer
	s.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		b.WriteString(tr.String() + "\n")
		return true
	})
	return b.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := snapshotSample(t)
	var buf bytes.Buffer
	info, err := s.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Epoch != s.Epoch() {
		t.Errorf("info.Epoch = %d, store epoch %d", info.Epoch, s.Epoch())
	}
	if info.Triples != uint64(s.Len()) {
		t.Errorf("info.Triples = %d, store holds %d", info.Triples, s.Len())
	}
	if info.Bytes != int64(buf.Len()) {
		t.Errorf("info.Bytes = %d, wrote %d", info.Bytes, buf.Len())
	}

	r, rinfo, err := RestoreSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rinfo != info {
		t.Errorf("restore info %+v != write info %+v", rinfo, info)
	}
	if r.Epoch() != s.Epoch() {
		t.Errorf("restored epoch %d, want %d", r.Epoch(), s.Epoch())
	}
	if got, want := dump(t, r), dump(t, s); !bytes.Equal(got, want) {
		t.Fatalf("restored dump differs (%d vs %d bytes)", len(got), len(want))
	}

	// The restored store must stay fully usable: new terms get fresh
	// IDs past the restored watermark, duplicates are still detected.
	if added, err := r.Add(tri(iri("brand-new"), iri("p"), lit("new"))); err != nil || !added {
		t.Fatalf("Add after restore = (%v, %v)", added, err)
	}
	if added, _ := r.Add(tri(iri("s0"), iri("age"), rdf.NewTypedLiteral("42", rdf.XSDInteger))); added {
		t.Error("duplicate Add after restore reported added")
	}
}

// TestSnapshotLegacyPartitioned restores testdata/legacy8.snap, written
// by an earlier build that partitioned the store into 8 subject-hash
// shards (so the file holds 8 shard sections and a sparse ID space),
// and requires the N-Triples dump that build produced from the live
// store: every triple, multibyte and numeric literals included, in the
// same order. The restored store must then accept new triples and keep
// detecting duplicates.
func TestSnapshotLegacyPartitioned(t *testing.T) {
	data, err := os.ReadFile("testdata/legacy8.snap")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/legacy8.nt")
	if err != nil {
		t.Fatal(err)
	}
	r, info, err := RestoreSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := dump(t, r); !bytes.Equal(got, want) {
		t.Fatalf("restored dump differs from the writing build's dump:\n%s", got)
	}
	if info.Triples != uint64(r.Len()) || r.Epoch() != info.Epoch || info.Epoch == 0 {
		t.Errorf("restore info %+v, store holds %d triples at epoch %d", info, r.Len(), r.Epoch())
	}
	if added, err := r.Add(tri(iri("post-restore"), iri("p"), lit("v"))); err != nil || !added {
		t.Fatalf("Add after legacy restore = (%v, %v)", added, err)
	}
	name := rdf.NewLangLiteral("Zürich", "de")
	if added, _ := r.Add(rdf.NewTriple(rdf.NewIRI("http://example.org/s0"), rdf.NewIRI("http://example.org/name"), name)); added {
		t.Error("duplicate Add after legacy restore reported added")
	}
}

// TestSnapshotDictCompaction: terms interned by staged-but-uncommitted
// bulk triples must not survive a snapshot/restore cycle.
func TestSnapshotDictCompaction(t *testing.T) {
	s := snapshotSample(t)
	l := NewBulkLoader(s)
	var staged []rdf.Triple
	for i := 0; i < 500; i++ {
		staged = append(staged, tri(iri(fmt.Sprintf("ghost%d", i)), iri("haunts"), lit(fmt.Sprintf("g%d", i))))
	}
	if err := l.AddAll(staged); err != nil {
		t.Fatal(err)
	}
	// No Commit: the ghost terms are interned but referenced by nothing.
	before := int(s.dict.terms.Load())

	var buf bytes.Buffer
	info, err := s.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Terms >= before {
		t.Fatalf("snapshot kept %d terms, dictionary holds %d — no compaction", info.Terms, before)
	}
	r, _, err := RestoreSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(r.dict.terms.Load()); got != info.Terms {
		t.Errorf("restored dictionary holds %d terms, snapshot wrote %d", got, info.Terms)
	}
	if !bytes.Equal(dump(t, r), dump(t, s)) {
		t.Fatal("compacted restore changed the triple set")
	}
}

// TestSnapshotCorruption flips every bit position across a sample of
// byte offsets and truncates at every prefix length: decoding must
// return an error (or, at worst, an identical store) and never panic.
func TestSnapshotCorruption(t *testing.T) {
	s := New()
	for i := 0; i < 40; i++ {
		s.MustAdd(tri(iri(fmt.Sprintf("s%d", i)), iri("p"), lit(fmt.Sprintf("v%d", i))))
	}
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want := dump(t, s)

	for off := 0; off < len(data); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[off] ^= 1 << bit
			r, _, err := RestoreSnapshotBytes(mut)
			if err == nil {
				// A flip that still decodes must decode to the truth
				// (e.g. it landed in a CRC that then matched by
				// construction — impossible for CRC32C, but the
				// property we care about is "never a wrong store").
				if !bytes.Equal(dump(t, r), want) {
					t.Fatalf("bit flip at offset %d bit %d produced a different store with no error", off, bit)
				}
			}
		}
	}
	for n := 0; n < len(data); n++ {
		if _, _, err := RestoreSnapshotBytes(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

func TestSnapshotEmptyStore(t *testing.T) {
	s := New()
	var buf bytes.Buffer
	info, err := s.WriteSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if info.Triples != 0 || info.Terms != 0 {
		t.Fatalf("empty snapshot info = %+v", info)
	}
	r, _, err := RestoreSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("restored empty store holds %d triples", r.Len())
	}
	if added, err := r.Add(tri(iri("s"), iri("p"), lit("o"))); err != nil || !added {
		t.Fatalf("Add to restored empty store = (%v, %v)", added, err)
	}
}

// TestSnapshotConcurrentAdds races online writers against snapshot
// writes. Every snapshot must be internally consistent: it decodes
// cleanly, its stamped epoch matches the restored store's epoch, and
// its triple count matches its own header — no torn state.
func TestSnapshotConcurrentAdds(t *testing.T) {
	s := New()
	const writers = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				s.MustAdd(tri(
					iri(fmt.Sprintf("w%d-s%d", w, i)),
					iri(fmt.Sprintf("p%d", i%7)),
					lit(fmt.Sprintf("v%d", i)),
				))
			}
		}(w)
	}

	for round := 0; round < 20; round++ {
		var buf bytes.Buffer
		info, err := s.WriteSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		r, rinfo, err := RestoreSnapshotBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("round %d: snapshot under concurrent Adds does not decode: %v", round, err)
		}
		if rinfo.Triples != info.Triples || uint64(r.Len()) != info.Triples {
			t.Fatalf("round %d: torn triple count: wrote %d, restored %d", round, info.Triples, r.Len())
		}
		if r.Epoch() != info.Epoch {
			t.Fatalf("round %d: restored epoch %d != stamped %d", round, r.Epoch(), info.Epoch)
		}
	}
	stop.Store(true)
	wg.Wait()

	// Quiesced store round-trips exactly.
	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := RestoreSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump(t, r), dump(t, s)) {
		t.Fatal("final dump differs")
	}
}

// TestDumpNTriplesDeterministic pins the full-scan order to term order:
// the same triples inserted in reverse through a different path get
// different dictionary IDs but dump identically.
func TestDumpNTriplesDeterministic(t *testing.T) {
	a := snapshotSample(t)
	b := New()
	all := a.MatchSlice(rdf.Term{}, rdf.Term{}, rdf.Term{})
	for i := len(all) - 1; i >= 0; i-- {
		b.MustAdd(all[i])
	}
	if !bytes.Equal(dump(t, a), dump(t, b)) {
		t.Fatal("full scans differ across construction order")
	}
}
