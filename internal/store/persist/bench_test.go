package persist

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// genTriples mirrors the store package's bench shape: n triples over
// n/2 subjects.
func genTriples(n int) []rdf.Triple {
	p := rdf.NewIRI("http://x/p")
	typ := rdf.NewIRI(rdf.RDFType)
	cls := rdf.NewIRI("http://x/C")
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n/2; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		out = append(out, rdf.NewTriple(subj, typ, cls))
		out = append(out, rdf.NewTriple(subj, p, rdf.NewLiteral(fmt.Sprintf("value %d", i))))
	}
	return out
}

var recovery1M struct {
	once    sync.Once
	triples []rdf.Triple
	snap    []byte // snapshot image of the 1M store
	nt      []byte // N-Triples dump of the same store
}

func recovery1MSetup(b *testing.B) {
	recovery1M.once.Do(func() {
		recovery1M.triples = genTriples(1_000_000)
		s := store.New()
		l := store.NewBulkLoader(s)
		if err := l.AddAll(recovery1M.triples); err != nil {
			b.Fatal(err)
		}
		l.Commit()
		var snap bytes.Buffer
		if _, err := s.WriteSnapshot(&snap); err != nil {
			b.Fatal(err)
		}
		recovery1M.snap = snap.Bytes()
		recovery1M.nt = []byte(dumpStore(b, s))
	})
}

// BenchmarkRecovery1M compares the two ways a 1M-triple store can come
// back after a restart: structural snapshot restore versus re-ingesting
// the equivalent N-Triples dump. The snapshot path skips parsing,
// interning, and index sorting entirely — the ratio between these two
// rows is the payoff the durable layer exists for.
func BenchmarkRecovery1M(b *testing.B) {
	recovery1MSetup(b)
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, _, err := store.RestoreSnapshotBytes(recovery1M.snap)
			if err != nil {
				b.Fatal(err)
			}
			if s.Len() != len(recovery1M.triples) {
				b.Fatal("short restore")
			}
		}
	})
	b.Run("reingest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := store.New()
			if err := store.LoadNTriples(s, bytes.NewReader(recovery1M.nt)); err != nil {
				b.Fatal(err)
			}
			if s.Len() != len(recovery1M.triples) {
				b.Fatal("short ingest")
			}
		}
	})
}

// BenchmarkSnapshotSave measures encoding a 100k-triple store to an
// in-memory snapshot (the disk write is the OS's problem; the encode is
// the stall writers can observe).
func BenchmarkSnapshotSave(b *testing.B) {
	s := store.New()
	l := store.NewBulkLoader(s)
	if err := l.AddAll(genTriples(100_000)); err != nil {
		b.Fatal(err)
	}
	l.Commit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.WriteSnapshot(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend measures logging one one-triple batch, the record
// pair an online /add of one fact writes (encode + frame + append, no
// fsync).
func BenchmarkWALAppend(b *testing.B) {
	triples := genTriples(1 << 16)
	w, err := createWAL(NewMemFS(), walName(0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (len(triples) - 1)
		if err := w.appendBatch(triples[j : j+1]); err != nil {
			b.Fatal(err)
		}
	}
}
