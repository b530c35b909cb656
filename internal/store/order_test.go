package store

import (
	"bytes"
	"fmt"
	"testing"

	"sapphire/internal/rdf"
)

// TestOrderLabelsNeverZeroForRealTerms is the rank-label audit behind
// the evaluator's top-k fast path. topKOp treats label 0 as "unlabeled,
// compare terms", so a real term labeled 0 would silently change which
// comparison path runs; and it compares labels unless both carry the
// numeric bit, so a numeric literal without the bit would be ordered by
// term order ("10" < "9") instead of by value. The label construction
// makes 0 impossible — labels are (k+1)*stride with stride >= 2^32-1 and
// only the low bit replaced — and this test pins both properties for
// every ID occurring in any triple: after a build, after incremental
// growth + rebuild, and after a snapshot restore, which labels the
// restored dictionary itself.
func TestOrderLabelsNeverZeroForRealTerms(t *testing.T) {
	// Numeric-looking and numeric lexical forms; "1e400" is out of range
	// and "Nancy" only starts like NaN, so neither is numeric.
	forms := []string{"7", "-0", "+.5", "1e3", "0x1p-2", "Inf", "infinity", "NaN", "1e400", "Nancy", "val"}
	s := New()
	// Past rankMinTerms distinct terms (the subjects alone), so the
	// restore below seeds its own rank table instead of leaving the
	// store unlabeled.
	for i := 0; i < rankMinTerms; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/T")))
		lex := forms[i%len(forms)]
		var obj rdf.Term
		switch i % 3 {
		case 0:
			obj = rdf.NewLiteral(lex)
		case 1:
			obj = rdf.NewTypedLiteral(fmt.Sprint(i), rdf.XSDInteger)
		default:
			obj = rdf.NewLangLiteral(lex, "en")
		}
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), obj))
	}
	check := func(s *Store, stage string) {
		t.Helper()
		label := s.OrderLabels()
		if label == nil {
			t.Fatalf("%s: no rank table", stage)
		}
		seen := map[ID]bool{}
		numeric := 0
		s.MatchIDs(0, 0, 0, func(a, b, c ID) bool {
			for _, id := range [3]ID{a, b, c} {
				if seen[id] {
					continue
				}
				seen[id] = true
				term := s.ResolveID(id)
				l := label(id)
				if l == 0 {
					t.Fatalf("%s: term %s (id %d) has rank label 0 — the evaluator would misread it as unlabeled",
						stage, term, id)
				}
				_, isNum := term.NumericValue()
				if (l&1 == 1) != isNum {
					t.Fatalf("%s: term %s (id %d) numeric=%v but its label's low bit is %d", stage, term, id, isNum, l&1)
				}
				if isNum {
					numeric++
				}
			}
			return true
		})
		if len(seen) == 0 || numeric == 0 {
			t.Fatalf("%s: %d ids enumerated, %d numeric — the check saw nothing to check", stage, len(seen), numeric)
		}
	}
	s.BuildOrderLabels()
	check(s, "initial build")

	// Terms interned after the build legitimately report 0 through the
	// old view; after a rebuild every occurring term labels nonzero
	// again.
	for i := 0; i < 50; i++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://x/extra%d", i))
		s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprintf("%d.5", i))))
	}
	s.BuildOrderLabels()
	check(s, "after growth + rebuild")

	var buf bytes.Buffer
	if _, err := s.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, _, err := RestoreSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check(r, "after snapshot restore")
}
