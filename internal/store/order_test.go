package store

import (
	"fmt"
	"testing"

	"sapphire/internal/rdf"
)

// TestOrderLabelsNeverZeroForRealTerms is the rank-label audit behind
// the evaluator's top-k fast path: topKOp treats label 0 as "unlabeled,
// compare terms", so a real term labeled 0 would silently change which
// comparison path runs. The label construction makes 0 impossible —
// labels are (k+1)*stride with stride >= 1 — and this test pins that
// for every ID occurring in any triple, across shardings and after
// incremental growth + rebuild.
func TestOrderLabelsNeverZeroForRealTerms(t *testing.T) {
	for _, shards := range []int{1, 8} {
		s := NewSharded(shards)
		for i := 0; i < 200; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://x/s%d", i))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI(rdf.RDFType), rdf.NewIRI("http://x/T")))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"),
				rdf.NewLiteral(fmt.Sprintf("val %d", i))))
		}
		s.BuildOrderLabels()
		label, _ := s.OrderLabels()
		if label == nil {
			t.Fatal("no rank table after BuildOrderLabels")
		}
		check := func(stage string) {
			seen := map[ID]bool{}
			s.MatchIDs(0, 0, 0, func(a, b, c ID) bool {
				for _, id := range [3]ID{a, b, c} {
					if !seen[id] {
						seen[id] = true
						if label(id) == 0 {
							t.Fatalf("shards=%d %s: term %s (id %d) has rank label 0 — the evaluator would misread it as unlabeled",
								shards, stage, s.ResolveID(id), id)
						}
					}
				}
				return true
			})
			if len(seen) == 0 {
				t.Fatalf("shards=%d %s: no ids enumerated", shards, stage)
			}
		}
		check("initial build")

		// Terms interned after the snapshot legitimately report 0 through
		// the old view; after a rebuild every occurring term labels nonzero
		// again.
		for i := 0; i < 50; i++ {
			subj := rdf.NewIRI(fmt.Sprintf("http://x/extra%d", i))
			s.MustAdd(rdf.NewTriple(subj, rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprintf("zzz %d", i))))
		}
		s.BuildOrderLabels()
		label, _ = s.OrderLabels()
		check("after growth + rebuild")
	}
}
