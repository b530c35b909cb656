package baselines

import (
	"context"
	"strings"

	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// SPARQLByE reverse-engineers a query from example answers: the user
// supplies a couple of correct answers, the system finds the property
// constraints they share, and a feedback loop refines the induced query.
// It can only be used when the user already knows several answers —
// entity answers, since shared properties of a literal mean nothing —
// which is why it processes so few questions in Table 1.
type SPARQLByE struct {
	Store *store.Store
	// MinGold is the minimum number of known answers needed to spare
	// two as examples and one for feedback (paper: three or more).
	MinGold int
	// Rounds bounds the feedback refinements.
	Rounds int
}

// NewSPARQLByE returns the baseline.
func NewSPARQLByE(st *store.Store) *SPARQLByE {
	return &SPARQLByE{Store: st, MinGold: 3, Rounds: 2}
}

// Name implements qald.System.
func (s *SPARQLByE) Name() string { return "SPARQLByE" }

// constraint is one induced (predicate, object) requirement.
type constraint struct {
	p, o rdf.Term
}

// Answer implements qald.System. The examples come from the question's
// gold answers, exactly as the paper evaluated the system ("we present
// two answers from the gold standard result as inputs").
func (s *SPARQLByE) Answer(_ context.Context, q qald.Question) (qald.AnswerSet, bool) {
	gold, err := qald.GoldAnswers(s.Store, q)
	if err != nil || len(gold) < s.MinGold {
		return nil, false
	}
	vals := gold.Values()
	var entities []rdf.Term
	for _, v := range vals {
		if strings.HasPrefix(v, "http://") || strings.HasPrefix(v, "https://") {
			entities = append(entities, rdf.NewIRI(v))
		}
	}
	if len(entities) < s.MinGold {
		return nil, false // literal answers carry no shared structure
	}
	ex1, ex2 := entities[0], entities[1]
	feedback := entities[2]

	cons := s.sharedConstraints(ex1, ex2)
	if len(cons) == 0 {
		return nil, false
	}
	answers := s.query(cons)
	for round := 0; round < s.Rounds; round++ {
		if answers[feedback.Value] {
			break
		}
		// The user marks a known answer that the induced query misses;
		// the system drops the constraints that answer violates.
		var kept []constraint
		for _, c := range cons {
			if s.Store.Contains(rdf.Triple{S: feedback, P: c.p, O: c.o}) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 || len(kept) == len(cons) {
			break
		}
		cons = kept
		answers = s.query(cons)
	}
	if len(answers) == 0 {
		return nil, false
	}
	return answers, true
}

// sharedConstraints returns the (p, o) pairs both examples satisfy.
// The Contains probes run after the Match scan completes: calling a
// locking accessor from inside the callback would re-enter the store
// read lock the scan already holds and deadlock once a writer queues
// (internal/store/doc.go "ID-level API contract").
func (s *SPARQLByE) sharedConstraints(a, b rdf.Term) []constraint {
	var cand []constraint
	s.Store.Match(a, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		if !tr.O.IsLiteral() { // literals (names, dates) are instance-specific
			cand = append(cand, constraint{tr.P, tr.O})
		}
		return true
	})
	var out []constraint
	for _, c := range cand {
		if s.Store.Contains(rdf.Triple{S: b, P: c.p, O: c.o}) {
			out = append(out, c)
		}
	}
	return out
}

// query evaluates the induced conjunctive query directly on the store.
func (s *SPARQLByE) query(cons []constraint) qald.AnswerSet {
	if len(cons) == 0 {
		return nil
	}
	// Start from the most selective constraint.
	best := 0
	bestCard := int(^uint(0) >> 1)
	for i, c := range cons {
		if card := s.Store.CardinalityEstimate(rdf.Term{}, c.p, c.o); card < bestCard {
			bestCard = card
			best = i
		}
	}
	// Scan first, probe after: the residual Contains checks must not
	// run inside the Match callback, which holds the store's read lock (internal/store/doc.go "ID-level API contract").
	var subjects []rdf.Term
	s.Store.Match(rdf.Term{}, cons[best].p, cons[best].o, func(tr rdf.Triple) bool {
		subjects = append(subjects, tr.S)
		return true
	})
	answers := make(qald.AnswerSet)
	for _, subj := range subjects {
		ok := true
		for i, c := range cons {
			if i == best {
				continue
			}
			if !s.Store.Contains(rdf.Triple{S: subj, P: c.p, O: c.o}) {
				ok = false
				break
			}
		}
		if ok {
			answers[subj.Value] = true
		}
	}
	return answers
}
