// Package qald provides the QALD-5-like evaluation workload: a question
// suite over the synthetic dataset mirroring the paper's Appendix B user
// study questions (plus extras to reach the QALD-5 size of 50), gold
// SPARQL queries with known answers, and the performance measures of
// Section 7.2 (#pro, #ri, #par, R, R*, P, P*, F1, F1*).
package qald

import (
	"context"
	"fmt"
	"sort"

	"sapphire/internal/sparql"
)

// Difficulty follows the paper's three categories.
type Difficulty uint8

const (
	// Easy questions are one-triple factoid lookups.
	Easy Difficulty = iota
	// Medium questions need a join or two.
	Medium
	// Difficult questions need self-joins, filters, aggregates, or
	// superlatives.
	Difficult
)

func (d Difficulty) String() string {
	switch d {
	case Easy:
		return "easy"
	case Medium:
		return "medium"
	default:
		return "difficult"
	}
}

// Node is one position of a plan triple: either a variable or a keyword
// the user would type (to be resolved against the cached data).
type Node struct {
	// Var is the variable name when non-empty.
	Var string
	// Keyword is the user's term for a predicate or literal.
	Keyword string
	// IsLiteral marks keyword object positions that denote literals
	// rather than predicates.
	IsLiteral bool
}

// V returns a variable node.
func V(name string) Node { return Node{Var: name} }

// P returns a predicate-keyword node.
func P(kw string) Node { return Node{Keyword: kw} }

// L returns a literal-keyword node.
func L(kw string) Node { return Node{Keyword: kw, IsLiteral: true} }

// PlanTriple is one triple pattern of the user's plan.
type PlanTriple struct {
	S, P, O Node
}

// Plan describes how a user would express the question in Sapphire's
// triple-pattern UI, using only terms from the question text.
type Plan struct {
	Triples []PlanTriple
	// Filter is an optional raw filter expression over plan variables.
	Filter string
	// OrderDesc optionally sorts descending by this variable.
	OrderDesc string
	// Limit optionally truncates results (with OrderDesc: superlative).
	Limit int
	// Count aggregates the projected variable when true.
	Count bool
	// Project is the answer variable.
	Project string
}

// Question is one benchmark item.
type Question struct {
	ID         string
	Text       string
	Difficulty Difficulty
	// Gold is the correct SPARQL over the synthetic dataset; its single
	// projected column defines the gold answer set.
	Gold string
	// Plan is how a user would describe the question in Sapphire.
	Plan Plan
	// Factoid marks single-relation lookup questions (the subset KBQA
	// handles).
	Factoid bool
	// Relation is the main relation keyword, used by the NL baselines'
	// pattern matching.
	Relation string
	// EntityLiteral is the anchor entity name in the question, used by
	// the NL baselines.
	EntityLiteral string
}

// AnswerSet is a set of answer strings (term values).
type AnswerSet map[string]bool

// NewAnswerSet builds a set from values.
func NewAnswerSet(vals ...string) AnswerSet {
	s := make(AnswerSet, len(vals))
	for _, v := range vals {
		s[v] = true
	}
	return s
}

// Equal reports set equality.
func (a AnswerSet) Equal(b AnswerSet) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

// Intersects reports whether the sets share an element.
func (a AnswerSet) Intersects(b AnswerSet) bool {
	for v := range a {
		if b[v] {
			return true
		}
	}
	return false
}

// Values returns the sorted elements.
func (a AnswerSet) Values() []string {
	out := make([]string, 0, len(a))
	for v := range a {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// FromResults extracts the answer set from a result's projected column.
// With multiple columns the first variable is used.
func FromResults(res *sparql.Results) AnswerSet {
	out := make(AnswerSet)
	if res == nil || len(res.Vars) == 0 {
		return out
	}
	col := res.Vars[0]
	for _, row := range res.Rows {
		if t, ok := row[col]; ok {
			out[t.Value] = true
		}
	}
	return out
}

// GoldAnswers executes the gold query against a graph and returns the
// answer set.
func GoldAnswers(g sparql.IDGraph, q Question) (AnswerSet, error) {
	parsed, err := sparql.Parse(q.Gold)
	if err != nil {
		return nil, fmt.Errorf("qald %s: gold parse: %w", q.ID, err)
	}
	res, err := sparql.Eval(g, parsed, sparql.Options{})
	if err != nil {
		return nil, fmt.Errorf("qald %s: gold eval: %w", q.ID, err)
	}
	return FromResults(res), nil
}

// System is anything that can attempt benchmark questions: Sapphire's
// simulated operator and the baseline reimplementations.
type System interface {
	// Name identifies the system in tables.
	Name() string
	// Answer attempts the question. processed reports whether the
	// system produced any answer at all (the #pro measure); an
	// unprocessed question contributes nothing to precision.
	Answer(ctx context.Context, q Question) (answers AnswerSet, processed bool)
}

// Verdict classifies one answered question.
type Verdict uint8

// Verdicts for a processed question.
const (
	// Wrong answers share nothing with gold.
	Wrong Verdict = iota
	// Partial answers intersect gold without matching it.
	Partial
	// Right answers equal gold exactly.
	Right
)

// Judge compares an answer set against gold.
func Judge(answers, gold AnswerSet) Verdict {
	if len(answers) == 0 {
		return Wrong
	}
	if answers.Equal(gold) {
		return Right
	}
	if answers.Intersects(gold) {
		return Partial
	}
	return Wrong
}

// Row is one line of Table 1.
type Row struct {
	System    string
	Processed int
	Right     int
	Partial   int
	Total     int
}

// ProcessedPct is the paper's "%" column.
func (r Row) ProcessedPct() float64 { return pct(r.Processed, r.Total) }

// Recall is R = #ri / #total.
func (r Row) Recall() float64 { return ratio(r.Right, r.Total) }

// PartialRecall is R* = (#ri + #par) / #total.
func (r Row) PartialRecall() float64 { return ratio(r.Right+r.Partial, r.Total) }

// Precision is P = #ri / #pro.
func (r Row) Precision() float64 { return ratio(r.Right, r.Processed) }

// PartialPrecision is P* = (#ri + #par) / #pro.
func (r Row) PartialPrecision() float64 { return ratio(r.Right+r.Partial, r.Processed) }

// F1 is the harmonic mean of P and R.
func (r Row) F1() float64 { return f1(r.Precision(), r.Recall()) }

// F1Star is the harmonic mean of P* and R*.
func (r Row) F1Star() float64 { return f1(r.PartialPrecision(), r.PartialRecall()) }

func pct(a, b int) float64 { return 100 * ratio(a, b) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Evaluate runs a system over the questions and scores it against gold
// answers computed on the graph.
func Evaluate(ctx context.Context, sys System, questions []Question, g sparql.IDGraph) (Row, error) {
	row := Row{System: sys.Name(), Total: len(questions)}
	for _, q := range questions {
		gold, err := GoldAnswers(g, q)
		if err != nil {
			return row, err
		}
		answers, processed := sys.Answer(ctx, q)
		if !processed || len(answers) == 0 {
			continue
		}
		row.Processed++
		switch Judge(answers, gold) {
		case Right:
			row.Right++
		case Partial:
			row.Partial++
		}
	}
	return row, nil
}
