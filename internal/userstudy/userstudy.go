// Package userstudy simulates the paper's user study (Section 7.1):
// 16 participants with a computer-science background but no RDF
// experience answer questions from the Appendix B suite using both
// Sapphire and QAKiS. Participants are modelled as stochastic keyword
// users: they misspell literals, pick plural forms, choose vaguer
// synonyms for predicates, and sometimes get the query structure wrong —
// the very behaviours the QCM and QSM exist to repair. The driver
// regenerates Figures 8–11 and the QSM usage statistics of Section
// 7.3.2.
package userstudy

import (
	"context"
	"math"
	"math/rand"
	"strings"

	"sapphire/internal/baselines"
	"sapphire/internal/operator"
	"sapphire/internal/pum"
	"sapphire/internal/qald"
	"sapphire/internal/store"
)

// Config controls the simulation.
type Config struct {
	// Participants is the cohort size (paper: 16).
	Participants int
	// Seed makes the simulation deterministic.
	Seed int64
	// PerCategory is the number of scored questions per difficulty per
	// participant (paper: 3, after dropping the warm-up question).
	PerCategory int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{Participants: 16, Seed: 7, PerCategory: 3}
}

// CategoryStats aggregates one (system, difficulty) cell of the figures.
type CategoryStats struct {
	// Given counts scored question assignments.
	Given int
	// Answered counts correct answers (Figure 8 numerator).
	Answered int
	// AnsweredByAny counts distinct questions answered by ≥1
	// participant (Figure 9 numerator) over QuestionCount questions.
	AnsweredByAny int
	QuestionCount int
	// AttemptSum and TimeSum accumulate over *answered* questions only,
	// as in Figures 10 and 11.
	AttemptSum int
	TimeSum    float64
	// successByParticipant records per-participant success rates for
	// the 95% confidence intervals shown in the figures.
	successByParticipant []float64
}

// SuccessRate is the Figure 8 bar value (percent).
func (c CategoryStats) SuccessRate() float64 {
	if c.Given == 0 {
		return 0
	}
	return 100 * float64(c.Answered) / float64(c.Given)
}

// ConfidenceInterval95 returns the half-width of the 95% CI over
// participant success rates, in percentage points.
func (c CategoryStats) ConfidenceInterval95() float64 {
	n := len(c.successByParticipant)
	if n < 2 {
		return 0
	}
	mean := 0.0
	for _, v := range c.successByParticipant {
		mean += v
	}
	mean /= float64(n)
	varsum := 0.0
	for _, v := range c.successByParticipant {
		varsum += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(varsum / float64(n-1))
	return 100 * 1.96 * sd / math.Sqrt(float64(n))
}

// CoveragePct is the Figure 9 bar value (percent of questions answered
// by at least one participant).
func (c CategoryStats) CoveragePct() float64 {
	if c.QuestionCount == 0 {
		return 0
	}
	return 100 * float64(c.AnsweredByAny) / float64(c.QuestionCount)
}

// AvgAttempts is the Figure 10 bar value.
func (c CategoryStats) AvgAttempts() float64 {
	if c.Answered == 0 {
		return 0
	}
	return float64(c.AttemptSum) / float64(c.Answered)
}

// AvgMinutes is the Figure 11 bar value.
func (c CategoryStats) AvgMinutes() float64 {
	if c.Answered == 0 {
		return 0
	}
	return c.TimeSum / float64(c.Answered)
}

// Usage aggregates the Section 7.3.2 QSM statistics across all Sapphire
// sessions.
type Usage struct {
	Questions      int
	UsedSuggestion int
	AltPredicate   int
	AltLiteral     int
	Relaxation     int
}

// Pct is a percentage helper.
func Pct(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// Result is the full study outcome: stats[system][difficulty].
type Result struct {
	Stats map[string]map[qald.Difficulty]*CategoryStats
	Usage Usage
}

// Run executes the simulated study. The Sapphire side drives the real
// PUM through the operator; the QAKiS side drives the baseline
// reimplementation.
func Run(ctx context.Context, p *pum.PUM, st *store.Store, cfg Config) (*Result, error) {
	if cfg.Participants == 0 {
		cfg = DefaultConfig()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	questions := qald.UserStudyQuestions()
	byDiff := map[qald.Difficulty][]qald.Question{
		qald.Easy:      qald.ByDifficulty(questions, qald.Easy),
		qald.Medium:    qald.ByDifficulty(questions, qald.Medium),
		qald.Difficult: qald.ByDifficulty(questions, qald.Difficult),
	}
	res := &Result{Stats: map[string]map[qald.Difficulty]*CategoryStats{
		"Sapphire": newStats(byDiff),
		"QAKiS":    newStats(byDiff),
	}}
	answeredAny := map[string]map[string]bool{"Sapphire": {}, "QAKiS": {}}
	qakis := baselines.NewQAKiS(st)

	for pi := 0; pi < cfg.Participants; pi++ {
		skill := 0.6 + 0.4*float64(pi)/float64(max(1, cfg.Participants-1))
		prng := rand.New(rand.NewSource(cfg.Seed + int64(pi)*101))
		part := &participant{skill: skill, rng: prng}
		for _, diff := range []qald.Difficulty{qald.Easy, qald.Medium, qald.Difficult} {
			pool := byDiff[diff]
			perm := rng.Perm(len(pool))
			nq := min(cfg.PerCategory, len(pool))
			sSucc, qSucc := 0, 0
			for k := 0; k < nq; k++ {
				q := pool[perm[k]]
				gold, err := qald.GoldAnswers(st, q)
				if err != nil {
					return nil, err
				}

				// --- Sapphire session ---
				// A participant who ends up with no answers re-expresses
				// the question from scratch (fresh wording, possibly
				// fixing their earlier structure mistake), as the study
				// participants did across their 3–5 attempts.
				sStats := res.Stats["Sapphire"][diff]
				sStats.Given++
				op := operator.New(p)
				op.Corrupt = part.corrupt
				res.Usage.Questions++
				attempts := 0
				var out *operator.Outcome
				usedPred, usedLit, usedRelax := false, false, false
				for expr := 0; expr < 3; expr++ {
					plan := part.distortPlan(q.Plan)
					out = op.Attempt(ctx, qald.Question{Plan: plan})
					if out == nil {
						continue
					}
					attempts += out.Attempts
					usedPred = usedPred || out.UsedAltPredicate
					usedLit = usedLit || out.UsedAltLiteral
					usedRelax = usedRelax || out.UsedRelaxation
					if len(out.Answers) > 0 {
						break // the participant found (what looks like) an answer
					}
				}
				if usedPred || usedLit || usedRelax {
					res.Usage.UsedSuggestion++
				}
				if usedPred {
					res.Usage.AltPredicate++
				}
				if usedLit {
					res.Usage.AltLiteral++
				}
				if usedRelax {
					res.Usage.Relaxation++
				}
				if out != nil && qald.Judge(out.Answers, gold) == qald.Right {
					sStats.Answered++
					sSucc++
					sStats.AttemptSum += attempts
					sStats.TimeSum += part.sapphireMinutes(attempts, diff)
					answeredAny["Sapphire"][q.ID] = true
				}

				// --- QAKiS session ---
				qStats := res.Stats["QAKiS"][diff]
				qStats.Given++
				attempts, ok := part.tryQAKiS(ctx, qakis, q, gold)
				if ok {
					qStats.Answered++
					qSucc++
					qStats.AttemptSum += attempts
					qStats.TimeSum += part.qakisMinutes(attempts, diff)
					answeredAny["QAKiS"][q.ID] = true
				}
			}
			res.Stats["Sapphire"][diff].successByParticipant =
				append(res.Stats["Sapphire"][diff].successByParticipant, float64(sSucc)/float64(nq))
			res.Stats["QAKiS"][diff].successByParticipant =
				append(res.Stats["QAKiS"][diff].successByParticipant, float64(qSucc)/float64(nq))
		}
	}
	for sys, m := range res.Stats {
		for diff, stats := range m {
			stats.QuestionCount = len(byDiff[diff])
			for _, q := range byDiff[diff] {
				if answeredAny[sys][q.ID] {
					stats.AnsweredByAny++
				}
			}
		}
	}
	return res, nil
}

func newStats(byDiff map[qald.Difficulty][]qald.Question) map[qald.Difficulty]*CategoryStats {
	return map[qald.Difficulty]*CategoryStats{
		qald.Easy:      {},
		qald.Medium:    {},
		qald.Difficult: {},
	}
}

// participant is one simulated user.
type participant struct {
	skill float64
	rng   *rand.Rand
}

// corrupt distorts a keyword the way study participants did: plural
// forms, adjacent-letter typos, or a vaguer phrasing. Higher skill means
// fewer distortions.
func (p *participant) corrupt(kw string) string {
	if p.rng.Float64() < p.skill {
		return kw
	}
	switch p.rng.Intn(3) {
	case 0:
		return kw + "s" // the "Kennedys" mistake
	case 1:
		r := []rune(kw)
		if len(r) >= 4 {
			i := 1 + p.rng.Intn(len(r)-2)
			r[i], r[i+1] = r[i+1], r[i]
			return string(r)
		}
		return kw
	default:
		if !strings.Contains(kw, " ") {
			return "the " + kw
		}
		return strings.Fields(kw)[0] // drops a word
	}
}

// distortPlan merges two chained triples into one — the wrong-structure
// mistake that only relaxation can repair. The paper's participants,
// lacking RDF experience, got the structure wrong often (relaxation was
// their most-used suggestion), so the error rate is substantial and
// shrinks with skill.
func (p *participant) distortPlan(plan qald.Plan) qald.Plan {
	if p.rng.Float64() < p.skill-0.05 || len(plan.Triples) < 3 {
		return plan
	}
	out := plan
	out.Triples = append([]qald.PlanTriple(nil), plan.Triples...)
	// Merge: find a pair (a, P1, ?x), (?x, P2, b) and shortcut it to
	// (a, P2, b), dropping the intermediate variable.
	for i := 0; i+1 < len(out.Triples); i++ {
		a, b := out.Triples[i], out.Triples[i+1]
		if a.O.Var != "" && a.O.Var == b.S.Var && a.O.Var != plan.Project {
			merged := qald.PlanTriple{S: a.S, P: b.P, O: b.O}
			out.Triples = append(out.Triples[:i], append([]qald.PlanTriple{merged}, out.Triples[i+2:]...)...)
			break
		}
	}
	return out
}

// tryQAKiS paraphrases the question up to 3 times (the paper's protocol)
// and reports attempts and success.
func (p *participant) tryQAKiS(ctx context.Context, sys *baselines.QAKiS, q qald.Question, gold qald.AnswerSet) (int, bool) {
	paraphrases := []string{q.Relation}
	// Second and third attempts rephrase the relation without changing
	// meaning (the paper allowed e.g. "What is the revenue of IBM?" →
	// "IBM's revenue" but not synonym swaps).
	if strings.HasSuffix(q.Relation, "s") {
		paraphrases = append(paraphrases, strings.TrimSuffix(q.Relation, "s"))
	} else {
		paraphrases = append(paraphrases, q.Relation+"s")
	}
	paraphrases = append(paraphrases, strings.ToLower(q.Relation))
	for i, rel := range paraphrases {
		qq := q
		qq.Relation = rel
		answers, ok := sys.Answer(ctx, qq)
		if ok && qald.Judge(answers, gold) == qald.Right {
			return i + 1, true
		}
	}
	return len(paraphrases), false
}

// sapphireMinutes models time spent: composing triple patterns and
// reviewing suggestions takes longer than typing a question, growing
// with attempts and difficulty (Figure 11's shape).
func (p *participant) sapphireMinutes(attempts int, d qald.Difficulty) float64 {
	base := 2.0 + 0.8*float64(d)
	perAttempt := 0.9
	noise := p.rng.Float64() * 0.8
	return base + perAttempt*float64(attempts-1) + noise
}

// qakisMinutes models typing a natural-language question and skimming
// its answers.
func (p *participant) qakisMinutes(attempts int, d qald.Difficulty) float64 {
	base := 0.8 + 0.3*float64(d)
	perAttempt := 0.5
	noise := p.rng.Float64() * 0.5
	return base + perAttempt*float64(attempts-1) + noise
}
