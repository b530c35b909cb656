package qald

import (
	"context"
	"testing"

	"sapphire/internal/datagen"
	"sapphire/internal/sparql"
)

func TestSuiteSize(t *testing.T) {
	qs := Questions()
	if len(qs) != 50 {
		t.Fatalf("suite has %d questions, want 50 (QALD-5 size)", len(qs))
	}
	study := UserStudyQuestions()
	if len(study) != 27 {
		t.Fatalf("user-study subset has %d questions, want 27 (Appendix B)", len(study))
	}
	ids := make(map[string]bool)
	for _, q := range qs {
		if ids[q.ID] {
			t.Errorf("duplicate question id %s", q.ID)
		}
		ids[q.ID] = true
	}
}

func TestDifficultyDistribution(t *testing.T) {
	qs := Questions()
	e := len(ByDifficulty(qs, Easy))
	m := len(ByDifficulty(qs, Medium))
	d := len(ByDifficulty(qs, Difficult))
	if e+m+d != 50 {
		t.Fatalf("difficulty partition broken: %d+%d+%d", e, m, d)
	}
	if e < 10 || m < 8 || d < 9 {
		t.Errorf("each paper category must be covered: e=%d m=%d d=%d", e, m, d)
	}
	// Appendix B counts inside the user-study subset.
	study := UserStudyQuestions()
	if len(ByDifficulty(study, Easy)) != 10 ||
		len(ByDifficulty(study, Medium)) != 8 ||
		len(ByDifficulty(study, Difficult)) != 9 {
		t.Errorf("user-study split = %d/%d/%d, want 10/8/9",
			len(ByDifficulty(study, Easy)), len(ByDifficulty(study, Medium)), len(ByDifficulty(study, Difficult)))
	}
}

// TestGoldQueriesHaveAnswers guarantees every gold query parses,
// evaluates, and yields at least one answer on the synthetic dataset —
// the precondition for the whole evaluation.
func TestGoldQueriesHaveAnswers(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	for _, q := range Questions() {
		gold, err := GoldAnswers(d.Store, q)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			continue
		}
		if len(gold) == 0 {
			t.Errorf("%s (%s): gold query has no answers", q.ID, q.Text)
		}
	}
}

func TestGoldSingleProjection(t *testing.T) {
	for _, q := range Questions() {
		parsed, err := sparql.Parse(q.Gold)
		if err != nil {
			t.Errorf("%s: %v", q.ID, err)
			continue
		}
		if len(parsed.Projections) != 1 {
			t.Errorf("%s: gold projects %d vars, want 1", q.ID, len(parsed.Projections))
		}
	}
}

func TestKnownGoldValues(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	check := func(id string, want ...string) {
		t.Helper()
		for _, q := range Questions() {
			if q.ID != id {
				continue
			}
			gold, err := GoldAnswers(d.Store, q)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if !gold.Equal(answers(want...)) {
				t.Errorf("%s gold = %v, want %v", id, gold.Values(), want)
			}
			return
		}
		t.Fatalf("question %s not found", id)
	}
	dbr := "http://dbpedia.org/resource/"
	check("E2", dbr+"Lyndon_B._Johnson")
	check("E4", dbr+"Rita_Wilson")
	check("M8", "395790")
	check("D3", dbr+"On_the_Road", dbr+"Door_Wide_Open")
	check("D5", dbr+"Sydney")
	check("D9", "2615060")
	check("X17", "3")
}

func TestAnswerSetOps(t *testing.T) {
	a := answers("x", "y")
	b := answers("y", "x")
	c := answers("y", "z")
	d := answers("q")
	if !a.Equal(b) {
		t.Error("Equal broken")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("Equal false positives")
	}
	if !a.Intersects(c) || a.Intersects(d) {
		t.Error("Intersects broken")
	}
	if got := a.Values(); len(got) != 2 || got[0] != "x" {
		t.Errorf("Values = %v", got)
	}
}

func TestJudge(t *testing.T) {
	gold := answers("a", "b")
	cases := []struct {
		ans  AnswerSet
		want Verdict
	}{
		{answers("a", "b"), Right},
		{answers("a"), Partial},
		{answers("a", "b", "c"), Partial},
		{answers("z"), Wrong},
		{answers(), Wrong},
	}
	for _, tc := range cases {
		if got := Judge(tc.ans, gold); got != tc.want {
			t.Errorf("Judge(%v) = %d, want %d", tc.ans.Values(), got, tc.want)
		}
	}
}

func TestRowMeasures(t *testing.T) {
	// Mirror the Sapphire row of Table 1: 43 processed, 43 right, 0
	// partial out of 50.
	r := Row{System: "Sapphire", Processed: 43, Right: 43, Partial: 0, Total: 50}
	if r.Recall() != 0.86 {
		t.Errorf("R = %v, want 0.86", r.Recall())
	}
	if r.Precision() != 1.0 {
		t.Errorf("P = %v", r.Precision())
	}
	if f := r.F1(); f < 0.92 || f > 0.93 {
		t.Errorf("F1 = %v, want ≈0.92", f)
	}
	// QAKiS row: 40 processed, 14 right, 9 partial.
	q := Row{System: "QAKiS", Processed: 40, Right: 14, Partial: 9, Total: 50}
	if q.Recall() != 0.28 || q.PartialRecall() != 0.46 {
		t.Errorf("QAKiS R/R* = %v/%v", q.Recall(), q.PartialRecall())
	}
	if q.Precision() != 0.35 {
		t.Errorf("QAKiS P = %v", q.Precision())
	}
	// Degenerate rows divide by zero safely.
	z := Row{}
	if z.Recall() != 0 || z.Precision() != 0 || z.F1() != 0 || z.ProcessedPct() != 0 {
		t.Error("zero row measures not 0")
	}
}

// dummySystem answers a fixed subset for Evaluate tests.
type dummySystem struct{ right map[string]bool }

func (d dummySystem) Name() string { return "dummy" }
func (d dummySystem) Answer(_ context.Context, q Question) (AnswerSet, bool) {
	if d.right[q.ID] {
		return answers("http://dbpedia.org/resource/Rita_Wilson"), true
	}
	return nil, false
}

func TestEvaluate(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	sys := dummySystem{right: map[string]bool{"E4": true, "E2": true}}
	row, err := Evaluate(context.Background(), sys, Questions(), d.Store)
	if err != nil {
		t.Fatal(err)
	}
	if row.Processed != 2 {
		t.Errorf("processed = %d, want 2", row.Processed)
	}
	if row.Right != 1 { // E4 right (Rita Wilson), E2 wrong
		t.Errorf("right = %d, want 1", row.Right)
	}
	if row.Total != 50 {
		t.Errorf("total = %d", row.Total)
	}
}

// answers builds a set from values.
func answers(vals ...string) AnswerSet {
	s := make(AnswerSet, len(vals))
	for _, v := range vals {
		s[v] = true
	}
	return s
}
