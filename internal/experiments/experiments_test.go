package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"sapphire/internal/qald"
)

var envCache *Env

func testEnv(t testing.TB) *Env {
	t.Helper()
	if envCache != nil {
		return envCache
	}
	env, err := Setup(context.Background(), Small)
	if err != nil {
		t.Fatal(err)
	}
	envCache = env
	return env
}

func TestTable1RunsAndSapphireWins(t *testing.T) {
	env := testEnv(t)
	rows, err := Table1(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 systems", len(rows))
	}
	byName := map[string]qald.Row{}
	for _, r := range rows {
		byName[r.System] = r
	}
	sap := byName["Sapphire"]
	for name, r := range byName {
		if name == "Sapphire" {
			continue
		}
		if r.F1() >= sap.F1() {
			t.Errorf("%s F1 %.2f >= Sapphire %.2f — the headline result must hold", name, r.F1(), sap.F1())
		}
	}
	if sap.Precision() < 0.99 {
		t.Errorf("Sapphire precision %.2f, want 1.0", sap.Precision())
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows)
	if !strings.Contains(buf.String(), "Sapphire") || !strings.Contains(buf.String(), "Xser") {
		t.Error("PrintTable1 missing rows")
	}
}

func TestPaperTable1Reference(t *testing.T) {
	ref := PaperTable1()
	if len(ref) != 10 {
		t.Fatalf("paper table rows = %d, want 10", len(ref))
	}
	// Spot-check against the publication.
	for _, r := range ref {
		if r.System == "Sapphire" {
			if r.Pro != 43 || r.F1 != 0.92 {
				t.Errorf("Sapphire reference row wrong: %+v", r)
			}
			if !r.Reproduced {
				t.Error("Sapphire must be flagged reproduced")
			}
		}
		if r.System == "Xser" && r.Reproduced {
			t.Error("Xser is not publicly runnable; must be reference-only")
		}
	}
}

func TestStudyAndFigures(t *testing.T) {
	env := testEnv(t)
	res, err := Study(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []string{"fig8", "fig9", "fig10", "fig11"} {
		var buf bytes.Buffer
		PrintFigure(&buf, res, fig)
		out := buf.String()
		if !strings.Contains(out, "Sapphire") || !strings.Contains(out, "difficult") {
			t.Errorf("%s output malformed:\n%s", fig, out)
		}
	}
	var buf bytes.Buffer
	PrintUsage(&buf, res)
	if !strings.Contains(buf.String(), "relaxed structure") {
		t.Error("usage output malformed")
	}
}

func TestInitWithTimeouts(t *testing.T) {
	rep, err := InitWithTimeouts(context.Background(), Small)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Timeouts == 0 {
		t.Error("constrained endpoint produced no timeouts")
	}
	if rep.Stats.LiteralCount == 0 {
		t.Error("no literals cached despite descent")
	}
	var buf bytes.Buffer
	PrintInit(&buf, rep)
	if !strings.Contains(buf.String(), "timeouts survived") {
		t.Error("init output malformed")
	}
}

func TestQCMReport(t *testing.T) {
	env := testEnv(t)
	rep := QCM(env, []int{1, 8})
	if rep.Terms == 0 {
		t.Fatal("no lookup terms")
	}
	if rep.HitRatio <= 0 || rep.HitRatio > 1 {
		t.Errorf("hit ratio = %v", rep.HitRatio)
	}
	if rep.FilterEliminated <= 0 || rep.FilterEliminated >= 1 {
		t.Errorf("filter eliminated = %v, want a real fraction", rep.FilterEliminated)
	}
	if rep.TreeLookupNs <= 0 || rep.TotalNs <= 0 || rep.BinIndexNs <= 0 {
		t.Error("latencies not measured")
	}
	var buf bytes.Buffer
	PrintQCM(&buf, rep)
	if !strings.Contains(buf.String(), "suffix-tree lookup") || !strings.Contains(buf.String(), "trigram index") {
		t.Error("QCM output malformed")
	}
}

func TestHitRatioSweepMonotone(t *testing.T) {
	env := testEnv(t)
	pts, err := HitRatioSweep(context.Background(), env, []int{1, 50, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// More capacity can only help (weakly monotone).
	for i := 1; i < len(pts); i++ {
		if pts[i].HitRatio+1e-9 < pts[i-1].HitRatio {
			t.Errorf("hit ratio decreased with capacity: %+v", pts)
		}
	}
	var buf bytes.Buffer
	PrintHitRatio(&buf, pts)
	if !strings.Contains(buf.String(), "hit ratio") {
		t.Error("output malformed")
	}
}

func TestQSMReport(t *testing.T) {
	env := testEnv(t)
	rep, err := QSM(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 {
		t.Fatal("no QSM queries measured")
	}
	var buf bytes.Buffer
	PrintQSM(&buf, rep)
	if !strings.Contains(buf.String(), "Suggest") {
		t.Error("QSM output malformed")
	}
}

func TestSimilarityAblation(t *testing.T) {
	env := testEnv(t)
	rows := SimilarityAblation(env)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Name] = r.Value
	}
	// The paper's claim: Jaro-Winkler outperforms the alternatives in
	// this context.
	if byName["jarowinkler"] < byName["jaccard"] {
		t.Errorf("JW %.1f%% should beat Jaccard %.1f%%", byName["jarowinkler"], byName["jaccard"])
	}
	if byName["jarowinkler"] == 0 {
		t.Error("JW repaired nothing; ablation broken")
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "similarity measures", rows)
	if !strings.Contains(buf.String(), "jarowinkler") {
		t.Error("ablation output malformed")
	}
}

func TestSteinerWeightAblation(t *testing.T) {
	env := testEnv(t)
	rows := SteinerWeightAblation(context.Background(), env)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Value == 0 {
			t.Errorf("%s failed to connect", r.Name)
		}
	}
	// The paper's motivation for w_q < w_default: the resulting tree
	// prefers the user's own predicates. The weighted tree must reuse
	// them at least as much as the unweighted one.
	if rows[0].Extra < rows[1].Extra {
		t.Errorf("weighted tree reuses %.0f%% query predicates, unweighted %.0f%%",
			100*rows[0].Extra, 100*rows[1].Extra)
	}
	if rows[0].Extra == 0 {
		t.Error("weighted tree uses no query predicates at all")
	}
}

func TestIndexAblation(t *testing.T) {
	env := testEnv(t)
	rows := IndexAblation(env)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	tree, prefix := rows[0], rows[1]
	if tree.Value < prefix.Value {
		t.Errorf("suffix tree hit rate %.0f%% below prefix index %.0f%% — substring search must win",
			tree.Value, prefix.Value)
	}
	if tree.Value == 0 {
		t.Error("tree found nothing")
	}
}

func TestResidualIndexAblation(t *testing.T) {
	env := testEnv(t)
	rows := ResidualIndexAblation(env)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	index, scan := rows[0], rows[1]
	if index.Value <= 0 || scan.Value <= 0 {
		t.Errorf("latencies not measured: index %.0f ns, scan %.0f ns", index.Value, scan.Value)
	}
	if index.Extra <= 0 {
		t.Error("index size not reported")
	}
}

func TestBinFilterAblation(t *testing.T) {
	env := testEnv(t)
	rows := BinFilterAblation(env)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	windowed, full := rows[0], rows[1]
	if windowed.Value >= full.Value {
		t.Errorf("γ window scans %.0f literals, full scan %.0f — filter must reduce work",
			windowed.Value, full.Value)
	}
}
