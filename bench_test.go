// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark mirrors one `cmd/sapphire-bench -exp …`
// experiment (README.md's evaluation-suite row names the packages);
// `go test -bench=. -benchmem` reproduces the full suite and reports the
// measured quantities via b.ReportMetric.
package sapphire

import (
	"context"
	"sync"
	"testing"

	"sapphire/internal/experiments"
	"sapphire/internal/qald"
	"sapphire/internal/similarity"
	"sapphire/internal/sparql"
	"sapphire/internal/steiner"
	"sapphire/internal/userstudy"

	"sapphire/internal/rdf"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.Setup(context.Background(), experiments.Full)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// --- Table 1 ------------------------------------------------------------

// BenchmarkTable1QALD regenerates the full system comparison. Reported
// metrics: Sapphire's recall and precision (paper: 0.86 / 1.0 at DBpedia
// scale; 1.0 / 1.0 on the synthetic substrate).
func BenchmarkTable1QALD(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	var rows []qald.Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(ctx, e)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.System == "Sapphire" {
			b.ReportMetric(r.Recall(), "sapphire-R")
			b.ReportMetric(r.Precision(), "sapphire-P")
		}
		if r.System == "S4" {
			b.ReportMetric(r.F1(), "s4-F1")
		}
	}
}

// --- Figures 8–11 -------------------------------------------------------

func studyFigure(b *testing.B, metric func(*userstudy.Result) (float64, string)) {
	e := env(b)
	ctx := context.Background()
	var res *userstudy.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Study(ctx, e)
		if err != nil {
			b.Fatal(err)
		}
	}
	v, name := metric(res)
	b.ReportMetric(v, name)
}

// BenchmarkFigure8SuccessRate reports Sapphire's medium-difficulty
// success rate (paper: >80% vs ~50% for QAKiS).
func BenchmarkFigure8SuccessRate(b *testing.B) {
	studyFigure(b, func(r *userstudy.Result) (float64, string) {
		return r.Stats["Sapphire"][qald.Medium].SuccessRate(), "sapphire-medium-%"
	})
}

// BenchmarkFigure9Coverage reports Sapphire's difficult-question
// coverage (paper: 100%).
func BenchmarkFigure9Coverage(b *testing.B) {
	studyFigure(b, func(r *userstudy.Result) (float64, string) {
		return r.Stats["Sapphire"][qald.Difficult].CoveragePct(), "sapphire-difficult-%"
	})
}

// BenchmarkFigure10Attempts reports Sapphire's average attempts on
// difficult questions (paper: 3–5 before giving up, ~2 when answered).
func BenchmarkFigure10Attempts(b *testing.B) {
	studyFigure(b, func(r *userstudy.Result) (float64, string) {
		return r.Stats["Sapphire"][qald.Difficult].AvgAttempts(), "attempts"
	})
}

// BenchmarkFigure11Time reports the Sapphire-vs-QAKiS time ratio on
// medium questions (paper: Sapphire costs 2–4× more minutes).
func BenchmarkFigure11Time(b *testing.B) {
	studyFigure(b, func(r *userstudy.Result) (float64, string) {
		s := r.Stats["Sapphire"][qald.Medium].AvgMinutes()
		q := r.Stats["QAKiS"][qald.Medium].AvgMinutes()
		if q == 0 {
			return 0, "time-ratio"
		}
		return s / q, "time-ratio"
	})
}

// --- Section 5: initialization ------------------------------------------

// BenchmarkInitialization measures a full Section 5 run against a
// constrained endpoint, reporting queries issued and timeouts survived
// (paper: ~3800 queries, ~200 timeouts for DBpedia).
func BenchmarkInitialization(b *testing.B) {
	ctx := context.Background()
	var rep *experiments.InitReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.InitWithTimeouts(ctx, experiments.Full)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.Stats.QueriesIssued), "queries")
	b.ReportMetric(float64(rep.Stats.Timeouts), "timeouts")
	b.ReportMetric(float64(rep.Stats.LiteralCount), "literals")
}

// --- Section 7.3.1: QCM -------------------------------------------------

// BenchmarkQCMSuffixTree measures the suffix-tree lookup path alone
// (paper: ~0.25 ms per lookup, independent of indexed size).
func BenchmarkQCMSuffixTree(b *testing.B) {
	e := env(b)
	terms := []string{"Kenn", "Kerouac", "alma", "Austral", "press", "Spring"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PUM.CompleteTreeOnly(terms[i%len(terms)])
	}
}

func benchResidualScan(b *testing.B, workers int) {
	e := env(b)
	terms := []string{"Kenn", "Kerouac", "alma", "Austral", "press", "Spring"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PUM.CompleteBinsOnly(terms[i%len(terms)], workers)
	}
}

// BenchmarkQCMResidualScan1–8 measure the parallel residual-bin scan at
// increasing worker counts (paper: 0.6 s at 1 core → 0.16 s at 8 cores;
// the shape to verify is monotone speedup).
func BenchmarkQCMResidualScan1(b *testing.B) { benchResidualScan(b, 1) }
func BenchmarkQCMResidualScan2(b *testing.B) { benchResidualScan(b, 2) }
func BenchmarkQCMResidualScan4(b *testing.B) { benchResidualScan(b, 4) }
func BenchmarkQCMResidualScan8(b *testing.B) { benchResidualScan(b, 8) }

// BenchmarkQCMComplete measures the full Figure 5 path (tree + bins).
func BenchmarkQCMComplete(b *testing.B) {
	e := env(b)
	terms := []string{"Kenn", "Kerouac", "alma", "Austral", "press", "Spring"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PUM.Complete(terms[i%len(terms)])
	}
}

// BenchmarkQCMHitRatio reports the suffix-tree hit ratio and the length
// filter's elimination fraction (paper: 50% hits at 40K literals, ~46%
// of literals eliminated).
func BenchmarkQCMHitRatio(b *testing.B) {
	e := env(b)
	var rep *experiments.QCMReport
	for i := 0; i < b.N; i++ {
		rep = experiments.QCM(e, []int{8})
	}
	b.ReportMetric(100*rep.HitRatio, "hit-%")
	b.ReportMetric(100*rep.FilterEliminated, "filtered-%")
}

// --- Section 7.3.2: QSM --------------------------------------------------

// BenchmarkQSMSuggest measures end-to-end suggestion latency on a
// zero-answer query (paper: ~10 s at DBpedia scale over the network; the
// shape to verify is QSM ≫ QCM).
func BenchmarkQSMSuggest(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	q := sparql.MustParse(`SELECT ?p WHERE {
		?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en .
	}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PUM.Suggest(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQSMRelax measures the Steiner-tree relaxation alone on the
// Figure 6 query.
func BenchmarkQSMRelax(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	groups := [][]rdf.Term{
		{rdf.NewLangLiteral("Jack Kerouac", "en")},
		{rdf.NewLangLiteral("Viking Press", "en")},
	}
	preferred := map[string]bool{
		rdf.NSDBO + "author":    true,
		rdf.NSDBO + "publisher": true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := steiner.Connect(ctx, steiner.StoreSource{Store: e.Dataset.Store},
			groups, preferred, steiner.DefaultConfig())
		if err != nil || !res.Connected {
			b.Fatalf("relaxation failed: %v (%+v)", err, res)
		}
	}
}

// --- Ablations ------------------------------------------------------------

func benchSimilarityAblation(b *testing.B, name string) {
	e := env(b)
	m := similarity.ByName(name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Cache.Bins.SearchSimilar("Kennedys", 6, 11, 8, 0.7, m)
	}
}

// BenchmarkAblationJaroWinkler/Levenshtein/Jaccard measure the literal
// similarity search under each measure; the quality comparison (repair
// rate, where Jaro-Winkler wins) prints via cmd/sapphire-bench -exp
// ablation.
func BenchmarkAblationJaroWinkler(b *testing.B) { benchSimilarityAblation(b, "jarowinkler") }
func BenchmarkAblationLevenshtein(b *testing.B) { benchSimilarityAblation(b, "levenshtein") }
func BenchmarkAblationJaccard(b *testing.B)     { benchSimilarityAblation(b, "jaccard") }

// BenchmarkAblationSteinerWeights reports the query-predicate reuse of
// weighted vs unweighted Steiner expansion.
func BenchmarkAblationSteinerWeights(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SteinerWeightAblation(ctx, e)
	}
	b.ReportMetric(100*rows[0].Extra, "weighted-reuse-%")
	b.ReportMetric(100*rows[1].Extra, "unweighted-reuse-%")
}

// BenchmarkEndToEndOperator measures one full interactive session: build
// from keywords, execute, take suggestions until answered.
func BenchmarkEndToEndOperator(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	questions := qald.Questions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := questions[i%len(questions)]
		e.Operator.Attempt(ctx, q)
	}
}
