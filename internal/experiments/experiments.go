// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7) on the synthetic substrate. It is shared by the
// cmd/sapphire-bench binary (`-exp table1`, `fig8`, `init`, `qcm`, ...;
// `-exp all` runs every one) and the root-level testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"sapphire/internal/baselines"
	"sapphire/internal/bins"
	"sapphire/internal/bootstrap"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/operator"
	"sapphire/internal/pum"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/similarity"
	"sapphire/internal/sparql"
	"sapphire/internal/steiner"
	"sapphire/internal/userstudy"
)

// Env bundles everything an experiment needs.
type Env struct {
	Dataset  *datagen.Dataset
	Endpoint *endpoint.Local
	Cache    *bootstrap.Cache
	Fed      *federation.Federation
	PUM      *pum.PUM
	Operator *operator.Operator
}

// Scale selects the dataset size.
type Scale int

const (
	// Small is the unit-test scale (fast).
	Small Scale = iota
	// Full is the benchmark scale (~25k triples).
	Full
)

// Setup generates the dataset, runs initialization, and wires the stack.
func Setup(ctx context.Context, scale Scale) (*Env, error) {
	cfg := datagen.SmallConfig()
	if scale == Full {
		cfg = datagen.DefaultConfig()
	}
	d := datagen.Generate(cfg)
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	cache, err := bootstrap.Initialize(ctx, ep, bootstrap.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fed := federation.New(ep)
	p := pum.New(cache, fed, nil, pum.DefaultConfig())
	return &Env{
		Dataset:  d,
		Endpoint: ep,
		Cache:    cache,
		Fed:      fed,
		PUM:      p,
		Operator: operator.New(p),
	}, nil
}

// --- Table 1 -----------------------------------------------------------

// PaperRow is a Table 1 row copied from the paper, printed alongside our
// measurements for comparison (systems we could not run are reference
// rows only, exactly as the paper copied QALD-5 participants' numbers).
type PaperRow struct {
	System                         string
	Pro                            int
	Right, Partial                 int
	R, RStar, P, PStar, F1, F1Star float64
	Reproduced                     bool
}

// PaperTable1 is the published Table 1.
func PaperTable1() []PaperRow {
	return []PaperRow{
		{"Xser", 42, 26, 7, 0.52, 0.66, 0.62, 0.79, 0.57, 0.72, false},
		{"APEQ", 26, 8, 5, 0.16, 0.26, 0.31, 0.50, 0.21, 0.34, false},
		{"QAnswer", 37, 9, 4, 0.18, 0.26, 0.24, 0.35, 0.21, 0.30, false},
		{"SemGraphQA", 31, 7, 3, 0.14, 0.20, 0.23, 0.32, 0.17, 0.25, false},
		{"YodaQA", 33, 8, 2, 0.16, 0.20, 0.24, 0.30, 0.19, 0.24, false},
		{"QAKiS", 40, 14, 9, 0.28, 0.46, 0.35, 0.58, 0.31, 0.51, true},
		{"KBQA", 8, 8, 0, 0.16, 0.16, 1.0, 1.0, 0.28, 0.28, true},
		{"S4", 26, 16, 5, 0.32, 0.42, 0.62, 0.81, 0.42, 0.55, true},
		{"SPARQLByE", 7, 4, 0, 0.08, 0.08, 0.57, 0.57, 0.14, 0.14, true},
		{"Sapphire", 43, 43, 0, 0.86, 0.86, 1.0, 1.0, 0.92, 0.92, true},
	}
}

// Table1 runs the Sapphire operator and the four reimplemented baselines
// over the 50-question suite.
func Table1(ctx context.Context, env *Env) ([]qald.Row, error) {
	questions := qald.Questions()
	systems := []qald.System{
		baselines.NewQAKiS(env.Dataset.Store),
		baselines.NewKBQA(env.Dataset.Store),
		baselines.NewS4(env.Dataset.Store),
		baselines.NewSPARQLByE(env.Dataset.Store),
		env.Operator,
	}
	var rows []qald.Row
	for _, sys := range systems {
		row, err := qald.Evaluate(ctx, sys, questions, env.Dataset.Store)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable1 renders measured rows next to the paper's.
func PrintTable1(w io.Writer, rows []qald.Row) {
	fmt.Fprintln(w, "Table 1: QALD-5-style comparison (measured on synthetic DBpedia)")
	fmt.Fprintf(w, "%-11s %5s %5s %4s %5s %6s %6s %6s %6s %6s %6s\n",
		"system", "#pro", "%", "#ri", "#par", "R", "R*", "P", "P*", "F1", "F1*")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %5d %4.0f%% %4d %5d %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			r.System, r.Processed, r.ProcessedPct(), r.Right, r.Partial,
			r.Recall(), r.PartialRecall(), r.Precision(), r.PartialPrecision(), r.F1(), r.F1Star())
	}
	fmt.Fprintln(w, "\nPaper-reported Table 1 (reference):")
	for _, r := range PaperTable1() {
		tag := " "
		if !r.Reproduced {
			tag = "†" // not runnable: closed-source / QALD-5 participant
		}
		fmt.Fprintf(w, "%-11s%s %4d %9d %5d %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			r.System, tag, r.Pro, r.Right, r.Partial, r.R, r.RStar, r.P, r.PStar, r.F1, r.F1Star)
	}
	fmt.Fprintln(w, "† reference-only row (system not publicly runnable; numbers from the paper)")
}

// --- Figures 8–11 ------------------------------------------------------

// Study runs the simulated user study.
func Study(ctx context.Context, env *Env) (*userstudy.Result, error) {
	return userstudy.Run(ctx, env.PUM, env.Dataset.Store, userstudy.DefaultConfig())
}

// PrintFigure renders one of the four study figures.
func PrintFigure(w io.Writer, res *userstudy.Result, fig string) {
	type cell func(*userstudy.CategoryStats) float64
	var title, unit string
	var f cell
	switch fig {
	case "fig8":
		title, unit, f = "Figure 8: success rate of answering questions", "%", (*userstudy.CategoryStats).SuccessRate
	case "fig9":
		title, unit, f = "Figure 9: questions answered by at least one participant", "%", (*userstudy.CategoryStats).CoveragePct
	case "fig10":
		title, unit, f = "Figure 10: average attempts before finding an answer", "", (*userstudy.CategoryStats).AvgAttempts
	case "fig11":
		title, unit, f = "Figure 11: average time spent on answered questions", "min", (*userstudy.CategoryStats).AvgMinutes
	default:
		fmt.Fprintf(w, "unknown figure %q\n", fig)
		return
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-10s %12s %12s\n", "difficulty", "QAKiS", "Sapphire")
	for _, d := range []qald.Difficulty{qald.Easy, qald.Medium, qald.Difficult} {
		q := f(res.Stats["QAKiS"][d])
		s := f(res.Stats["Sapphire"][d])
		fmt.Fprintf(w, "%-10s %10.1f%-2s %10.1f%-2s\n", d, q, unit, s, unit)
	}
	if fig == "fig8" {
		fmt.Fprintln(w, "(95% CI half-widths:)")
		for _, d := range []qald.Difficulty{qald.Easy, qald.Medium, qald.Difficult} {
			fmt.Fprintf(w, "%-10s %10.1f%%  %10.1f%%\n", d,
				res.Stats["QAKiS"][d].ConfidenceInterval95(),
				res.Stats["Sapphire"][d].ConfidenceInterval95())
		}
	}
}

// PrintUsage renders the Section 7.3.2 QSM usage statistics.
func PrintUsage(w io.Writer, res *userstudy.Result) {
	u := res.Usage
	fmt.Fprintln(w, "QSM usage during the user study (paper: >90% any, 28% predicates, 17% literals, 67% relaxation):")
	fmt.Fprintf(w, "  any suggestion:        %5.1f%%\n", userstudy.Pct(u.UsedSuggestion, u.Questions))
	fmt.Fprintf(w, "  alternative predicate: %5.1f%%\n", userstudy.Pct(u.AltPredicate, u.Questions))
	fmt.Fprintf(w, "  alternative literal:   %5.1f%%\n", userstudy.Pct(u.AltLiteral, u.Questions))
	fmt.Fprintf(w, "  relaxed structure:     %5.1f%%\n", userstudy.Pct(u.Relaxation, u.Questions))
}

// --- Section 5: initialization ----------------------------------------

// InitReport holds the end-of-Section-5 statistics for one
// initialization run.
type InitReport struct {
	Stats         bootstrap.Stats
	EndpointStats endpoint.Stats
}

// InitWithTimeouts reruns initialization against a constrained endpoint
// so the timeout/descent machinery is visible in the stats, like the
// DBpedia run the paper describes (3800 queries, ~200 timeouts).
func InitWithTimeouts(ctx context.Context, scale Scale) (*InitReport, error) {
	cfg := datagen.SmallConfig()
	maxRows := 220
	if scale == Full {
		cfg = datagen.DefaultConfig()
		maxRows = 4000
	}
	d := datagen.Generate(cfg)
	ep := endpoint.NewLocal("constrained-dbpedia", d.Store, endpoint.Limits{MaxIntermediateRows: maxRows})
	cache, err := bootstrap.Initialize(ctx, ep, bootstrap.DefaultConfig())
	if err != nil {
		return nil, err
	}
	return &InitReport{Stats: cache.Stats, EndpointStats: ep.Stats()}, nil
}

// PrintInit renders the initialization report.
func PrintInit(w io.Writer, r *InitReport) {
	s := r.Stats
	fmt.Fprintln(w, "Initialization statistics (Section 5; paper DBpedia run: ~800 literal queries,")
	fmt.Fprintln(w, "~3000 significance queries, ~200 timeouts, 43K tree strings, 21M residual literals, 80 bins):")
	fmt.Fprintf(w, "  queries issued:        %d (literal %d, significance %d)\n",
		s.QueriesIssued, s.LiteralQueries, s.SignificanceQueries)
	fmt.Fprintf(w, "  timeouts survived:     %d\n", s.Timeouts)
	fmt.Fprintf(w, "  predicates cached:     %d\n", s.PredicateCount)
	fmt.Fprintf(w, "  literals cached:       %d (significant %d, residual %d in %d bins)\n",
		s.LiteralCount, s.SignificantCount, s.ResidualCount, s.BinCount)
	fmt.Fprintf(w, "  suffix array:          %d entries, %d KiB\n", s.TreeNodes, s.TreeBytes/1024)
	fmt.Fprintf(w, "  used RDFS hierarchy:   %v\n", s.UsedHierarchy)
	fmt.Fprintf(w, "  wall time:             %v\n", s.Duration.Round(time.Millisecond))
}

// --- Section 7.3.1: QCM response time ----------------------------------

// QCMReport measures the two components of completion latency.
type QCMReport struct {
	// TreeLookupNs is the mean suffix-tree lookup latency.
	TreeLookupNs float64
	// BinScanNsByWorkers maps worker count → mean latency of the paper's
	// Algorithm 1 residual scan.
	BinScanNsByWorkers map[int]float64
	// BinIndexNs is the mean latency of the residual lookup Complete
	// makes, through the bins' trigram index.
	BinIndexNs float64
	// TotalNs is the mean end-to-end Complete latency at the default
	// worker count.
	TotalNs float64
	// HitRatio is the fraction of lookup terms with a suffix-tree match.
	HitRatio float64
	// FilterEliminated is the mean fraction of residual literals
	// excluded by the γ length window (paper: ~46%).
	FilterEliminated float64
	// Terms is the number of lookup terms measured.
	Terms int
}

// qcmTerms derives lookup strings from the study questions: prefixes of
// the keywords users type, as the QCM sees them keystroke by keystroke.
func qcmTerms() []string {
	var out []string
	for _, q := range qald.Questions() {
		for _, tr := range q.Plan.Triples {
			for _, n := range []qald.Node{tr.P, tr.O} {
				if n.Keyword == "" {
					continue
				}
				kw := n.Keyword
				for _, cut := range []int{4, 7, len(kw)} {
					if cut <= len(kw) {
						out = append(out, kw[:cut])
					}
				}
			}
		}
	}
	sort.Strings(out)
	return dedupe(out)
}

func dedupe(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// QCM measures completion latency components.
func QCM(env *Env, workerCounts []int) *QCMReport {
	terms := qcmTerms()
	rep := &QCMReport{BinScanNsByWorkers: make(map[int]float64), Terms: len(terms)}

	start := time.Now()
	hits := 0
	for _, t := range terms {
		if len(env.PUM.CompleteTreeOnly(t)) > 0 {
			hits++
		}
	}
	rep.TreeLookupNs = float64(time.Since(start).Nanoseconds()) / float64(len(terms))
	rep.HitRatio = float64(hits) / float64(len(terms))

	cfg := env.PUM.Config()
	for _, wc := range workerCounts {
		start = time.Now()
		for _, t := range terms {
			lo := len([]rune(t))
			env.Cache.Bins.ScanSubstring(t, lo, lo+cfg.Gamma, wc, cfg.K)
		}
		rep.BinScanNsByWorkers[wc] = float64(time.Since(start).Nanoseconds()) / float64(len(terms))
	}

	start = time.Now()
	for _, t := range terms {
		env.PUM.CompleteBinsOnly(t, cfg.Workers)
	}
	rep.BinIndexNs = float64(time.Since(start).Nanoseconds()) / float64(len(terms))

	start = time.Now()
	for _, t := range terms {
		env.PUM.Complete(t)
	}
	rep.TotalNs = float64(time.Since(start).Nanoseconds()) / float64(len(terms))

	// Mean fraction of residual literals the γ window eliminates.
	total := env.Cache.Bins.Len()
	if total > 0 {
		sum := 0.0
		for _, t := range terms {
			sel := env.Cache.Bins.SelectedCount(len([]rune(t)), len([]rune(t))+cfg.Gamma)
			sum += 1 - float64(sel)/float64(total)
		}
		rep.FilterEliminated = sum / float64(len(terms))
	}
	return rep
}

// PrintQCM renders the QCM latency report.
func PrintQCM(w io.Writer, r *QCMReport) {
	fmt.Fprintln(w, "QCM response time (Section 7.3.1; paper: 0.25 ms tree lookup, 0.6 s → 0.16 s")
	fmt.Fprintln(w, "bin scan from 1 to 8 cores, 50% hit ratio, 46% of literals filtered by length):")
	fmt.Fprintf(w, "  lookup terms:            %d\n", r.Terms)
	fmt.Fprintf(w, "  suffix-tree lookup:      %.3f ms (hit ratio %.0f%%)\n", r.TreeLookupNs/1e6, 100*r.HitRatio)
	var workers []int
	for wc := range r.BinScanNsByWorkers {
		workers = append(workers, wc)
	}
	sort.Ints(workers)
	for _, wc := range workers {
		fmt.Fprintf(w, "  residual scan, %d worker(s): %.3f ms\n", wc, r.BinScanNsByWorkers[wc]/1e6)
	}
	fmt.Fprintf(w, "  residual trigram index:  %.1f µs (what Complete uses for terms of >= 3 bytes)\n", r.BinIndexNs/1e3)
	fmt.Fprintf(w, "  total Complete():        %.3f ms\n", r.TotalNs/1e6)
	fmt.Fprintf(w, "  length filter eliminates %.0f%% of residual literals on average\n", 100*r.FilterEliminated)
}

// ParallelScan measures the residual-bin scan speedup across worker
// counts on an enlarged bin set. The paper demonstrates the effect at 21M
// DBpedia literals (0.6 s at 1 core → 0.16 s at 8); our cache holds a few
// thousand, so the literals are replicated with distinct suffixes until
// the scan is compute-bound and the Algorithm 1 load balancing is
// visible. Returned map: workers → mean scan latency (ns) for the QSM's
// Jaro-Winkler similarity search, the heavier of the two bin scans.
func ParallelScan(env *Env, workerCounts []int, replicas int) map[int]float64 {
	var lits []string
	for _, lex := range env.Cache.Literals() {
		for i := 0; i < replicas; i++ {
			lits = append(lits, fmt.Sprintf("%s (%d)", lex, i))
		}
	}
	big := bins.New(lits, nil)
	targets := []string{"Ted Kennedys", "Jack Kerouak", "Viking Pres", "Australa"}
	out := make(map[int]float64, len(workerCounts))
	for _, wc := range workerCounts {
		start := time.Now()
		for _, t := range targets {
			n := len([]rune(t))
			big.SearchSimilar(t, n-2, n+8, wc, 0.7, nil)
		}
		out[wc] = float64(time.Since(start).Nanoseconds()) / float64(len(targets))
	}
	return out
}

// PrintParallelScan renders the sweep.
func PrintParallelScan(w io.Writer, sweep map[int]float64, nLiterals int) {
	fmt.Fprintf(w, "Residual-bin similarity scan vs workers (%d literals; paper shape: monotone speedup):\n", nLiterals)
	var workers []int
	for wc := range sweep {
		workers = append(workers, wc)
	}
	sort.Ints(workers)
	base := sweep[workers[0]]
	for _, wc := range workers {
		fmt.Fprintf(w, "  %2d worker(s): %8.2f ms  (%.1fx)\n", wc, sweep[wc]/1e6, base/sweep[wc])
	}
}

// HitRatioPoint is one sweep point of the hit-ratio experiment.
type HitRatioPoint struct {
	TreeCapacity int
	HitRatio     float64
}

// HitRatioSweep rebuilds the cache at increasing suffix-tree capacities
// and measures the hit ratio, reproducing the "even 40K literals give
// 50%" observation.
func HitRatioSweep(ctx context.Context, env *Env, capacities []int) ([]HitRatioPoint, error) {
	terms := qcmTerms()
	var out []HitRatioPoint
	for _, capacity := range capacities {
		cfg := bootstrap.DefaultConfig()
		cfg.SuffixTreeCapacity = capacity
		cache, err := bootstrap.Initialize(ctx, env.Endpoint, cfg)
		if err != nil {
			return nil, err
		}
		p := pum.New(cache, env.Fed, nil, pum.DefaultConfig())
		hits := 0
		for _, t := range terms {
			if len(p.CompleteTreeOnly(t)) > 0 {
				hits++
			}
		}
		out = append(out, HitRatioPoint{capacity, float64(hits) / float64(len(terms))})
	}
	return out, nil
}

// PrintHitRatio renders the sweep.
func PrintHitRatio(w io.Writer, pts []HitRatioPoint) {
	fmt.Fprintln(w, "QCM hit ratio vs suffix-tree capacity (Section 7.3.1):")
	for _, p := range pts {
		fmt.Fprintf(w, "  capacity %6d → hit ratio %.0f%%\n", p.TreeCapacity, 100*p.HitRatio)
	}
}

// --- Section 7.3.2: QSM latency ----------------------------------------

// QSMReport measures suggestion latency over the study queries.
type QSMReport struct {
	Queries      int
	MeanMs       float64
	MaxMs        float64
	MeanRelaxMs  float64
	RelaxQueries int
}

// QSM measures Suggest latency over the misspelled variants of the study
// queries (the realistic QSM workload: zero-answer queries).
func QSM(ctx context.Context, env *Env) (*QSMReport, error) {
	rep := &QSMReport{}
	for _, q := range qald.UserStudyQuestions() {
		query, err := env.Operator.BuildQuery(q.Plan)
		if err != nil {
			continue
		}
		start := time.Now()
		if _, err := env.PUM.Suggest(ctx, query); err != nil {
			return nil, err
		}
		ms := float64(time.Since(start).Microseconds()) / 1000
		rep.Queries++
		rep.MeanMs += ms
		if ms > rep.MaxMs {
			rep.MaxMs = ms
		}
	}
	if rep.Queries > 0 {
		rep.MeanMs /= float64(rep.Queries)
	}
	// Relaxation-only latency on the Figure 6 query shape.
	relaxQ := sparql.MustParse(`SELECT ?book WHERE {
		?book <http://dbpedia.org/ontology/writer> "Jack Kerouac"@en .
		?book <http://dbpedia.org/ontology/publisher> "Viking Press"@en .
	}`)
	start := time.Now()
	if _, err := env.PUM.Suggest(ctx, relaxQ); err != nil {
		return nil, err
	}
	rep.MeanRelaxMs = float64(time.Since(start).Microseconds()) / 1000
	rep.RelaxQueries = 1
	return rep, nil
}

// PrintQSM renders the QSM latency report.
func PrintQSM(w io.Writer, r *QSMReport) {
	fmt.Fprintln(w, "QSM latency (Section 7.3.2; paper: ~10 s mean at DBpedia scale —")
	fmt.Fprintln(w, "our substrate is in-process, so absolute numbers are smaller; shape: QSM ≫ QCM):")
	fmt.Fprintf(w, "  queries measured:   %d\n", r.Queries)
	fmt.Fprintf(w, "  mean Suggest():     %.1f ms\n", r.MeanMs)
	fmt.Fprintf(w, "  max Suggest():      %.1f ms\n", r.MaxMs)
	fmt.Fprintf(w, "  relaxation (Fig 6): %.1f ms\n", r.MeanRelaxMs)
}

// --- Ablations ----------------------------------------------------------

// AblationRow scores one design alternative.
type AblationRow struct {
	Name  string
	Value float64
	// Extra carries a secondary metric (e.g. the fraction of tree edges
	// reusing query predicates in the Steiner ablation).
	Extra float64
	Note  string
}

// SimilarityAblation compares Jaro-Winkler against Levenshtein and
// Jaccard on the QSM's literal-repair task: the fraction of misspelled
// study literals whose correct form ranks first among alternatives.
func SimilarityAblation(env *Env) []AblationRow {
	type miss struct{ typed, want string }
	var cases []miss
	for _, q := range qald.UserStudyQuestions() {
		for _, tr := range q.Plan.Triples {
			if tr.O.IsLiteral && tr.O.Keyword != "" {
				cases = append(cases, miss{tr.O.Keyword + "s", tr.O.Keyword}) // plural typo
			}
		}
	}
	var out []AblationRow
	for _, name := range []string{"jarowinkler", "levenshtein", "jaccard"} {
		m := similarity.ByName(name)
		recovered := 0
		for _, c := range cases {
			lo := len([]rune(c.typed)) - 2
			hi := len([]rune(c.typed)) + 3
			// Both tiers, as the QSM does.
			matches := env.Cache.Bins.SearchSimilar(c.typed, lo, hi, 4, 0.7, m)
			if len(matches) > 0 && matches[0].Literal == c.want {
				recovered++
			}
		}
		out = append(out, AblationRow{
			Name:  name,
			Value: 100 * float64(recovered) / float64(max(1, len(cases))),
			Note:  fmt.Sprintf("%d/%d misspelled literals repaired at rank 1", recovered, len(cases)),
		})
	}
	return out
}

// SteinerWeightAblation compares weighted (w_q < w_default) against
// unweighted expansion on the Figure 6 relaxation: queries used and
// whether the tree reuses the query's predicates.
func SteinerWeightAblation(ctx context.Context, env *Env) []AblationRow {
	groups := [][]rdf.Term{
		{rdf.NewLangLiteral("Jack Kerouac", "en")},
		{rdf.NewLangLiteral("Viking Press", "en")},
	}
	preferred := map[string]bool{
		rdf.NSDBO + "author":    true,
		rdf.NSDBO + "publisher": true,
	}
	mk := func(weighted bool) AblationRow {
		cfg := steiner.DefaultConfig()
		name := "weighted (w_q < w_default)"
		if !weighted {
			cfg.WQuery = cfg.WDefault
			name = "unweighted (w_q = w_default)"
		}
		res, err := steiner.Connect(ctx, env.Dataset.Store, groups, preferred, cfg)
		if err != nil || !res.Connected {
			return AblationRow{Name: name, Value: 0, Note: "failed to connect"}
		}
		matched := 0
		for _, tr := range res.Tree {
			if preferred[tr.P.Value] {
				matched++
			}
		}
		frac := 0.0
		if len(res.Tree) > 0 {
			frac = float64(matched) / float64(len(res.Tree))
		}
		return AblationRow{
			Name:  name,
			Value: float64(res.QueriesUsed),
			Extra: frac,
			Note: fmt.Sprintf("expansion queries; %d/%d tree edges use query predicates",
				matched, len(res.Tree)),
		}
	}
	return []AblationRow{mk(true), mk(false)}
}

// PrintAblation renders ablation rows.
func PrintAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintln(w, title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-28s %8.1f  (%s)\n", r.Name, r.Value, r.Note)
	}
}
