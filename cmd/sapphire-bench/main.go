// Command sapphire-bench regenerates the paper's tables and figures on
// the synthetic substrate (README.md's package table lists the
// evaluation suite behind each experiment):
//
//	sapphire-bench -exp all          # everything
//	sapphire-bench -exp table1       # Table 1 comparison
//	sapphire-bench -exp fig8         # user-study success rates
//	sapphire-bench -exp init         # Section 5 initialization stats
//	sapphire-bench -exp qcm          # Section 7.3.1 completion latency
//	sapphire-bench -exp qsm          # Section 7.3.2 suggestion latency
//	sapphire-bench -exp hitratio     # tree-capacity sweep
//	sapphire-bench -exp ablation     # design-choice ablations
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"sapphire/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: table1 | fig8 | fig9 | fig10 | fig11 | usage | init | qcm | qsm | hitratio | ablation | all")
		scale = flag.String("scale", "full", "dataset scale: small | full")
	)
	flag.Parse()

	sc := experiments.Full
	if *scale == "small" {
		sc = experiments.Small
	}
	ctx := context.Background()
	start := time.Now()
	env, err := experiments.Setup(ctx, sc)
	if err != nil {
		log.Fatalf("setup: %v", err)
	}
	fmt.Printf("# dataset: %d triples; cache: %d predicates, %d literals; setup %v\n\n",
		env.Dataset.Store.Len(), env.Cache.Stats.PredicateCount,
		env.Cache.Stats.LiteralCount, time.Since(start).Round(time.Millisecond))

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		rows, err := experiments.Table1(ctx, env)
		if err != nil {
			log.Fatalf("table1: %v", err)
		}
		experiments.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if want("fig8") || want("fig9") || want("fig10") || want("fig11") || want("usage") {
		ran = true
		res, err := experiments.Study(ctx, env)
		if err != nil {
			log.Fatalf("study: %v", err)
		}
		for _, fig := range []string{"fig8", "fig9", "fig10", "fig11"} {
			if want(fig) {
				experiments.PrintFigure(os.Stdout, res, fig)
				fmt.Println()
			}
		}
		if want("usage") {
			experiments.PrintUsage(os.Stdout, res)
			fmt.Println()
		}
	}
	if want("init") {
		ran = true
		rep, err := experiments.InitWithTimeouts(ctx, sc)
		if err != nil {
			log.Fatalf("init: %v", err)
		}
		experiments.PrintInit(os.Stdout, rep)
		fmt.Println()
	}
	if want("qcm") {
		ran = true
		rep := experiments.QCM(env, []int{1, 2, 4, 8})
		experiments.PrintQCM(os.Stdout, rep)
		fmt.Println()
		replicas := 40
		if sc == experiments.Small {
			replicas = 10
		}
		sweep := experiments.ParallelScan(env, []int{1, 2, 4, 8}, replicas)
		experiments.PrintParallelScan(os.Stdout, sweep, env.Cache.Stats.LiteralCount*replicas)
		fmt.Println()
	}
	if want("hitratio") {
		ran = true
		pts, err := experiments.HitRatioSweep(ctx, env, []int{1, 10, 100, 1000, 2000})
		if err != nil {
			log.Fatalf("hitratio: %v", err)
		}
		experiments.PrintHitRatio(os.Stdout, pts)
		fmt.Println()
	}
	if want("qsm") {
		ran = true
		rep, err := experiments.QSM(ctx, env)
		if err != nil {
			log.Fatalf("qsm: %v", err)
		}
		experiments.PrintQSM(os.Stdout, rep)
		fmt.Println()
	}
	if want("ablation") {
		ran = true
		experiments.PrintAblation(os.Stdout,
			"Ablation: similarity measure for QSM literal repair (% repaired at rank 1)",
			experiments.SimilarityAblation(env))
		fmt.Println()
		experiments.PrintAblation(os.Stdout,
			"Ablation: Steiner edge weighting (expansion queries; see notes)",
			experiments.SteinerWeightAblation(ctx, env))
		fmt.Println()
		experiments.PrintAblation(os.Stdout,
			"Ablation: QCM index structure (hit-%; Extra = ms/lookup)",
			experiments.IndexAblation(env))
		fmt.Println()
		experiments.PrintAblation(os.Stdout,
			"Ablation: residual lookup, trigram posting index vs Algorithm 1 scan (ns/lookup)",
			experiments.ResidualIndexAblation(env))
		fmt.Println()
		experiments.PrintAblation(os.Stdout,
			"Ablation: residual-bin γ length window (literals scanned per lookup)",
			experiments.BinFilterAblation(env))
		fmt.Println()
	}
	if !ran {
		log.Fatalf("unknown experiment %q; see -h", *exp)
	}
}
