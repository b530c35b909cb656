# Sapphire build/test/bench entry points.
#
#   make test           - vet gate + full test suite, then the same for the
#                         nested benchmark/ module (root ./... does not
#                         descend into it, so removed API could break it unseen)
#   make race           - race-detector pass over the concurrency-sensitive packages
#   make fuzz           - short parser fuzz smoke (same job CI runs)
#   make fmt            - fail if any file is not gofmt-clean (same check CI runs)
#   make bench          - full benchmark sweep (3 runs, alloc stats) saved to
#                         BENCH_<yyyy-mm-dd>.txt for before/after comparisons
#   make bench-endpoint - cached-vs-uncached endpoint serving benchmarks saved
#                         to BENCH_ENDPOINT_<yyyy-mm-dd>.txt
#   make bench-ci       - pinned short benchmark config (the headline store /
#                         eval / endpoint benchmarks, 4 repeats) parsed into
#                         BENCH_pr.json — what the CI bench job runs
#   make bench-parallel - BenchmarkEvalParallel family at -cpu=1,8: the
#                         morsel-parallel evaluator against serial on the same
#                         query shapes (the -cpu=8 rows are the speedup claim;
#                         on a 1-core box they only measure coordination
#                         overhead), saved to BENCH_PARALLEL_<yyyy-mm-dd>.txt
#   make bench-gate     - compare BENCH_pr.json against bench_baseline.json,
#                         failing on >30% ns/op regression of any headline
#                         benchmark (sapphire-benchgate)
#   make bench-baseline - regenerate bench_baseline.json from a fresh pinned
#                         run (do this when the reference hardware changes)
#   make bench-serving  - full serving-load scenario (sapphire-loadgen,
#                         in-process world, default dataset): per-phase
#                         p50/p99/p999 + throughput, informational
#   make bench-serving-ci       - smoke scenario into BENCH_serving.json —
#                                 what the CI bench job runs
#   make bench-serving-gate     - SLO gate: BENCH_serving.json against
#                                 bench_serving_baseline.json (sapphire-benchgate
#                                 -slo; latency rows fail on increase, throughput
#                                 rows on decrease)
#   make bench-serving-baseline - regenerate bench_serving_baseline.json from a
#                                 fresh smoke run
#   make crashtest      - long crash-recovery fault-injection sweep (512 random
#                         offsets per fault mode on top of the strided sweep;
#                         CI runs a 64-seed smoke setting)
#   make loc            - non-test, non-testdata Go lines per package and in
#                         total, benchmark/ excluded (the count simplification
#                         PRs are judged by)
#   make vet            - stock go vet only
#   make lint           - sapphire-vet: stock go vet plus the repo's own
#                         contract analyzers (pinlock, atomicfield, errcode,
#                         pinnedbudget, unchecked — see docs/STATIC_ANALYSIS.md)

GO ?= go
BENCH_OUT := BENCH_$(shell date +%Y-%m-%d).txt
BENCH_ENDPOINT_OUT := BENCH_ENDPOINT_$(shell date +%Y-%m-%d).txt
BENCH_PARALLEL_OUT := BENCH_PARALLEL_$(shell date +%Y-%m-%d).txt

# The pinned CI benchmark config: headline benchmarks only, fixed
# benchtime and repeat count, fixed 1-CPU setting so runner core counts
# don't change what the numbers mean. BenchmarkMatchByPredicate and
# BenchmarkMatchSubjectsMerge expand to their single/sharded8
# sub-benchmarks (the sharded8 rows gate the cross-shard wildcard-merge
# regression surface); BenchmarkDictInternParallel expands to its
# dict1/dict2/dict8 shard counts. The persist rows gate the durability
# path: snapshot encode, WAL append under each fsync policy, and the
# snapshot-vs-reingest recovery ratio (BenchmarkRecovery1M). The
# streaming-evaluator rows gate the rank-label top-k ORDER BY
# (EvalOrderByLimit), in-pipeline FILTER early exit
# (EvalFilterPushdown), and greedy join ordering (EvalJoinOrder) against
# their materializing/naive counterpart sub-benchmarks. The
# EvalParallel rows run at the pinned -cpu=1, so they gate serial-path
# and coordination-overhead regressions of the morsel-parallel
# evaluator; the multicore speedup itself is measured by
# bench-parallel's -cpu=8 rows, which stay informational until the
# reference box grows cores.
BENCH_CI_PATTERN := ^(BenchmarkMatchByPredicate|BenchmarkMatchSubjectsMerge|BenchmarkDictInternParallel|BenchmarkEvalTwoHopJoin|BenchmarkEvalOrderByLimit|BenchmarkEvalFilterPushdown|BenchmarkEvalJoinOrder|BenchmarkEvalParallel|BenchmarkCachedQuery|BenchmarkBulkLoad|BenchmarkSnapshotSave|BenchmarkWALAppend|BenchmarkRecovery1M|BenchmarkDurableAdd)$$
BENCH_CI_PKGS := ./internal/store/ ./internal/sparql/ ./internal/endpoint/ ./internal/store/persist/
BENCH_CI_FLAGS := -run '^$$' -bench '$(BENCH_CI_PATTERN)' -benchtime=200ms -count=4 -cpu=1 -timeout=20m

# The serving-SLO threshold is looser than the ns/op gate: one-shot
# percentile measurements over a few hundred ops carry more run-to-run
# noise than best-of-4 microbenchmarks, and the gate only needs to catch
# step-change regressions (a 2x p99 is +100%, well past 75%).
SERVING_SLO_THRESHOLD := 0.75
# Latency rows also need an absolute regression beyond this many ns to
# fail: sub-millisecond phases (federation answers memoized from the
# pattern cache; qald's 50-op p99 is effectively a sample max) would
# otherwise trip the gate on hundreds-of-µs noise. Millisecond-scale
# step changes (a doubled p99) clear this floor comfortably.
SERVING_SLO_SLACK_NS := 500000

.PHONY: all test vet lint fmt loc race fuzz crashtest bench bench-endpoint bench-ci bench-gate bench-baseline build bench-serving bench-serving-ci bench-serving-gate bench-serving-baseline

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/sapphire-vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test: vet
	$(GO) test ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -not -path './benchmark/*' -not -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

race:
	$(GO) test -race ./internal/store/ ./internal/store/persist/ ./internal/sparql/ ./internal/endpoint/ ./internal/federation/

fuzz:
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzParse' -fuzztime=30s

crashtest:
	SAPPHIRE_CRASH_SEEDS=512 $(GO) test ./internal/store/persist/ -run 'TestCrashRecoveryProperty' -v -timeout=30m

bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=3 ./... | tee $(BENCH_OUT)

bench-endpoint:
	$(GO) test -run '^$$' -bench 'Query|Churn' -benchmem -count=3 ./internal/endpoint/ | tee $(BENCH_ENDPOINT_OUT)

bench-parallel:
	$(GO) test -run '^$$' -bench '^BenchmarkEvalParallel$$' -benchmem -count=3 -cpu=1,8 -timeout=30m ./internal/sparql/ | tee $(BENCH_PARALLEL_OUT)

bench-ci:
	$(GO) test $(BENCH_CI_FLAGS) $(BENCH_CI_PKGS) | tee BENCH_pr.txt
	$(GO) run ./cmd/sapphire-benchgate -parse BENCH_pr.txt -out BENCH_pr.json

bench-gate:
	$(GO) run ./cmd/sapphire-benchgate -baseline bench_baseline.json -current BENCH_pr.json -threshold 0.30

bench-baseline:
	$(GO) test $(BENCH_CI_FLAGS) $(BENCH_CI_PKGS) | tee BENCH_baseline.txt
	$(GO) run ./cmd/sapphire-benchgate -parse BENCH_baseline.txt -out bench_baseline.json

bench-serving:
	$(GO) run ./cmd/sapphire-loadgen -scenario serving -out BENCH_serving_full.json

bench-serving-ci:
	$(GO) run ./cmd/sapphire-loadgen -scenario smoke -repeat 3 -out BENCH_serving.json

bench-serving-gate:
	$(GO) run ./cmd/sapphire-benchgate -slo -baseline bench_serving_baseline.json -current BENCH_serving.json -threshold $(SERVING_SLO_THRESHOLD) -slack-ns $(SERVING_SLO_SLACK_NS)

bench-serving-baseline:
	$(GO) run ./cmd/sapphire-loadgen -scenario smoke -repeat 3 -out bench_serving_baseline.json
