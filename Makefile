# Sapphire build/test/bench entry points.
#
#   make test           - vet gate + full test suite, then the same for the
#                         nested benchmark/ module (root ./... does not
#                         descend into it, so removed API could break it unseen)
#   make race           - race-detector pass over the concurrency-sensitive packages
#   make fuzz           - short fuzz smokes of the SPARQL parser, the
#                         Jaro-Winkler kernel and the residual-bin trigram
#                         index (same jobs CI runs)
#   make fmt            - fail if any file is not gofmt-clean (same check CI runs)
#   make bench-ci       - pinned short benchmark config (the headline store /
#                         eval / endpoint benchmarks, 4 repeats) parsed into
#                         BENCH_pr.json — what the CI bench job runs
#   make bench-gate     - compare BENCH_pr.json against bench_baseline.json,
#                         failing on >30% ns/op regression of any headline
#                         benchmark (sapphire-benchgate)
#   make bench-baseline - regenerate bench_baseline.json from a fresh pinned
#                         run (do this when the reference hardware changes)
#   make crashtest      - long crash-recovery fault-injection sweep (512 random
#                         offsets per fault mode on top of the strided sweep;
#                         CI runs a 64-seed smoke setting)
#   make loc            - non-test, non-testdata Go lines per package and in
#                         total, benchmark/ excluded (the count simplification
#                         PRs are judged by)
#   make vet            - stock go vet only
#   make lint           - sapphire-vet: stock go vet plus the repo's own
#                         contract analyzers (pinlock, atomicfield, errcode,
#                         unchecked — see docs/STATIC_ANALYSIS.md)

GO ?= go

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
# their materializing/naive counterpart sub-benchmarks.
BENCH_CI_PATTERN := ^(BenchmarkMatchByPredicate|BenchmarkMatchSubjectsMerge|BenchmarkDictInternParallel|BenchmarkEvalTwoHopJoin|BenchmarkEvalOrderByLimit|BenchmarkEvalFilterPushdown|BenchmarkEvalJoinOrder|BenchmarkCachedQuery|BenchmarkBulkLoad|BenchmarkSnapshotSave|BenchmarkWALAppend|BenchmarkRecovery1M|BenchmarkDurableAdd)$$
BENCH_CI_PKGS := ./internal/store/ ./internal/sparql/ ./internal/endpoint/ ./internal/store/persist/
BENCH_CI_FLAGS := -run '^$$' -bench '$(BENCH_CI_PATTERN)' -benchtime=200ms -count=4 -cpu=1 -timeout=20m

.PHONY: all test vet lint fmt loc race fuzz crashtest bench-ci bench-gate bench-baseline build

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
	$(GO) test ./internal/similarity/ -run '^$$' -fuzz 'FuzzJaroWinkler' -fuzztime=30s
	$(GO) test ./internal/bins/ -run '^$$' -fuzz 'FuzzSearchSubstring' -fuzztime=30s

crashtest:
	SAPPHIRE_CRASH_SEEDS=512 $(GO) test ./internal/store/persist/ -run 'TestCrashRecoveryProperty' -v -timeout=30m

bench-ci:
	$(GO) test $(BENCH_CI_FLAGS) $(BENCH_CI_PKGS) | tee BENCH_pr.txt
	$(GO) run ./cmd/sapphire-benchgate -parse BENCH_pr.txt -out BENCH_pr.json

bench-gate:
	$(GO) run ./cmd/sapphire-benchgate -baseline bench_baseline.json -current BENCH_pr.json -threshold 0.30

bench-baseline:
	$(GO) test $(BENCH_CI_FLAGS) $(BENCH_CI_PKGS) | tee BENCH_baseline.txt
	$(GO) run ./cmd/sapphire-benchgate -parse BENCH_baseline.txt -out bench_baseline.json
