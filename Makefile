# Sapphire build/test entry points.
#
#   make test           - vet gate + full test suite, then the same for the
#                         nested benchmark/ module (root ./... does not
#                         descend into it, so removed API could break it unseen)
#   make race           - race-detector pass over the concurrency-sensitive packages
#   make fuzz           - short fuzz smokes of the SPARQL parser, the
#                         ORDER BY rank labels, grouped aggregates
#                         against the reference, the Jaro-Winkler kernel,
#                         the residual-bin trigram index, the two-tier
#                         similarity search, the completion suffix
#                         array and WAL replay (same jobs CI runs)
#   make fmt            - fail if any file is not gofmt-clean (same check CI runs)
#   make crashtest      - long crash-recovery fault-injection sweep (512 random
#                         offsets per fault mode on top of the strided sweep;
#                         CI runs a 64-seed smoke setting)
#   make loc            - non-test, non-testdata Go lines per package and in
#                         total, benchmark/ excluded (the count simplification
#                         PRs are judged by)
#   make vet            - stock go vet only
#   make lint           - sapphire-vet: stock go vet plus the repo's own
#                         contract analyzers (pinlock, atomicfield: no
#                         function-form sync/atomic call, errcode, unchecked,
#                         testonly — see docs/STATIC_ANALYSIS.md)

GO ?= go

.PHONY: all test vet lint fmt loc race fuzz crashtest build

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
	$(GO) test -race ./internal/store/ ./internal/store/persist/ ./internal/sparql/ ./internal/endpoint/ ./internal/federation/ ./internal/pum/ ./internal/steiner/ ./internal/serve/

fuzz:
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzParse' -fuzztime=30s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzOrderLabelsAgreeWithComparator' -fuzztime=30s
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzAggregateAgreesWithReference' -fuzztime=30s
	$(GO) test ./internal/similarity/ -run '^$$' -fuzz 'FuzzJaroWinkler' -fuzztime=30s
	$(GO) test ./internal/bins/ -run '^$$' -fuzz 'FuzzSearchSubstring' -fuzztime=30s
	$(GO) test ./internal/bins/ -run '^$$' -fuzz 'FuzzSearchSimilar' -fuzztime=30s
	$(GO) test ./internal/suffixtree/ -run '^$$' -fuzz 'FuzzSuffixSearch' -fuzztime=30s
	$(GO) test ./internal/store/persist/ -run '^$$' -fuzz 'FuzzReplayWAL' -fuzztime=30s

crashtest:
	SAPPHIRE_CRASH_SEEDS=512 $(GO) test ./internal/store/persist/ -run 'TestCrashRecoveryProperty' -v -timeout=30m
