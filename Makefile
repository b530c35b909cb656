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
#                         array, WAL replay, the RDF text reader and
#                         the term grammar both sides share (CI runs
#                         this target)
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
	$(GO) test -race ./internal/store/ ./internal/store/persist/ ./internal/sparql/ ./internal/endpoint/ ./internal/federation/ ./internal/pum/ ./internal/steiner/ ./internal/serve/ ./internal/bins/

# Each target runs 30 s; CI runs this same list. The oracle of each:
fuzz:
# The parser's canonical form re-parses, and is a fixed point.
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzParse' -fuzztime=30s
# For every pair of labeled terms the rank labels decide, the label
# order's sign equals the ORDER BY comparator's.
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzOrderLabelsAgreeWithComparator' -fuzztime=30s
# On generated graphs and aggregate queries the grouping sink returns
# the reference evaluator's rows, in its order, byte for byte, or its
# error.
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzAggregateAgreesWithReference' -fuzztime=30s
# The ASCII kernel equals the rune path bit for bit, the score is in
# [0, 1], and the θ bound is never below the score.
	$(GO) test ./internal/similarity/ -run '^$$' -fuzz 'FuzzJaroWinkler' -fuzztime=30s
# The trigram index answers what Algorithm 1's scan answers, same
# literals in the same order, over a table with a fuzzed tree tier
# neither returns, and neither panics.
	$(GO) test ./internal/bins/ -run '^$$' -fuzz 'FuzzSearchSubstring' -fuzztime=30s
# The bound-pruned similarity search over both tiers equals a plain
# Jaro-Winkler scan of the tree and residual literals, scores bit for
# bit.
	$(GO) test ./internal/bins/ -run '^$$' -fuzz 'FuzzSearchSimilar' -fuzztime=30s
# Brute-force sorted suffixes; the suffix array returns the same
# strings in the same order at every limit.
	$(GO) test ./internal/suffixtree/ -run '^$$' -fuzz 'FuzzSuffixSearch' -fuzztime=30s
# Replaying arbitrary WAL bytes never panics, and replaying only the
# committed prefix it reports rebuilds the same store.
	$(GO) test ./internal/store/persist/ -run '^$$' -fuzz 'FuzzReplayWAL' -fuzztime=30s
# RDF text (N-Triples, Turtle, the /add body) never panics the
# reader, every triple it returns is valid, and every triple it
# returns writes and reads back as itself.
	$(GO) test ./internal/rdf/ -run '^$$' -fuzz 'FuzzReader' -fuzztime=30s
# Every IRI and literal the RDF reader returns, written by Term.String,
# parses back as itself in every SPARQL triple-pattern position it may
# hold, and the crawl's Q5, Q6 and Q8 built from its IRIs parse.
	$(GO) test ./internal/sparql/ -run '^$$' -fuzz 'FuzzTermText' -fuzztime=30s

crashtest:
	SAPPHIRE_CRASH_SEEDS=512 $(GO) test ./internal/store/persist/ -run 'TestCrashRecoveryProperty' -v -timeout=30m
