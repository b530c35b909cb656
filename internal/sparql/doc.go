// Package sparql implements the subset of SPARQL 1.1 that Sapphire needs:
// SELECT queries with triple patterns, FILTER expressions, DISTINCT,
// aggregates (COUNT), GROUP BY, ORDER BY, LIMIT and OFFSET, and PREFIX
// declarations. This covers every query in the paper: the Ivy League
// example in Section 1, the initialization queries Q1–Q10 in Appendix A,
// and the user-study queries in Appendix B.
//
// The pipeline is lexer → parser → AST → planner → streaming operator
// pipeline. The evaluator runs against one execution interface, IDGraph
// (the in-memory store natively, a federation of endpoints through
// AdaptTerms), and supports a per-row budget hook so simulated endpoints
// can enforce timeouts the way real SPARQL endpoints do.
//
// # The streaming pipeline
//
// Eval compiles a query into a plan (plan.go): a slot layout mapping
// every pattern variable to a column of a uint32 solution row, each
// pattern group greedily reordered most-selective-first by the graph's
// exact cardinalities, and every FILTER assigned to the earliest
// pipeline stage at which its variables can no longer change. The plan
// executes as a chain of push-based operators (iter.go) — depth-first
// index-nested-loop join with inline level filters, left joins for
// OPTIONAL, ORDER BY as a bounded top-k heap or a full stable sort,
// projection, ID-keyed DISTINCT, and an OFFSET/LIMIT slice whose
// early-exit propagates back up the whole chain, for every query class.
// Rows stay dictionary IDs end to end; terms materialize only when rows
// leave the pipeline (or inside filter and order-key evaluation).
//
// # One graph contract, one adapter
//
// The pipeline has one scan path: it pins the IDGraph once per
// evaluation (PinRead) and reads it only through MatchIDsPinned,
// ScanMorselsPinned and ResolveID, which take no locks under the pin.
// The two optional capabilities answer "unsupported" by return value:
// OrderLabels may return a nil label func (ORDER BY then compares
// terms) and ScanMorselsPinned may return false (Workers > 1 then runs
// serially). An implementation must follow the store's ID contract:
//
//   - The zero ID is the wildcard, mirroring the zero-Term convention
//     of Match; no term ever has ID 0.
//   - IDs are append-only for the life of the graph, so solution rows
//     can carry raw IDs between operators.
//   - The depth-first join issues the next level's scan from inside the
//     current level's MatchIDsPinned callback, and resolves terms there
//     too, so neither may take a lock the pin already holds.
//
// A graph that can only answer Term-level pattern matches (Graph:
// remote endpoints, federations) is wrapped with AdaptTerms, which owns
// a query-local dictionary: its matches are interned on first sight, so
// joins and DISTINCT still compare integers.
package sparql
