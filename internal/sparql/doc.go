// Package sparql implements the subset of SPARQL 1.1 that Sapphire needs:
// SELECT queries with triple patterns, FILTER expressions, DISTINCT,
// aggregates (COUNT, SUM, AVG, MIN, MAX), GROUP BY, ORDER BY, LIMIT and OFFSET, and PREFIX
// declarations. This covers every query in the paper: the Ivy League
// example in Section 1, the initialization queries Q1–Q10 in Appendix A,
// and the user-study queries in Appendix B.
//
// The pipeline is lexer → parser → AST → planner → streaming operator
// pipeline. The evaluator runs against one execution interface, IDGraph
// (implemented by the in-memory store and by the federation of
// endpoints), and supports a per-row budget hook so simulated endpoints
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
// projection (or, for aggregate queries, a grouping sink that folds ID
// rows into per-group cells and emits the groups in their final order),
// ID-keyed DISTINCT, and an OFFSET/LIMIT slice whose early-exit
// propagates back up the whole chain, for every query class.
// Rows stay dictionary IDs end to end; terms materialize only when rows
// leave the pipeline (or inside filter and order-key evaluation). Each
// pattern sequence is laid out once per evaluation as per-level frames
// whose scan callbacks are bound up front, so the join allocates
// nothing per row, and the top-k heap compares the graph's rank labels,
// resolving terms only for pairs of numeric literals (which SPARQL
// orders by value) or unlabeled IDs.
//
// # One execution contract
//
// The pipeline has one scan path and one driver: a single goroutine
// pins the IDGraph once per evaluation (PinRead) and reads it only
// through MatchIDsPinned and ResolveID, which take no locks under the
// pin. Evaluation is serial by measurement (docs/ARCHITECTURE.md
// "Serial evaluation"), so the Budget hook counts exactly the rows the
// depth-first join touches. The one optional capability answers
// "unsupported" by return value: OrderLabels may return a nil label
// func, and ORDER BY then compares terms. Labels it does return must
// follow term order and carry the numeric-literal bit (see IDGraph).
// An implementation must follow the store's ID contract:
//
//   - The zero ID is the wildcard, mirroring the zero-Term convention
//     of Match; no term ever has ID 0.
//   - IDs are append-only for the life of the graph, so solution rows
//     can carry raw IDs between operators.
//   - IDs stay below 2³¹: IDs with the top bit set are the
//     evaluation's own, the terms grouping computes (aggregate values).
//   - The depth-first join issues the next level's scan from inside the
//     current level's MatchIDsPinned callback, and resolves terms there
//     too, so neither may take a lock the pin already holds.
//
// A graph whose sources answer only Term-level pattern matches (the
// federation of remote endpoints) keeps its own dictionary and interns
// their answers on first sight, so joins and DISTINCT still compare
// integers.
package sparql
