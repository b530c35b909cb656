// Package store implements the in-memory triple store that backs Sapphire's
// simulated SPARQL endpoints. It maintains SPO, POS, and OSP hash indexes
// so that every triple-pattern shape resolves through an index rather than
// a full scan, and exposes the dataset statistics (predicate frequencies,
// literal counts, incoming-edge counts) that the paper's initialization
// queries (Appendix A, Q1–Q10) aggregate over.
//
// # Dictionary encoding
//
// Terms are interned into a two-way dictionary (see dict.go): each
// distinct rdf.Term maps to a uint32 ID, and all three indexes are
// nested ID maps rather than maps keyed by the 4-field Term struct. The
// dedup set is map[[3]uint32]struct{}. This shrinks the per-triple
// footprint, turns every index probe into an integer hash, and makes
// triple materialization a chunk probe.
//
// The dictionary itself is partitioned by term hash into independent
// shards (NewShardedDict picks the count; DefaultDictShards otherwise),
// so interning distinct terms contends per shard, not globally. IDs are
// still allocated from one global space — each dictionary shard claims
// ranges of idRangeSize consecutive IDs from a shared counter — and the
// ID→term direction is a chunked spine published through an atomic
// pointer, so ResolveID stays a lock-free probe. The dictionary also
// maintains a background-built per-ID order statistic (rank.go): labels
// whose numeric order equals term order, letting the cross-shard merge
// compare most keys with one integer compare.
//
// # Sharding
//
// The store is horizontally partitioned into N shards (New defaults N to
// GOMAXPROCS via DefaultShards; NewSharded pins it; the serving commands
// expose -shards). A triple lives in exactly one shard, chosen by a
// multiplicative hash of its subject ID; each shard owns its own three
// index permutations, RWMutex, dedup set, and mutation epoch, while the
// dictionary stays global (append-only, own lock, lock-free resolution).
// There is no store-wide lock of any kind:
//
//   - Subject-bound reads and single-triple writes touch one shard.
//   - Wildcard-subject reads take every shard's read lock (fixed order)
//     and merge the per-shard streams in term-sorted order. Subjects are
//     partitioned, so subject-level streams are disjoint sorted runs; the
//     POS permutation additionally keeps its innermost (subject) lists
//     term-sorted so (?s P O) and (?s P ?o) merge the same way. The
//     result: iteration order is byte-identical for every shard count
//     (pinned by TestShardEquivalence).
//   - BulkLoader.Commit partitions the batch by subject shard and
//     commits shard by shard, so a large load stalls readers of any one
//     shard for ~1/N of the build and readers of untouched shards not at
//     all (BenchmarkCommitReadStall measures it). The cost: on a
//     multi-shard store a commit is atomic per shard, not per batch — a
//     concurrent wildcard reader can observe a batch prefix. Callers
//     needing strict whole-batch visibility use NewSharded(1), which
//     behaves exactly like the pre-sharding store.
//
// Store.Epoch is the sum of per-shard epochs: it still moves iff the
// triple set changed, so the endpoint result cache and federation
// invalidation work unchanged (a multi-shard commit may advance it once
// per touched shard rather than once per batch).
//
// # ID-level API contract
//
// Hot consumers (the SPARQL evaluator's join loop, the endpoint cost
// model) can stay in ID space and skip Term hashing and materialization
// entirely:
//
//	id, ok := st.Lookup(term)          // term → ID, no interning
//	term := st.ResolveID(id)           // ID → term, O(1), lock-free
//	st.MatchIDs(s, p, o, fn)           // pattern match over IDs
//	st.CountIDs(s, p, o)               // exact count, O(shards) for all shapes
//	st.CardinalityEstimateIDs(s, p, o) // same, for cost models
//
// The evaluator's whole view of the store is one interface,
// sparql.IDGraph: Lookup, ResolveID, CardinalityEstimate, OrderLabels,
// and the pinned regime — PinRead takes every shard read lock once, and
// MatchIDsPinned then scans without locking, so the evaluator's
// depth-first join may nest scans inside scan callbacks. *Store is
// its only native implementer (internal/sparql's tests assert the
// conformance; this package must not import sparql).
//
// The contract every consumer (and every future index) must respect:
//
//   - Wildcard == 0. The zero ID is never assigned to a term; MatchIDs
//     and CountIDs treat it the way Match treats a zero rdf.Term. A
//     lookup that fails must not be conflated with a wildcard.
//   - IDs are append-only: assigned from 1 upward, never reused, never
//     remapped. An ID observed once remains valid for the life of the
//     store, so IDs can be cached across queries. Since the dictionary
//     was sharded IDs are no longer strictly first-seen dense — each
//     dictionary shard assigns from its claimed range, leaving at most
//     one partially used range of holes per shard — and nothing may
//     assume ID order relates to term or arrival order. The converse
//     does not hold either: an ID (and a successful Lookup) may exist
//     for a term whose triples are still staged in a BulkLoader, or
//     were never committed at all — pattern matches and counts for
//     such a term are simply empty.
//   - Match/MatchIDs callbacks run under shard read locks (one shard
//     for subject-bound patterns, all shards for wildcard-subject
//     ones). They must not mutate the store and must not call locking
//     accessors (Lookup, Count, ...); once a writer queues on a shard's
//     RWMutex, a nested RLock deadlocks. ResolveID is the exception: it
//     reads the atomically published ID→term chunk spine and never
//     takes a lock, precisely so callbacks can resolve terms
//     mid-iteration.
//
// # Bulk loading
//
// Add keeps the sorted-key invariant with a binary-search insertion —
// an O(n) memmove per new key, fine online, quadratic-ish for loading
// datasets. BulkLoader (bulk.go) is the staged path: Add/AddAll intern
// and buffer packed ID triples without taking any store-shard lock
// (AddAll interns in chunks, acquiring each dictionary shard at most
// once per chunk), Commit builds each shard's indexes for the batch
// grouped by key and sorts each touched key slice exactly once, under
// that shard's write lock. Store.AddAll routes through it
// automatically.
package store
