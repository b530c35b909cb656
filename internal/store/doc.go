// Package store implements the in-memory triple store that backs Sapphire's
// simulated SPARQL endpoints. It maintains SPO, POS, and OSP hash indexes
// so that every triple-pattern shape resolves through an index rather than
// a full scan. The paper's initialization statistics (Appendix A, Q1–Q10)
// are not computed here: internal/bootstrap gets them through the
// endpoint, by SPARQL, as the paper does.
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
// The term→ID direction is one map under one lock, with IDs allocated
// densely in first-seen order; the ID→term direction is a chunked spine
// published through an atomic pointer, so ResolveID stays a lock-free
// probe. The dictionary also maintains a background-built per-ID order
// statistic (rank.go): labels whose numeric order equals term order,
// letting ORDER BY top-k and the snapshot writer compare most keys with
// one integer compare.
//
// # One partition
//
// The store is one partition: one RWMutex, one mutation epoch, one
// SPO/POS/OSP index set and one dedup set. Readers share the read lock;
// an Add or a BulkLoader.Commit takes the write lock, so a committed
// batch becomes visible all at once, and Store.Epoch — one atomic load
// — moves exactly once per change. The dictionary has its own lock,
// and interning always finishes before the store write lock is taken.
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
//	st.CountIDs(s, p, o)               // exact count, O(1) for all shapes
//
// The evaluator's whole view of the store is one interface,
// sparql.IDGraph: Lookup, ResolveID, CardinalityEstimate, OrderLabels,
// and the pinned regime — PinRead takes the read lock once, and
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
//     store, so IDs can be cached across queries. A snapshot restore
//     keeps only referenced terms, leaving holes, and resumes
//     allocating after the largest restored ID; nothing may assume ID
//     order relates to term or arrival order. The converse
//     does not hold either: an ID (and a successful Lookup) may exist
//     for a term whose triples are still staged in a BulkLoader, or
//     were never committed at all — pattern matches and counts for
//     such a term are simply empty.
//   - Match/MatchIDs callbacks run under the store read lock. They must
//     not mutate the store and must not call locking accessors (Lookup,
//     Count, ...); once a writer queues on the RWMutex, a nested RLock
//     deadlocks. ResolveID is the exception: it
//     reads the atomically published ID→term chunk spine and never
//     takes a lock, precisely so callbacks can resolve terms
//     mid-iteration.
//
// # One write path
//
// Every insert is a batch commit. BulkLoader (bulk.go) stages: its
// Add/AddAll intern and buffer packed ID triples without taking the
// store lock (AddAll interns in chunks, one dictionary lock acquisition
// per chunk), and Commit builds the indexes for the batch grouped by
// key under the write lock, restoring term order on each touched key
// slice once. Store.AddAll commits through a loader, and Store.Add
// commits a one-triple batch, so a single insert binary-search-inserts
// its new keys (an O(n) memmove per new key, fine online,
// quadratic-ish for loading datasets one triple at a time).
package store
