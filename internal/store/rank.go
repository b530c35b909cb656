package store

import (
	"math"
	"sort"

	"sapphire/internal/rdf"
)

// rankTable is a point-in-time order statistic over interned terms: for
// every ID labeled at build time, label(id) is a uint64 whose numeric
// order equals the terms' order (its low bit marks numeric literals, see
// publishRanks), so ORDER BY top-k (Store.OrderLabels) and the snapshot
// writer can decide most comparisons with one integer compare instead
// of a string walk. Unlabeled IDs (interned after the
// table was built) report label 0, and comparisons touching them fall
// back to rdf.Term.CompareTo — the table is a pure accelerator, never a
// source of truth.
//
// A table is immutable once published: each rebuild fills a fresh flat
// label array (indexed by ID; compaction holes just hold zeroes) and
// swaps the dict's table pointer, so readers that captured a table keep
// comparing against one consistent labeling. Labels from different
// tables are never mixed, which is what makes full relabeling on
// rebuild safe.
type rankTable struct {
	labels []uint64
}

// label returns id's order label, or 0 when id is unlabeled (or t nil).
func (t *rankTable) label(id ID) uint64 {
	if t != nil && int(id) < len(t.labels) {
		return t.labels[id]
	}
	return 0
}

// rankMinTerms is the interned-term floor below which no rank table is
// built: small stores sort fast enough on string compares.
const rankMinTerms = 4096

// maybeBuildRanks kicks off a background rank rebuild when the labeled
// share of the ID space has decayed below half. Only PinRead and
// OrderLabels call it — a plain MatchIDs must not start a build (a
// throwaway store scanned once would stay alive until the build ends)
// — and it costs two atomic loads when there is nothing to do. The
// build runs in one goroutine at a time; readers keep serving with the
// previous table (or string compares) until the new one is published.
func (d *dict) maybeBuildRanks() {
	total := d.terms.Load()
	if total < rankMinTerms || total < 2*d.labeled.Load() {
		return
	}
	if !d.ranksBuilding.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer d.ranksBuilding.Store(false)
		d.buildRanks()
	}()
}

// buildRanks computes and publishes a fresh rank table. Amortization:
// each build sorts only the terms interned since the previous build and
// merges them with the previous build's order list, so across a store's
// lifetime every term is sorted once and participates in O(1) merges
// per doubling of the dictionary.
//
// Safety of the term scan: the watermark is an atomic advanced only
// after the new term's slot is written, so every slot below the loaded
// watermark is fully written and covered by the spine loaded after it.
func (d *dict) buildRanks() {
	d.rankMu.Lock()
	defer d.rankMu.Unlock()
	w := d.next.Load()
	tv := d.view()
	old := d.ranks.Load()
	// Collect the IDs this build adds: assigned (compaction holes hold
	// the zero term) and not yet labeled.
	var fresh []ID
	for id := ID(1); id < w; id++ {
		if old.label(id) != 0 || tv.atPtr(id).Kind == rdf.KindInvalid {
			continue
		}
		fresh = append(fresh, id)
	}
	if len(fresh) == 0 && old != nil {
		return
	}
	sort.Slice(fresh, func(i, j int) bool {
		return tv.atPtr(fresh[i]).CompareTo(tv.atPtr(fresh[j])) < 0
	})
	// Merge the previous order list (already term-sorted) with the
	// fresh IDs into the new total order.
	merged := make([]ID, 0, len(d.rankOrder)+len(fresh))
	i, j := 0, 0
	for i < len(d.rankOrder) && j < len(fresh) {
		if tv.atPtr(d.rankOrder[i]).CompareTo(tv.atPtr(fresh[j])) < 0 {
			merged = append(merged, d.rankOrder[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, d.rankOrder[i:]...)
	merged = append(merged, fresh[j:]...)

	d.publishRanks(tv, merged, w)
}

// publishRanks labels order — every labeled ID, in term order — evenly
// over the uint64 range and publishes the table. Label k is
// (k+1)*stride with its low bit replaced by the numeric bit: 1 exactly
// when the term is a numeric literal (rdf.Term.NumericValue). The stride
// is at least 2^32-1 for any uint32 ID space, so consecutive labels stay
// strictly ordered after the bit swap, and 0 stays "unlabeled". Caller
// holds rankMu (or owns the dictionary exclusively, as restore does).
func (d *dict) publishRanks(tv termView, order []ID, watermark ID) {
	nt := &rankTable{labels: make([]uint64, watermark)}
	stride := math.MaxUint64 / uint64(len(order)+1)
	for k, id := range order {
		lab := (uint64(k+1) * stride) &^ 1
		if _, ok := tv.atPtr(id).NumericValue(); ok {
			lab |= 1
		}
		nt.labels[id] = lab
	}
	d.rankOrder = order
	d.ranks.Store(nt)
	d.labeled.Store(ID(len(order)))
}
