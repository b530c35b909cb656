package datagen

import (
	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// Split partitions the dataset into interlinked stores the way the LOD
// cloud hosts data: agents (people, organisations) on one endpoint,
// places on another, works and everything else on a third. Object IRIs
// still point across partitions — exactly the cross-endpoint links the
// federated query processor exists to join. Schema triples (the class
// hierarchy and class labels) are replicated to every partition, as
// ontologies are in practice.
//
//sapphire:allow testonly internal/operator/federated_test.go builds its three-endpoint federation from the split
func (d *Dataset) Split() (agents, places, works *store.Store) {
	agents, places, works = store.New(), store.New(), store.New()
	// Each partition loads through the staged bulk path: triples are
	// routed into per-store loaders during the scan and committed once.
	agentsL := store.NewBulkLoader(agents)
	placesL := store.NewBulkLoader(places)
	worksL := store.NewBulkLoader(works)
	all := []*store.BulkLoader{agentsL, placesL, worksL}

	typ := rdf.NewIRI(rdf.RDFType)
	owlClass := rdf.NewIRI(rdf.OWLClass)

	// Determine each subject's home partition from its types.
	home := make(map[rdf.Term]*store.BulkLoader)
	agentClasses := map[string]bool{}
	placeClasses := map[string]bool{}
	for c := range classHierarchy {
		for s := c; s != ""; s = classHierarchy[s] {
			if s == "Agent" {
				agentClasses[rdf.NSDBO+c] = true
			}
			if s == "Place" {
				placeClasses[rdf.NSDBO+c] = true
			}
		}
	}
	d.Store.Match(rdf.Term{}, typ, rdf.Term{}, func(tr rdf.Triple) bool {
		if _, done := home[tr.S]; done {
			return true
		}
		switch {
		case agentClasses[tr.O.Value]:
			home[tr.S] = agentsL
		case placeClasses[tr.O.Value]:
			home[tr.S] = placesL
		}
		return true
	})

	// Precompute the class-entity subjects. isSchema used to probe
	// d.Store.Contains from inside the full scan's callback, which
	// re-enters the store read lock the scan holds and deadlocks once a
	// writer queues (internal/store/doc.go "ID-level API contract") —
	// a set lookup keeps the callback lock-free.
	classSubj := make(map[rdf.Term]bool)
	d.Store.Match(rdf.Term{}, typ, owlClass, func(tr rdf.Triple) bool {
		classSubj[tr.S] = true
		return true
	})
	isSchema := func(tr rdf.Triple) bool {
		if tr.P.Value == rdf.RDFSSubClassOf {
			return true
		}
		if tr.P == typ && tr.O == owlClass {
			return true
		}
		// Class entities' own triples (labels, owl:Thing typing).
		return classSubj[tr.S]
	}

	d.Store.Match(rdf.Term{}, rdf.Term{}, rdf.Term{}, func(tr rdf.Triple) bool {
		if isSchema(tr) {
			for _, l := range all {
				//sapphire:allow pinlock the loaders feed agents/places/works, not the scanned d.Store, so their dict locks are a disjoint domain and cannot form a cycle with the scan's store read lock (internal/store/doc.go "ID-level API contract")
				l.MustAdd(tr)
			}
			return true
		}
		dst := home[tr.S]
		if dst == nil {
			dst = worksL
		}
		//sapphire:allow pinlock dst loads one of the three fresh partition stores, never the scanned d.Store — disjoint lock domain (internal/store/doc.go "ID-level API contract")
		dst.MustAdd(tr)
		return true
	})
	for _, l := range all {
		l.Commit()
	}
	return agents, places, works
}
