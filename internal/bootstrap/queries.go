// Package bootstrap implements Sapphire's initialization for a new
// endpoint (Section 5 and Appendix A of the paper): retrieving all
// predicates, a filtered subset of literals, and the most significant
// literals, while respecting endpoint timeouts by descending the RDFS
// class hierarchy and paginating with LIMIT/OFFSET. The retrieved data is
// indexed into a suffix tree (significant literals + all predicates) and
// residual length bins for the Predictive User Model.
//
// Initialize and InitializeWarehouse are one driver, run: Q1, a collect
// step, then the indexes. Initialize's collect walks the classes (one
// walker, classHierarchy.walk) and pages Q6/Q7 and Q8; the warehouse's
// pages Q9 and Q10. Every page goes through one loop, pages, and every
// query through query, which counts a query in QueriesIssued and in its
// kind (LiteralQueries, SignificanceQueries) exactly when it is sent: a
// timed-out or rejected query counts, one the budget refused does not.
package bootstrap

import (
	"fmt"

	"sapphire/internal/rdf"
)

// The queries below are the Appendix A templates Q1–Q10 verbatim modulo
// whitespace; placeholders are filled by the driver. A class or predicate
// goes in as an rdf.Term and is written by Term.String, the one writer
// whose output the SPARQL lexer reads back as the same term.

// QueryPredicatesByFrequency is Q1.
const QueryPredicatesByFrequency = `SELECT DISTINCT ?p (COUNT(*) AS ?frequency)
WHERE { ?s ?p ?o }
GROUP BY ?p
ORDER BY DESC(?frequency)`

// QueryClassHierarchy is Q2.
const QueryClassHierarchy = `PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
SELECT DISTINCT ?class ?subclass
WHERE {
  ?class a owl:Class .
  ?class rdfs:subClassOf ?subclass
}`

// QueryTypesByFrequency is Q3, the fallback for datasets without an RDFS
// hierarchy.
const QueryTypesByFrequency = `SELECT DISTINCT ?o (COUNT(?s) AS ?frequency)
WHERE { ?s a ?o . }
GROUP BY ?o
ORDER BY DESC(?frequency)`

// QueryLiteralPredicates is Q4.
const QueryLiteralPredicates = `SELECT DISTINCT ?p (COUNT(?o) AS ?frequency)
WHERE {
  ?s ?p ?o .
  FILTER (isliteral(?o))
}
GROUP BY ?p
ORDER BY DESC(?frequency)`

// QueryPredicateProbe is Q5: does this predicate have any literal in the
// target language under the length cap?
func QueryPredicateProbe(pred rdf.Term, lang string, maxLen int) string {
	return fmt.Sprintf(`SELECT DISTINCT ?o
WHERE {
  ?s %s ?o .
  FILTER (isliteral(?o) && lang(?o) = '%s' && strlen(str(?o)) < %d)
}
LIMIT 1`, pred, lang, maxLen)
}

// QueryLiteralsByClass is Q6: literals of a predicate restricted to one
// class of the hierarchy, paginated (the paper's Q6 plus the LIMIT/OFFSET
// of Q7, which it applies "to increase the likelihood that this query
// will succeed").
func QueryLiteralsByClass(class, pred rdf.Term, lang string, maxLen, limit, offset int) string {
	return fmt.Sprintf(`SELECT DISTINCT ?o
WHERE {
  ?s a %s .
  ?s %s ?o .
  FILTER (isliteral(?o) && lang(?o) = '%s' && strlen(str(?o)) < %d)
}
LIMIT %d
OFFSET %d`, class, pred, lang, maxLen, limit, offset)
}

// QuerySignificantLiterals is Q8: literals ranked by the incoming-edge
// count of the entity they describe (Definition 1), per class and
// predicate, paginated.
func QuerySignificantLiterals(class, pred rdf.Term, lang string, maxLen, limit, offset int) string {
	return fmt.Sprintf(`SELECT DISTINCT ?o (COUNT(?subject) AS ?frequency)
WHERE {
  ?s a %s .
  ?subject ?p ?s .
  ?s %s ?o .
  FILTER (lang(?o) = '%s' && strlen(str(?o)) < %d)
}
GROUP BY ?o
ORDER BY DESC(?frequency)
LIMIT %d
OFFSET %d`, class, pred, lang, maxLen, limit, offset)
}

// QueryWarehouseLiterals is Q9: the unrestricted literal scan usable in
// the warehousing architecture where no timeout applies.
func QueryWarehouseLiterals(lang string, maxLen, limit, offset int) string {
	return fmt.Sprintf(`SELECT DISTINCT ?o
WHERE {
  ?s ?p ?o .
  FILTER (isliteral(?o) && lang(?o) = '%s' && strlen(str(?o)) < %d)
}
LIMIT %d
OFFSET %d`, lang, maxLen, limit, offset)
}

// QueryWarehouseSignificant is Q10: unrestricted significance scan for
// the warehousing architecture.
func QueryWarehouseSignificant(lang string, maxLen, limit, offset int) string {
	return fmt.Sprintf(`SELECT DISTINCT ?o (COUNT(?s1) AS ?frequency)
WHERE {
  ?s1 ?p ?s2 .
  ?s2 ?p2 ?o .
  FILTER (isliteral(?o) && lang(?o) = '%s' && strlen(str(?o)) < %d)
}
GROUP BY ?o
ORDER BY DESC(?frequency)
LIMIT %d
OFFSET %d`, lang, maxLen, limit, offset)
}
