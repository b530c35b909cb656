package rdf

// Well-known vocabulary IRIs used by Sapphire's initialization queries and
// by the synthetic dataset generator. The paper's initialization walks the
// RDFS class hierarchy (rdfs:subClassOf) and relies on rdf:type edges.
const (
	// RDFType is rdf:type, the most used property in the LOD cloud.
	RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	// RDFSSubClassOf organizes classes into the hierarchy Sapphire walks.
	RDFSSubClassOf = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	// RDFSLabel is the conventional human-readable name predicate.
	RDFSLabel = "http://www.w3.org/2000/01/rdf-schema#label"
	// OWLClass marks a resource as an OWL class (Q2 in Appendix A matches
	// ?class a owl:Class).
	OWLClass = "http://www.w3.org/2002/07/owl#Class"
	// OWLThing is the conventional root of OWL class hierarchies.
	OWLThing = "http://www.w3.org/2002/07/owl#Thing"

	// XSDString, XSDInteger, XSDDecimal, XSDDouble, XSDBoolean, XSDDate
	// are the datatype IRIs the SPARQL evaluator understands natively.
	XSDString  = "http://www.w3.org/2001/XMLSchema#string"
	XSDInteger = "http://www.w3.org/2001/XMLSchema#integer"
	XSDDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	XSDDouble  = "http://www.w3.org/2001/XMLSchema#double"
	XSDBoolean = "http://www.w3.org/2001/XMLSchema#boolean"
	XSDDate    = "http://www.w3.org/2001/XMLSchema#date"
)

// Namespace prefixes mirroring the ones used in the paper's queries.
const (
	// NSDBR is the synthetic analog of http://dbpedia.org/resource/.
	NSDBR = "http://dbpedia.org/resource/"
	// NSDBO is the synthetic analog of http://dbpedia.org/ontology/.
	NSDBO = "http://dbpedia.org/ontology/"
	// NSDBP is the synthetic analog of http://dbpedia.org/property/.
	NSDBP = "http://dbpedia.org/property/"
	// NSFOAF is the FOAF namespace (foaf:name, foaf:surname).
	NSFOAF = "http://xmlns.com/foaf/0.1/"
)

// CommonPrefixes maps the prefix labels accepted by the SPARQL parser by
// default, matching the conventions in the paper's example queries.
var CommonPrefixes = map[string]string{
	"rdf":  "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
	"owl":  "http://www.w3.org/2002/07/owl#",
	"xsd":  "http://www.w3.org/2001/XMLSchema#",
	"res":  NSDBR,
	"dbr":  NSDBR,
	"dbo":  NSDBO,
	"dbp":  NSDBP,
	"foaf": NSFOAF,
}
