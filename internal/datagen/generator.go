// Package datagen generates the deterministic synthetic DBpedia-like
// dataset that substitutes for the live DBpedia endpoint in all
// experiments (`sapphire-bench -exp all` regenerates them; README.md's
// evaluation-suite row names the packages). The dataset has an
// RDFS class hierarchy, materialized rdf:type edges, English-tagged name
// literals, numeric typed literals, long "abstract" literals that
// exercise the 80-character cache cap, and the specific entities the
// QALD-like question suite (Appendix B of the paper) needs so gold
// answers are known by construction.
package datagen

import (
	"fmt"
	"math/rand"
	"strings"

	"sapphire/internal/rdf"
	"sapphire/internal/store"
)

// Config controls dataset size. Counts are filler entities in addition to
// the fixed, known entities used by the question suite.
type Config struct {
	Seed      int64
	People    int
	Cities    int
	Books     int
	Films     int
	Companies int
	// Abstracts attaches a >80-char dbo:abstract to every known and
	// filler entity, exercising the literal length cap.
	Abstracts bool
}

// DefaultConfig is the benchmark-scale dataset (~25k triples).
func DefaultConfig() Config {
	return Config{Seed: 1, People: 2000, Cities: 300, Books: 500, Films: 400, Companies: 200, Abstracts: true}
}

// SmallConfig is a fast dataset for unit tests (~3k triples).
func SmallConfig() Config {
	return Config{Seed: 1, People: 40, Cities: 15, Books: 20, Films: 15, Companies: 12, Abstracts: true}
}

// Dataset is the generated graph plus handles to the known entities.
type Dataset struct {
	Store *store.Store
	Cfg   Config

	// loader stages triples during generation; Generate commits it once
	// at the end, so building the dataset never pays the incremental
	// path's per-key insertion sort.
	loader *store.BulkLoader
}

// IRI helpers mirroring the paper's DBpedia namespaces.

// Res returns a dbr: resource IRI.
func Res(local string) rdf.Term { return rdf.NewIRI(rdf.NSDBR + local) }

// Onto returns a dbo: ontology IRI (classes and predicates).
func Onto(local string) rdf.Term { return rdf.NewIRI(rdf.NSDBO + local) }

// Predicates used by the generated data.
var (
	PredName          = Onto("name")
	PredLabel         = rdf.NewIRI(rdf.RDFSLabel)
	PredBirthPlace    = Onto("birthPlace")
	PredDeathPlace    = Onto("deathPlace")
	PredBirthDate     = Onto("birthDate")
	PredBirthYear     = Onto("birthYear")
	PredSpouse        = Onto("spouse")
	PredChild         = Onto("child")
	PredParent        = Onto("parent")
	PredAlmaMater     = Onto("almaMater")
	PredAffiliation   = Onto("affiliation")
	PredInstrument    = Onto("instrument")
	PredStarring      = Onto("starring")
	PredDirector      = Onto("director")
	PredAuthor        = Onto("author")
	PredPublisher     = Onto("publisher")
	PredPages         = Onto("numberOfPages")
	PredBudget        = Onto("budget")
	PredPopulation    = Onto("populationTotal")
	PredCapital       = Onto("capital")
	PredCountry       = Onto("country")
	PredTimeZone      = Onto("timeZone")
	PredCurrency      = Onto("currency")
	PredDesigner      = Onto("designer")
	PredCreator       = Onto("creator")
	PredDepth         = Onto("maximumDepth")
	PredIndustry      = Onto("industry")
	PredVicePres      = Onto("vicePresident")
	PredNickname      = Onto("nickname")
	PredSourceCountry = Onto("sourceCountry")
	PredState         = Onto("state")
	PredAbstract      = Onto("abstract")
	PredLocatedIn     = Onto("locatedInArea")
)

// Classes, with their superclass. The hierarchy mirrors DBpedia's shape:
// a handful of roots, two to three levels deep.
var classHierarchy = map[string]string{
	"Agent":                "",
	"Person":               "Agent",
	"Scientist":            "Person",
	"Writer":               "Person",
	"Politician":           "Person",
	"President":            "Politician",
	"Senator":              "Politician",
	"Actor":                "Person",
	"MovieDirector":        "Person",
	"ChessPlayer":          "Person",
	"Musician":             "Person",
	"Royalty":              "Person",
	"Place":                "",
	"PopulatedPlace":       "Place",
	"City":                 "PopulatedPlace",
	"Country":              "PopulatedPlace",
	"AdministrativeRegion": "PopulatedPlace",
	"Lake":                 "Place",
	"River":                "Place",
	"Bridge":               "Place",
	"MilitaryStructure":    "Place",
	"Work":                 "",
	"Book":                 "Work",
	"Film":                 "Work",
	"TelevisionShow":       "Work",
	"Website":              "Work",
	"Organisation":         "Agent",
	"University":           "Organisation",
	"Company":              "Organisation",
	"PublishingHouse":      "Company",
	"TimeZone":             "",
	"Currency":             "",
	"Instrument":           "",
	"Industry":             "",
}

// Generate builds the dataset through the store's staged bulk-load
// path: every triple is buffered and the indexes are built in a single
// commit.
func Generate(cfg Config) *Dataset {
	return GenerateInto(cfg, store.New())
}

// GenerateInto is Generate targeting an existing (empty) store — the
// durable serving path generates straight into a recovered store so the
// dataset can be snapshotted without an intermediate copy.
func GenerateInto(cfg Config, st *store.Store) *Dataset {
	d := &Dataset{Store: st, Cfg: cfg, loader: store.NewBulkLoader(st)}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d.addHierarchy()
	d.addKnownEntities()
	d.addFillers(rng)
	d.loader.Commit()
	// Drop the loader: frees the staging buffer and turns any
	// post-Generate add() into an immediate panic instead of silently
	// staging triples that never commit.
	d.loader = nil
	return d
}

func (d *Dataset) add(s, p, o rdf.Term) {
	d.loader.MustAdd(rdf.NewTriple(s, p, o))
}

// typeEntity materializes the entity's class and all its ancestors, the
// way DBpedia publishes transitive types.
func (d *Dataset) typeEntity(s rdf.Term, class string) {
	typ := rdf.NewIRI(rdf.RDFType)
	for c := class; c != ""; c = classHierarchy[c] {
		d.add(s, typ, Onto(c))
	}
}

func (d *Dataset) addHierarchy() {
	sub := rdf.NewIRI(rdf.RDFSSubClassOf)
	owlClass := rdf.NewIRI(rdf.OWLClass)
	owlThing := rdf.NewIRI(rdf.OWLThing)
	typ := rdf.NewIRI(rdf.RDFType)
	for c, super := range classHierarchy {
		d.add(Onto(c), typ, owlClass)
		d.add(Onto(c), PredLabel, rdf.NewLangLiteral(spaceCamel(c), "en"))
		if super != "" {
			d.add(Onto(c), sub, Onto(super))
		}
	}
	// owl:Class itself participates in the hierarchy (as in DBpedia), so
	// the initialization walk reaches the class entities and caches
	// their labels — the literals users type to anchor rdf:type
	// patterns ("Chess Player", "City", ...).
	d.add(owlClass, typ, owlClass)
	d.add(owlClass, sub, owlThing)
	d.add(owlThing, typ, owlClass)
	d.add(owlClass, PredLabel, rdf.NewLangLiteral("Class", "en"))
	d.add(owlThing, PredLabel, rdf.NewLangLiteral("Thing", "en"))
	// Keep type materialization consistent up to owl:Thing: class
	// entities are owl:Class instances, hence also owl:Thing instances.
	// Without this, the hierarchy walk sees an empty owl:Thing root,
	// treats it as fully retrieved, and never reaches the class labels.
	for c := range classHierarchy {
		d.add(Onto(c), typ, owlThing)
	}
	d.add(owlClass, typ, owlThing)
}

// spaceCamel converts "MovieDirector" to "Movie Director".
func spaceCamel(s string) string {
	var b strings.Builder
	for i, r := range s {
		if i > 0 && r >= 'A' && r <= 'Z' {
			b.WriteByte(' ')
		}
		b.WriteRune(r)
	}
	return b.String()
}

// en returns an English-tagged literal.
func en(s string) rdf.Term { return rdf.NewLangLiteral(s, "en") }

// num returns an xsd:integer literal.
func num(n int) rdf.Term {
	return rdf.NewTypedLiteral(fmt.Sprint(n), rdf.XSDInteger)
}

// date returns an xsd:date literal.
func date(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDDate) }

// person adds a typed person with a name and returns its IRI.
func (d *Dataset) person(local, name, class string) rdf.Term {
	s := Res(local)
	d.typeEntity(s, class)
	d.add(s, PredName, en(name))
	d.add(s, PredLabel, en(name))
	return s
}

// place adds a typed place with a name.
func (d *Dataset) place(local, name, class string) rdf.Term {
	s := Res(local)
	d.typeEntity(s, class)
	d.add(s, PredName, en(name))
	d.add(s, PredLabel, en(name))
	return s
}

func (d *Dataset) abstract(s rdf.Term, name string) {
	if !d.Cfg.Abstracts {
		return
	}
	text := name + " is an entity in the synthetic knowledge graph generated for the Sapphire reproduction; this abstract exists to exceed the eighty character literal cache cap."
	d.add(s, PredAbstract, en(text))
}

// addKnownEntities creates every entity the QALD-like question suite
// references, with gold answers fixed by construction. Each block below
// names the Appendix B question it serves.
func (d *Dataset) addKnownEntities() {
	// --- Countries, shared infrastructure ---
	india := d.place("India", "India", "Country")
	usa := d.place("United_States", "United States", "Country")
	canada := d.place("Canada", "Canada", "Country")
	australia := d.place("Australia", "Australia", "Country")
	czech := d.place("Czech_Republic", "Czech Republic", "Country")
	spain := d.place("Spain", "Spain", "Country")
	russia := d.place("Russia", "Russia", "Country")

	// --- Easy 1: country in which the Ganges starts ---
	ganges := d.place("Ganges", "Ganges", "River")
	d.add(ganges, PredSourceCountry, india)
	d.abstract(ganges, "Ganges")

	// --- Easy 2: JFK's vice president ---
	jfk := d.person("John_F._Kennedy", "John F. Kennedy", "President")
	lbj := d.person("Lyndon_B._Johnson", "Lyndon B. Johnson", "President")
	d.add(jfk, PredVicePres, lbj)
	d.add(jfk, PredBirthYear, num(1917))
	d.abstract(jfk, "John F. Kennedy")

	// --- Easy 3: time zone of Salt Lake City ---
	slc := d.place("Salt_Lake_City", "Salt Lake City", "City")
	mtz := d.place("Mountain_Time_Zone", "Mountain Time Zone", "TimeZone")
	d.add(slc, PredTimeZone, mtz)
	d.add(slc, PredCountry, usa)
	d.add(slc, PredPopulation, num(200591))

	// --- Easy 4: Tom Hanks's wife ---
	hanks := d.person("Tom_Hanks", "Tom Hanks", "Actor")
	rita := d.person("Rita_Wilson", "Rita Wilson", "Actor")
	d.add(hanks, PredSpouse, rita)
	d.add(rita, PredSpouse, hanks)

	// --- Easy 5: children of Margaret Thatcher ---
	thatcher := d.person("Margaret_Thatcher", "Margaret Thatcher", "Politician")
	mark := d.person("Mark_Thatcher", "Mark Thatcher", "Person")
	carolT := d.person("Carol_Thatcher", "Carol Thatcher", "Person")
	d.add(thatcher, PredChild, mark)
	d.add(thatcher, PredChild, carolT)

	// --- Easy 6: currency of the Czech Republic ---
	koruna := d.place("Czech_koruna", "Czech koruna", "Currency")
	d.add(czech, PredCurrency, koruna)

	// --- Easy 7: designer of the Brooklyn Bridge ---
	bridge := d.place("Brooklyn_Bridge", "Brooklyn Bridge", "Bridge")
	roebling := d.person("John_A._Roebling", "John A. Roebling", "Person")
	d.add(bridge, PredDesigner, roebling)

	// --- Easy 8: wife of Abraham Lincoln ---
	lincoln := d.person("Abraham_Lincoln", "Abraham Lincoln", "President")
	maryTodd := d.person("Mary_Todd_Lincoln", "Mary Todd Lincoln", "Person")
	d.add(lincoln, PredSpouse, maryTodd)

	// --- Easy 9: creator of Wikipedia ---
	wikipedia := d.place("Wikipedia", "Wikipedia", "Website")
	wales := d.person("Jimmy_Wales", "Jimmy Wales", "Person")
	d.add(wikipedia, PredCreator, wales)

	// --- Easy 10: depth of Lake Placid ---
	placid := d.place("Lake_Placid", "Lake Placid", "Lake")
	d.add(placid, PredDepth, num(15))
	d.add(placid, PredCountry, usa)

	// --- Medium 1: instruments played by Cat Stevens ---
	stevens := d.person("Cat_Stevens", "Cat Stevens", "Musician")
	guitar := d.place("Guitar", "Guitar", "Instrument")
	piano := d.place("Piano", "Piano", "Instrument")
	d.add(stevens, PredInstrument, guitar)
	d.add(stevens, PredInstrument, piano)

	// --- Medium 2: parents of the wife of Juan Carlos I ---
	juan := d.person("Juan_Carlos_I", "Juan Carlos I", "Royalty")
	sofia := d.person("Queen_Sofia", "Queen Sofia", "Royalty")
	paulG := d.person("Paul_of_Greece", "Paul of Greece", "Royalty")
	frederica := d.person("Frederica_of_Hanover", "Frederica of Hanover", "Royalty")
	d.add(juan, PredSpouse, sofia)
	d.add(sofia, PredParent, paulG)
	d.add(sofia, PredParent, frederica)
	d.add(juan, PredCountry, spain)

	// --- Medium 3: U.S. state in which Fort Knox is located ---
	knox := d.place("Fort_Knox", "Fort Knox", "MilitaryStructure")
	kentucky := d.place("Kentucky", "Kentucky", "AdministrativeRegion")
	d.add(knox, PredState, kentucky)
	d.add(kentucky, PredCountry, usa)

	// --- Medium 4: person who is called Frank The Tank ---
	ricard := d.person("Frank_Ricard", "Frank Ricard", "Person")
	d.add(ricard, PredNickname, en("Frank The Tank"))

	// --- Medium 5: birthdays of all actors of Charmed ---
	charmed := Res("Charmed")
	d.typeEntity(charmed, "TelevisionShow")
	d.add(charmed, PredName, en("Charmed"))
	milano := d.person("Alyssa_Milano", "Alyssa Milano", "Actor")
	combs := d.person("Holly_Marie_Combs", "Holly Marie Combs", "Actor")
	doherty := d.person("Shannen_Doherty", "Shannen Doherty", "Actor")
	d.add(milano, PredBirthDate, date("1972-12-19"))
	d.add(combs, PredBirthDate, date("1973-12-03"))
	d.add(doherty, PredBirthDate, date("1971-04-12"))
	for _, a := range []rdf.Term{milano, combs, doherty} {
		d.add(charmed, PredStarring, a)
	}

	// --- Medium 6: country of Limerick Lake ---
	limerick := d.place("Limerick_Lake", "Limerick Lake", "Lake")
	d.add(limerick, PredCountry, canada)

	// --- Medium 7: spouse of Robert F. Kennedy's daughter ---
	rfk := d.person("Robert_F._Kennedy", "Robert F. Kennedy", "Politician")
	kathleen := d.person("Kathleen_Kennedy_Townsend", "Kathleen Kennedy Townsend", "Politician")
	townsend := d.person("David_Townsend", "David Townsend", "Person")
	d.add(rfk, PredChild, kathleen)
	d.add(kathleen, PredSpouse, townsend)
	// More Kennedys so "Kennedy" substring searches return a family.
	ted := d.person("Ted_Kennedy", "Ted Kennedy", "Senator")
	d.add(rfk, PredSpouse, d.person("Ethel_Kennedy", "Ethel Kennedy", "Person"))
	_ = ted

	// --- Medium 8: population of the capital of Australia ---
	canberra := d.place("Canberra", "Canberra", "City")
	d.add(australia, PredCapital, canberra)
	d.add(canberra, PredPopulation, num(395790))
	d.add(canberra, PredCountry, australia)

	// --- Difficult 1: chess players who died where they were born ---
	moscow := d.place("Moscow", "Moscow", "City")
	d.add(moscow, PredCountry, russia)
	smyslov := d.person("Vasily_Smyslov", "Vasily Smyslov", "ChessPlayer")
	d.add(smyslov, PredBirthPlace, moscow)
	d.add(smyslov, PredDeathPlace, moscow)
	petrosian := d.person("Tigran_Petrosian", "Tigran Petrosian", "ChessPlayer")
	tbilisi := d.place("Tbilisi", "Tbilisi", "City")
	d.add(petrosian, PredBirthPlace, tbilisi)
	d.add(petrosian, PredDeathPlace, moscow)
	tal := d.person("Mikhail_Tal", "Mikhail Tal", "ChessPlayer")
	riga := d.place("Riga", "Riga", "City")
	d.add(tal, PredBirthPlace, riga)
	d.add(tal, PredDeathPlace, riga)

	// --- Difficult 2: books by William Goldman with more than 300 pages ---
	goldman := d.person("William_Goldman", "William Goldman", "Writer")
	d.book("Boys_and_Girls_Together", "Boys and Girls Together", goldman, nil, 751)
	d.book("The_Princess_Bride", "The Princess Bride", goldman, nil, 283)
	d.book("The_Temple_of_Gold", "The Temple of Gold", goldman, nil, 310)

	// --- Difficult 3: books by Jack Kerouac published by Viking Press ---
	kerouac := d.person("Jack_Kerouac", "Jack Kerouac", "Writer")
	viking := Res("Viking_Press")
	d.typeEntity(viking, "PublishingHouse")
	d.add(viking, PredLabel, en("Viking Press"))
	d.add(viking, PredName, en("Viking Press"))
	grove := Res("Grove_Press")
	d.typeEntity(grove, "PublishingHouse")
	d.add(grove, PredLabel, en("Grove Press"))
	d.add(grove, PredName, en("Grove Press"))
	d.book("On_the_Road", "On the Road", kerouac, &viking, 320)
	d.book("Door_Wide_Open", "Door Wide Open", kerouac, &viking, 208)
	d.book("Doctor_Sax", "Doctor Sax", kerouac, &grove, 250)
	// Big Sur the movie, as in Figure 6: same name space, different type.
	bigsur := Res("Big_Sur_film")
	d.typeEntity(bigsur, "Film")
	d.add(bigsur, PredName, en("Big Sur"))
	d.add(bigsur, Onto("writer"), kerouac)

	// --- Difficult 4: Spielberg films with budget >= $80M ---
	spielberg := d.person("Steven_Spielberg", "Steven Spielberg", "MovieDirector")
	d.film("Jaws", "Jaws", spielberg, nil, 7_000_000)
	d.film("Jurassic_Park", "Jurassic Park", spielberg, nil, 63_000_000)
	d.film("Minority_Report", "Minority Report", spielberg, nil, 102_000_000)
	d.film("War_of_the_Worlds", "War of the Worlds", spielberg, nil, 132_000_000)

	// --- Difficult 5: most populous city in Australia ---
	sydney := d.place("Sydney", "Sydney", "City")
	d.add(sydney, PredPopulation, num(4840628))
	d.add(sydney, PredCountry, australia)
	melbourne := d.place("Melbourne", "Melbourne", "City")
	d.add(melbourne, PredPopulation, num(4440328))
	d.add(melbourne, PredCountry, australia)

	// --- Difficult 6: films starring Clint Eastwood directed by himself ---
	eastwood := d.person("Clint_Eastwood", "Clint Eastwood", "MovieDirector")
	d.typeEntity(eastwood, "Actor")
	gran := d.film("Gran_Torino", "Gran Torino", eastwood, &eastwood, 33_000_000)
	mdb := d.film("Million_Dollar_Baby", "Million Dollar Baby", eastwood, &eastwood, 30_000_000)
	unforgiven := d.film("Unforgiven", "Unforgiven", eastwood, &eastwood, 14_400_000)
	petersen := d.person("Wolfgang_Petersen", "Wolfgang Petersen", "MovieDirector")
	lineOfFire := d.film("In_the_Line_of_Fire", "In the Line of Fire", petersen, &eastwood, 40_000_000)
	_, _, _, _ = gran, mdb, unforgiven, lineOfFire

	// --- Difficult 7: presidents born in 1945 ---
	p1945a := d.person("Aldo_Ferrar", "Aldo Ferrar", "President")
	d.add(p1945a, PredBirthYear, num(1945))
	p1945b := d.person("Nora_Vasquez", "Nora Vasquez", "President")
	d.add(p1945b, PredBirthYear, num(1945))
	d.add(lincoln, PredBirthYear, num(1809))

	// --- Difficult 8: companies in both aerospace and medicine ---
	aero := d.place("Aerospace", "Aerospace", "Industry")
	medicine := d.place("Medicine", "Medicine", "Industry")
	dual := Res("Helix_Dynamics")
	d.typeEntity(dual, "Company")
	d.add(dual, PredName, en("Helix Dynamics"))
	d.add(dual, PredIndustry, aero)
	d.add(dual, PredIndustry, medicine)
	aeroOnly := Res("Vector_Aerospace_Corp")
	d.typeEntity(aeroOnly, "Company")
	d.add(aeroOnly, PredName, en("Vector Aerospace Corp"))
	d.add(aeroOnly, PredIndustry, aero)
	medOnly := Res("Remedia_Labs")
	d.typeEntity(medOnly, "Company")
	d.add(medOnly, PredName, en("Remedia Labs"))
	d.add(medOnly, PredIndustry, medicine)

	// --- Difficult 9: inhabitants of the most populous Canadian city ---
	toronto := d.place("Toronto", "Toronto", "City")
	d.add(toronto, PredPopulation, num(2615060))
	d.add(toronto, PredCountry, canada)
	montreal := d.place("Montreal", "Montreal", "City")
	d.add(montreal, PredPopulation, num(1649519))
	d.add(montreal, PredCountry, canada)

	// --- Intro query: scientists from Ivy League universities ---
	ivy := Res("Ivy_League")
	d.add(ivy, PredName, en("Ivy League"))
	harvard := Res("Harvard_University")
	d.typeEntity(harvard, "University")
	d.add(harvard, PredName, en("Harvard University"))
	d.add(harvard, PredAffiliation, ivy)
	princeton := Res("Princeton_University")
	d.typeEntity(princeton, "University")
	d.add(princeton, PredName, en("Princeton University"))
	d.add(princeton, PredAffiliation, ivy)
	mit := Res("MIT")
	d.typeEntity(mit, "University")
	d.add(mit, PredName, en("Massachusetts Institute of Technology"))
	einstein := d.person("Albert_Einstein", "Albert Einstein", "Scientist")
	d.add(einstein, PredAlmaMater, princeton)
	feynman := d.person("Richard_Feynman", "Richard Feynman", "Scientist")
	d.add(feynman, PredAlmaMater, mit)
	nash := d.person("John_Nash", "John Nash", "Scientist")
	d.add(nash, PredAlmaMater, princeton)
	curie := d.person("Marie_Curie", "Marie Curie", "Scientist")
	d.add(curie, PredAlmaMater, harvard) // synthetic fact for the count
	d.abstract(einstein, "Albert Einstein")
}

// book adds a Book with author, optional publisher, and page count.
func (d *Dataset) book(local, name string, author rdf.Term, publisher *rdf.Term, pages int) rdf.Term {
	b := Res(local)
	d.typeEntity(b, "Book")
	d.add(b, PredName, en(name))
	d.add(b, PredLabel, en(name))
	d.add(b, PredAuthor, author)
	if publisher != nil {
		d.add(b, PredPublisher, *publisher)
	}
	d.add(b, PredPages, num(pages))
	return b
}

// film adds a Film with director, optional star, and budget.
func (d *Dataset) film(local, name string, director rdf.Term, star *rdf.Term, budget int) rdf.Term {
	f := Res(local)
	d.typeEntity(f, "Film")
	d.add(f, PredName, en(name))
	d.add(f, PredLabel, en(name))
	d.add(f, PredDirector, director)
	if star != nil {
		d.add(f, PredStarring, *star)
	}
	d.add(f, PredBudget, num(budget))
	return f
}

// addFillers adds the bulk entities that give the dataset realistic
// statistics: many distinct literals, skewed predicate frequencies, and
// entities with incoming edges so significance scoring has signal.
func (d *Dataset) addFillers(rng *rand.Rand) {
	classes := []string{"Person", "Scientist", "Writer", "Politician", "Actor", "Musician"}
	var cities []rdf.Term
	for i := 0; i < d.Cfg.Cities; i++ {
		stem := cityStems[rng.Intn(len(cityStems))]
		suf := citySuffixes[rng.Intn(len(citySuffixes))]
		name := fmt.Sprintf("%s%s", stem, suf)
		local := fmt.Sprintf("City_%s_%d", name, i)
		c := d.place(local, name, "City")
		d.add(c, PredPopulation, num(1000+rng.Intn(5_000_000)))
		cities = append(cities, c)
		if rng.Intn(4) == 0 {
			d.abstract(c, name)
		}
	}
	if len(cities) == 0 {
		cities = append(cities, Res("Moscow"))
	}
	var people []rdf.Term
	for i := 0; i < d.Cfg.People; i++ {
		first := firstNames[rng.Intn(len(firstNames))]
		last := surnames[rng.Intn(len(surnames))]
		name := first + " " + last
		local := fmt.Sprintf("Person_%s_%s_%d", first, last, i)
		p := d.person(local, name, classes[rng.Intn(len(classes))])
		d.add(p, PredBirthPlace, cities[rng.Intn(len(cities))])
		d.add(p, PredBirthYear, num(1900+rng.Intn(100)))
		if rng.Intn(3) == 0 {
			d.add(p, PredBirthDate, date(fmt.Sprintf("%04d-%02d-%02d",
				1900+rng.Intn(100), 1+rng.Intn(12), 1+rng.Intn(28))))
		}
		if len(people) > 0 && rng.Intn(5) == 0 {
			d.add(p, PredSpouse, people[rng.Intn(len(people))])
		}
		people = append(people, p)
		if rng.Intn(6) == 0 {
			d.abstract(p, name)
		}
	}
	for i := 0; i < d.Cfg.Books; i++ {
		adj := bookAdjectives[rng.Intn(len(bookAdjectives))]
		noun := bookNouns[rng.Intn(len(bookNouns))]
		name := fmt.Sprintf("The %s %s", adj, noun)
		author := people[rng.Intn(len(people))]
		d.book(fmt.Sprintf("Book_%s_%s_%d", adj, noun, i), name, author, nil, 80+rng.Intn(800))
	}
	for i := 0; i < d.Cfg.Films; i++ {
		adj := bookAdjectives[rng.Intn(len(bookAdjectives))]
		noun := bookNouns[rng.Intn(len(bookNouns))]
		name := fmt.Sprintf("%s %s", adj, noun)
		director := people[rng.Intn(len(people))]
		star := people[rng.Intn(len(people))]
		d.film(fmt.Sprintf("Film_%s_%s_%d", adj, noun, i), name, director, &star, 1_000_000+rng.Intn(200_000_000))
	}
	industries := make([]rdf.Term, len(industryNames))
	for i, n := range industryNames {
		ind := Res("Industry_" + n)
		d.typeEntity(ind, "Industry")
		d.add(ind, PredName, en(n))
		industries[i] = ind
	}
	for i := 0; i < d.Cfg.Companies; i++ {
		stem := companyStems[rng.Intn(len(companyStems))]
		suf := companySuffixes[rng.Intn(len(companySuffixes))]
		name := stem + " " + suf
		c := Res(fmt.Sprintf("Company_%s_%s_%d", stem, suf, i))
		d.typeEntity(c, "Company")
		d.add(c, PredName, en(name))
		d.add(c, PredIndustry, industries[rng.Intn(len(industries))])
		if rng.Intn(3) == 0 {
			d.add(c, PredIndustry, industries[rng.Intn(len(industries))])
		}
	}
	// A sprinkle of non-English literals so the language filter has work.
	for i := 0; i < d.Cfg.Cities/3+1; i++ {
		c := cities[rng.Intn(len(cities))]
		d.add(c, PredLabel, rdf.NewLangLiteral(fmt.Sprintf("Stadt %d", i), "de"))
	}
}
