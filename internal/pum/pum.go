// Package pum implements the Predictive User Model, the core
// contribution of the paper (Section 6): the Query Completion Module
// (QCM, Section 6.1 / Figure 5) that autocompletes query terms from the
// cached endpoint data, and the Query Suggestion Module (QSM, Section
// 6.2) that proposes alternative query terms (Algorithm 2) and relaxed
// query structures (Algorithm 3) after a query executes, prefetching
// their answers so accepting a suggestion feels instantaneous.
//
// The QCM's residual step asks bins.SearchSubstring, which answers a term
// of three or more bytes from the bins' trigram posting index instead of
// the paper's parallel scan; shorter terms are still scanned. Either way
// the completions are the paper's: tree matches first, then the shortest
// residual matches in the γ window.
//
// The literal alternative search (Algorithm 2 line 9) is one bounded
// SearchSimilar over the cache's literal table, which holds the suffix
// tree's literals and the residual ones. Under the default measure it
// skips literals Jaro-Winkler's upper bound places below θ, and only the
// alternatives prefetch and relaxation can select become queries.
package pum

import (
	"context"

	"sapphire/internal/bootstrap"
	"sapphire/internal/federation"
	"sapphire/internal/lexicon"
	"sapphire/internal/similarity"
	"sapphire/internal/sparql"
	"sapphire/internal/steiner"
)

// Config carries the paper's tunables, with defaults from Sections 5–6.
type Config struct {
	// K is the number of suggestions to return (paper: k = 10).
	K int
	// Gamma bounds completion candidates to length |t|..|t|+Gamma
	// (paper: γ = 10).
	Gamma int
	// Theta is the similarity threshold for alternatives (paper: 0.7).
	Theta float64
	// Alpha and Beta bound the literal-alternative search to lengths
	// [|l|−Alpha, |l|+Beta] (paper: α = 2, β = 3).
	Alpha, Beta int
	// Workers is P, the parallel scan width (paper: number of cores).
	Workers int
	// Measure scores term similarity; nil means Jaro-Winkler, the
	// paper's choice, with its upper bound skipping hopeless literals.
	// Swappable for the ablation experiments.
	Measure similarity.Measure
	// Relax configures the Steiner-tree structure relaxation.
	Relax steiner.Config
	// MaxCandidates caps how many alternative queries are executed for
	// prefetching per direction (predicates / literals).
	MaxCandidates int
}

// DefaultConfig returns the parameters used throughout the paper.
func DefaultConfig() Config {
	return Config{
		K:             10,
		Gamma:         10,
		Theta:         0.7,
		Alpha:         2,
		Beta:          3,
		Workers:       8,
		Relax:         steiner.DefaultConfig(),
		MaxCandidates: 20,
	}
}

// PUM binds the cached endpoint data, the lexicon, and the federated
// query processor into the interactive model.
type PUM struct {
	cache *bootstrap.Cache
	fed   *federation.Federation
	lex   *lexicon.Lexicon
	cfg   Config
	// score is cfg.Measure, Jaro-Winkler when nil, for the predicate
	// searches; the literal search hands cfg.Measure to bins as it is.
	score similarity.Measure
	// predDisplay[i] is the display name of cache.Predicates[i].
	predDisplay []string
}

// New assembles a PUM. A nil lexicon falls back to the built-in one; a
// zero-value config is replaced by DefaultConfig.
func New(cache *bootstrap.Cache, fed *federation.Federation, lex *lexicon.Lexicon, cfg Config) *PUM {
	if lex == nil {
		lex = lexicon.Default()
	}
	if cfg.K == 0 {
		cfg = DefaultConfig()
	}
	score := cfg.Measure
	if score == nil {
		score = similarity.JaroWinkler
	}
	display := make([]string, len(cache.Predicates))
	for i, pred := range cache.Predicates {
		display[i] = displayOf(pred)
	}
	return &PUM{cache: cache, fed: fed, lex: lex, cfg: cfg, score: score, predDisplay: display}
}

// Cache exposes the underlying endpoint cache (for experiments).
func (p *PUM) Cache() *bootstrap.Cache { return p.cache }

// Execute runs a parsed query through the federated query processor, the
// same path the Sapphire server uses when the user clicks "Run".
func (p *PUM) Execute(ctx context.Context, q *sparql.Query) (*sparql.Results, error) {
	return p.fed.Eval(ctx, q)
}

// Config returns the active configuration.
func (p *PUM) Config() Config { return p.cfg }
