// Package webapi exposes a sapphire.Client as the JSON HTTP API that
// internal/serve mounts beside the SPARQL protocol routes whenever it
// is given a client (cmd/sapphire-server) — the interface the paper's
// web UI talks to (Figure 1's client ↔ Sapphire server arrows):
//
//	GET  /complete?term=...        QCM auto-completions
//	POST /query    (SPARQL body)   federated execution
//	POST /suggest  (SPARQL body)   QSM suggestions
//	POST /run      (SPARQL body)   answers + suggestions
//
// Errors follow the SPARQL routes' protocol (endpoint.WriteError): the
// status by code — 400 parse, 503 timeout, 429 rejected, 413 too_large,
// 405 method, 500 internal — and the JSON envelope when the request
// accepts JSON.
package webapi

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"

	"sapphire"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
)

// Handler returns the API mux over a client.
func Handler(client *sapphire.Client) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/complete", func(w http.ResponseWriter, r *http.Request) {
		term := r.URL.Query().Get("term")
		writeJSON(w, completionsJSON(client.Complete(term)))
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		query, ok := readBody(w, r)
		if !ok {
			return
		}
		res, err := client.Query(r.Context(), query)
		if err != nil {
			endpoint.WriteError(w, r, endpoint.CodeForError(err), err.Error())
			return
		}
		writeJSON(w, ResultsJSON(res))
	})
	mux.HandleFunc("/suggest", func(w http.ResponseWriter, r *http.Request) {
		query, ok := readBody(w, r)
		if !ok {
			return
		}
		sugs, err := client.Suggest(r.Context(), query)
		if err != nil {
			endpoint.WriteError(w, r, endpoint.CodeForError(err), err.Error())
			return
		}
		writeJSON(w, SuggestionsJSON(sugs))
	})
	mux.HandleFunc("/run", func(w http.ResponseWriter, r *http.Request) {
		query, ok := readBody(w, r)
		if !ok {
			return
		}
		res, sugs, err := client.Run(r.Context(), query)
		if err != nil {
			endpoint.WriteError(w, r, endpoint.CodeForError(err), err.Error())
			return
		}
		writeJSON(w, map[string]any{
			"results":     ResultsJSON(res),
			"suggestions": SuggestionsJSON(sugs),
		})
	})
	return mux
}

func readBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	if r.Method != http.MethodPost {
		endpoint.WriteError(w, r, endpoint.CodeMethod, "POST the SPARQL query as the request body")
		return "", false
	}
	// Not a silent LimitReader: a query cut short can parse as another.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, endpoint.MaxQueryBytes))
	if mbe := (*http.MaxBytesError)(nil); errors.As(err, &mbe) {
		endpoint.WriteError(w, r, endpoint.CodeTooLarge, err.Error())
		return "", false
	}
	if err != nil || len(strings.TrimSpace(string(body))) == 0 {
		endpoint.WriteError(w, r, endpoint.CodeParse, "empty query")
		return "", false
	}
	return string(body), true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// ResultsJSON renders a result set for the UI: vars plus rows of
// variable → rendered term.
func ResultsJSON(res *sapphire.Results) map[string]any {
	rows := make([]map[string]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		m := make(map[string]string, len(row))
		for v, t := range row {
			m[v] = renderTerm(t)
		}
		rows = append(rows, m)
	}
	return map[string]any{"vars": res.Vars, "rows": rows}
}

func renderTerm(t rdf.Term) string {
	if t.IsIRI() {
		return t.Value
	}
	return t.String()
}

// SuggestionsJSON renders QSM suggestions with the one-change-at-a-time
// message of Section 4.
func SuggestionsJSON(sugs []sapphire.Suggestion) []map[string]any {
	out := make([]map[string]any, 0, len(sugs))
	for _, s := range sugs {
		out = append(out, map[string]any{
			"kind":    s.Kind.String(),
			"message": s.Message(),
			"query":   s.Query.String(),
			"answers": s.Answers,
		})
	}
	return out
}

// completionJSON is one /complete row. Its fields are declared in sorted
// key order, the order encoding/json writes map keys in, which the wire
// format has always had.
type completionJSON struct {
	FromTree    bool   `json:"fromTree"`
	IsPredicate bool   `json:"isPredicate"`
	Text        string `json:"text"`
}

func completionsJSON(comps []sapphire.Completion) []completionJSON {
	out := make([]completionJSON, 0, len(comps))
	for _, c := range comps {
		out = append(out, completionJSON{FromTree: c.FromTree, IsPredicate: c.IsPredicate, Text: c.Text})
	}
	return out
}
