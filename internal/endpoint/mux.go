package endpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"sapphire/internal/rdf"
)

// NewMux returns the routed serving surface over an endpoint — the mux
// the serving binaries mount:
//
//	/sparql   the SPARQL protocol route (Handler): GET ?query=, form
//	          POST, raw application/sparql-query POST
//	/epoch    the endpoint's mutation epoch as a decimal text body
//	          (404 for non-Epoched endpoints)
//	/healthz  liveness: {"status":"ok",...} as soon as the process
//	          serves, with the endpoint name and current epoch if known
//
// The result is a plain *http.ServeMux so callers can hang extra routes
// (such as /stats or /add) off the same listener.
func NewMux(ep Endpoint) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/sparql", Handler(ep))
	mux.HandleFunc("/epoch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeError(w, r, CodeMethod, "GET /epoch")
			return
		}
		serveEpoch(w, r, ep)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		health := struct {
			Status   string  `json:"status"`
			Endpoint string  `json:"endpoint"`
			Epoch    *uint64 `json:"epoch,omitempty"`
		}{Status: "ok", Endpoint: ep.Name()}
		if e, ok := epochOf(r.Context(), ep); ok {
			health.Epoch = &e
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(health)
	})
	return mux
}

// TripleBatcher applies a batch of triples atomically; persist.DB is
// the durable implementation behind POST /add.
type TripleBatcher interface {
	AddAll(triples []rdf.Triple) error
}

// MaxAddBytes bounds the N-Triples body AddHandler accepts per POST.
const MaxAddBytes = 64 << 20

// AddHandler accepts N-Triples in the POST body and applies them as one
// batch through the TripleBatcher — with persist.DB behind it the batch
// is WAL-logged with a commit marker, so a crash mid-add keeps either
// all of the batch or none of it. Errors use the structured envelope
// when the request accepts JSON, like every other route.
func AddHandler(db TripleBatcher) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, r, CodeMethod, "POST N-Triples to /add")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, MaxAddBytes)
		rd := rdf.NewReader(r.Body)
		var triples []rdf.Triple
		for {
			tr, err := rd.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				writeError(w, r, bodyErrCode(err), err.Error())
				return
			}
			triples = append(triples, tr)
		}
		if err := db.AddAll(triples); err != nil {
			writeError(w, r, CodeInternal, err.Error())
			return
		}
		fmt.Fprintf(w, "added %d triples\n", len(triples))
	}
}
