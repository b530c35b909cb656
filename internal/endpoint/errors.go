package endpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// The structured error protocol. Every HTTP error path of Handler (and
// the mux routes around it) can emit a stable JSON envelope instead of
// a free-form text body:
//
//	{"error":{"code":"timeout","message":"endpoint x: query timed out"}}
//
// The envelope is emitted when the request declares it speaks JSON
// (an Accept header naming application/json or
// application/sparql-results+json); other callers — curl without
// headers, legacy clients — keep receiving the plain-text http.Error
// bodies they always did, under the same status codes. Client parses
// the envelope back into the package's typed errors, so outcome
// classification no longer depends on string-matching response bodies.
//
// The code set is closed and documented (docs/SERVING.md); each code
// maps to exactly one HTTP status:
//
//	parse       400  the query (or request body) did not parse
//	timeout     503  evaluation exceeded the endpoint's execution budget
//	rejected    429  admission control refused the query up front
//	too_large   413  the request body exceeded MaxQueryBytes
//	method      405  HTTP method not allowed on this route
//	unsupported 404  the endpoint cannot answer this route (e.g. /epoch
//	                 on a non-Epoched endpoint)
//	internal    500  anything else: the server failed, the query didn't
const (
	CodeParse       = "parse"
	CodeTimeout     = "timeout"
	CodeRejected    = "rejected"
	CodeTooLarge    = "too_large"
	CodeMethod      = "method"
	CodeUnsupported = "unsupported"
	CodeInternal    = "internal"
)

// APIError is a structured error decoded from (or destined for) the
// wire envelope. Unwrap maps the stable codes back onto the package's
// sentinel errors, so errors.Is(err, ErrTimeout) works identically for
// local endpoints and for remote ones reached through Client.
type APIError struct {
	Code    string
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("endpoint: %s: %s", e.Code, e.Message)
}

// Unwrap surfaces the typed sentinel behind a wire code, when there is
// one; codes without a sentinel (too_large, method, unsupported,
// internal) unwrap to nil and are matched by code via errors.As.
//
//sapphire:allow testonly errors.Is and errors.As call it through an interface the standard library spells inside a function body
func (e *APIError) Unwrap() error {
	switch e.Code {
	case CodeTimeout:
		return ErrTimeout
	case CodeRejected:
		return ErrRejected
	case CodeParse:
		return ErrParse
	}
	return nil
}

// errorEnvelope is the wire form of an APIError.
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// statusForCode maps each wire code to its one HTTP status.
func statusForCode(code string) int {
	switch code {
	case CodeParse:
		return http.StatusBadRequest
	case CodeTimeout:
		return http.StatusServiceUnavailable
	case CodeRejected:
		return http.StatusTooManyRequests
	case CodeTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeMethod:
		return http.StatusMethodNotAllowed
	case CodeUnsupported:
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// codeForError classifies an Endpoint.Query failure into a wire code.
func codeForError(err error) string {
	switch {
	case errors.Is(err, ErrTimeout):
		return CodeTimeout
	case errors.Is(err, ErrRejected):
		return CodeRejected
	case errors.Is(err, ErrParse):
		return CodeParse
	}
	return CodeInternal
}

// acceptsJSON reports whether the request opted into the JSON error
// envelope. A client asking for SPARQL JSON results is asking for JSON.
func acceptsJSON(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(part)
		if i := strings.IndexByte(mt, ';'); i >= 0 {
			mt = strings.TrimSpace(mt[:i])
		}
		switch mt {
		case "application/json", "application/sparql-results+json":
			return true
		}
	}
	return false
}

// writeError emits one error response: the JSON envelope for clients
// that accept JSON, the legacy plain-text body otherwise. The status
// code is the same either way, so status-based clients keep working.
func writeError(w http.ResponseWriter, r *http.Request, code, message string) {
	status := statusForCode(code)
	if !acceptsJSON(r) {
		http.Error(w, message, status)
		return
	}
	var env errorEnvelope
	env.Error.Code = code
	env.Error.Message = message
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(env)
}

// decodeEnvelope parses a response body into an APIError when the
// content type says it is the JSON envelope. nil means "not an
// envelope" — the caller falls back to status-based classification.
func decodeEnvelope(contentType string, body []byte) *APIError {
	if !strings.HasPrefix(contentType, "application/json") {
		return nil
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code == "" {
		return nil
	}
	return &APIError{Code: env.Error.Code, Message: env.Error.Message}
}
