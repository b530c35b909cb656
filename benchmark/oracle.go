package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
	"sapphire/internal/webapi"
)

// checkAnswers compares the body the server gave for every distinct
// payload of the list with what the library says when asked directly:
// /complete against Client.Complete, /run against Client.Run, /sparql
// against sparql.Eval on the store (row order included), /add against
// its acknowledgement. It returns how many payloads it checked and a
// description of each mismatch.
func (s *stack) checkAnswers(ops []op, bodies map[string][]byte) (checked int, mismatches []string) {
	seen := make(map[string]bool, len(bodies))
	for _, o := range ops {
		if seen[o.payload] {
			continue
		}
		seen[o.payload] = true
		checked++
		body, ok := bodies[o.payload]
		if !ok {
			mismatches = append(mismatches, fmt.Sprintf("no answer kept for %q", o.payload))
			continue
		}
		if err := s.checkOne(o, body); err != nil {
			mismatches = append(mismatches, fmt.Sprintf("%q: %v", o.payload, err))
		}
	}
	return checked, mismatches
}

func (s *stack) checkOne(o op, body []byte) error {
	ctx := context.Background()
	switch o.kind {
	case opComplete:
		var got []struct {
			Text        string `json:"text"`
			IsPredicate bool   `json:"isPredicate"`
			FromTree    bool   `json:"fromTree"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("bad /complete body: %w", err)
		}
		want := s.client.Complete(o.payload)
		if len(got) != len(want) {
			return fmt.Errorf("%d completions over HTTP, %d from Client.Complete", len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Text != w.Text || g.IsPredicate != w.IsPredicate || g.FromTree != w.FromTree {
				return fmt.Errorf("completion %d is %+v over HTTP, %+v from Client.Complete", i, g, w)
			}
		}
	case opRun:
		res, sugs, err := s.client.Run(ctx, o.payload)
		if err != nil {
			return fmt.Errorf("Client.Run: %w", err)
		}
		var want bytes.Buffer
		err = json.NewEncoder(&want).Encode(map[string]any{
			"results":     webapi.ResultsJSON(res),
			"suggestions": webapi.SuggestionsJSON(sugs),
		})
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want.Bytes()) {
			return fmt.Errorf("/run body differs from Client.Run (%d vs %d bytes)", len(body), want.Len())
		}
	case opSparql:
		got, err := decodeSparqlJSON(body)
		if err != nil {
			return err
		}
		q, err := sparql.Parse(o.payload)
		if err != nil {
			return err
		}
		want, err := sparql.Eval(s.db.Store(), q, sparql.Options{})
		if err != nil {
			return err
		}
		return sameResults(got, want)
	case opAdd:
		if string(body) != "added 1 triples\n" {
			return fmt.Errorf("/add answered %q", body)
		}
	}
	return nil
}

// decodeSparqlJSON reads a SPARQL 1.1 JSON results document.
func decodeSparqlJSON(body []byte) (*sparql.Results, error) {
	var doc struct {
		Head    struct{ Vars []string }
		Results struct {
			Bindings []map[string]struct {
				Type, Value, Datatype string
				Lang                  string `json:"xml:lang"`
			}
		}
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("bad /sparql body: %w", err)
	}
	res := &sparql.Results{Vars: doc.Head.Vars}
	for _, b := range doc.Results.Bindings {
		row := make(sparql.Binding, len(b))
		for v, t := range b {
			switch {
			case t.Type == "uri":
				row[v] = rdf.NewIRI(t.Value)
			case t.Type == "bnode":
				row[v] = rdf.NewBlank(t.Value)
			case t.Lang != "":
				row[v] = rdf.NewLangLiteral(t.Value, t.Lang)
			case t.Datatype != "":
				row[v] = rdf.NewTypedLiteral(t.Value, t.Datatype)
			default:
				row[v] = rdf.NewLiteral(t.Value)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func sameResults(got, want *sparql.Results) error {
	if strings.Join(got.Vars, " ") != strings.Join(want.Vars, " ") {
		return fmt.Errorf("vars %v over HTTP, %v from sparql.Eval", got.Vars, want.Vars)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows over HTTP, %d from sparql.Eval", len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		for _, v := range want.Vars {
			if got.Rows[i][v] != w[v] {
				return fmt.Errorf("row %d ?%s is %v over HTTP, %v from sparql.Eval", i, v, got.Rows[i][v], w[v])
			}
		}
	}
	return nil
}

// checkDurable reopens the data directory after a clean close and
// verifies that it holds the corpus plus every triple the server
// acknowledged: the writes of the op list in each replayed round and
// the epoch bumps. It returns the recovered triple count.
func checkDurable(dir string, opts persist.Options, c *corpus, ops []op, replayed []int, bumps int) (int, error) {
	db, _, err := persist.Open(dir, opts)
	if err != nil {
		return 0, fmt.Errorf("reopen after run: %w", err)
	}
	defer db.Close()
	st := db.Store()
	want := len(c.triples) + bumps
	for seq := 1; seq <= bumps; seq++ {
		if err := mustHold(st, benchFact("epoch", seq, 0)); err != nil {
			return 0, err
		}
	}
	for _, o := range ops {
		if o.kind != opAdd {
			continue
		}
		for _, round := range replayed {
			tr, err := rdf.NewReader(strings.NewReader(o.materialize(round))).Read()
			if err != nil {
				return 0, err
			}
			if err := mustHold(st, tr); err != nil {
				return 0, err
			}
			want++
		}
	}
	if st.Len() != want {
		return 0, fmt.Errorf("reopened store holds %d triples, want %d", st.Len(), want)
	}
	return want, nil
}

func mustHold(st *store.Store, tr rdf.Triple) error {
	if !st.Contains(tr) {
		return fmt.Errorf("acknowledged triple lost across restart: %s", tr)
	}
	return nil
}
