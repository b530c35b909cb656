package bootstrap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"sapphire/internal/rdf"
)

// The paper's initialization "happens only once for each endpoint" (17
// hours for DBpedia), which only makes sense if the cache outlives the
// server process. Save/Load serialize the cached data — predicates,
// literals, and which strings are tree-resident — as JSON; the suffix
// tree and bins are rebuilt on load (construction is linear and fast
// compared to re-crawling the endpoint).
//
// A cache file that spent 17 hours being earned deserves better than
// "json: unexpected end of input" after a crashed save or a disk
// hiccup: Save frames the JSON with a header carrying its length and
// CRC32C, Load verifies both before trusting a byte, and SaveFile writes
// through a temp file with fsync and an atomic rename so an interrupted
// save can never destroy the previous good cache.

// cacheFile is the on-disk representation.
type cacheFile struct {
	Version    int         `json:"version"`
	Endpoint   string      `json:"endpoint"`
	Predicates []savedTerm `json:"predicates"`
	Literals   []savedLit  `json:"literals"`
	Stats      Stats       `json:"stats"`
}

type savedTerm struct {
	IRI string `json:"iri"`
}

type savedLit struct {
	Value  string `json:"value"`
	Lang   string `json:"lang,omitempty"`
	Dtype  string `json:"datatype,omitempty"`
	InTree bool   `json:"inTree,omitempty"`
}

const cacheFileVersion = 1

// cacheHeaderFmt is the v2 envelope: a comment-style first line naming
// the format and carrying the body's CRC32C and byte length.
const cacheHeaderFmt = "#sapphire-cache v2 crc32c=%08x bytes=%d\n"

// ErrCacheHeader reports a cache file whose first line is not the v2
// header — including the headerless v1 files earlier builds wrote, which
// carry nothing to verify them by. Re-run the initialization to replace
// such a file.
var ErrCacheHeader = errors.New("bootstrap: not a #sapphire-cache v2 file")

var cacheCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// Save writes the cache to w in the checksummed v2 format.
func (c *Cache) Save(w io.Writer) error {
	var body bytes.Buffer
	if err := c.saveJSON(&body); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, cacheHeaderFmt,
		crc32.Checksum(body.Bytes(), cacheCastagnoli), body.Len()); err != nil {
		return err
	}
	_, err := w.Write(body.Bytes())
	return err
}

// SaveFile writes the cache to path atomically: temp file in the same
// directory, fsync, rename over the target, fsync the directory. A
// crash mid-save leaves either the old complete file or the new one,
// never a torn hybrid — and a torn temp file left behind never shadows
// the real cache.
func (c *Cache) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.Save(tmp); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveJSON writes the raw JSON body.
func (c *Cache) saveJSON(w io.Writer) error {
	cf := cacheFile{
		Version:  cacheFileVersion,
		Endpoint: c.Endpoint,
		Stats:    c.Stats,
	}
	for _, p := range c.Predicates {
		cf.Predicates = append(cf.Predicates, savedTerm{IRI: p.Value})
	}
	lexes := make([]string, 0, len(c.literalTerm))
	for lex := range c.literalTerm {
		lexes = append(lexes, lex)
	}
	sort.Strings(lexes)
	for _, lex := range lexes {
		t := c.literalTerm[lex]
		cf.Literals = append(cf.Literals, savedLit{
			Value:  t.Value,
			Lang:   t.Lang,
			Dtype:  t.Datatype,
			InTree: c.Bins.InTree(lex),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(cf)
}

// Load reads a cache previously written by Save and rebuilds the
// indexes. A file is accepted only if it starts with the v2 header
// (ErrCacheHeader otherwise) and its body matches the header's length
// and CRC32C — a truncated or bit-flipped cache is an error, not a
// silently smaller lexicon.
func Load(r io.Reader) (*Cache, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("bootstrap: cache header: %w", err)
	}
	var wantCRC uint32
	var wantLen int
	if _, err := fmt.Sscanf(header, "#sapphire-cache v2 crc32c=%x bytes=%d", &wantCRC, &wantLen); err != nil {
		return nil, fmt.Errorf("%w (first line %.40q)", ErrCacheHeader, header)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("bootstrap: loading cache: %w", err)
	}
	if len(data) != wantLen {
		return nil, fmt.Errorf("bootstrap: cache body is %d bytes, header says %d (truncated?)", len(data), wantLen)
	}
	if got := crc32.Checksum(data, cacheCastagnoli); got != wantCRC {
		return nil, fmt.Errorf("bootstrap: cache checksum mismatch (got %08x, header says %08x)", got, wantCRC)
	}
	var cf cacheFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return nil, fmt.Errorf("bootstrap: loading cache: %w", err)
	}
	if cf.Version != cacheFileVersion {
		return nil, fmt.Errorf("bootstrap: unsupported cache version %d", cf.Version)
	}
	c := &Cache{
		Endpoint:    cf.Endpoint,
		Stats:       cf.Stats,
		literalTerm: make(map[string]rdf.Term),
	}
	var significant []string
	for _, st := range cf.Predicates {
		c.Predicates = append(c.Predicates, rdf.NewIRI(st.IRI))
	}
	for _, sl := range cf.Literals {
		c.literalTerm[sl.Value] = rdf.Term{Kind: rdf.KindLiteral, Value: sl.Value, Lang: sl.Lang, Datatype: sl.Dtype}
		if sl.InTree {
			significant = append(significant, sl.Value)
		}
	}
	c.index(significant)
	return c, nil
}
