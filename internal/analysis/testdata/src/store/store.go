// Package store is a miniature stand-in for sapphire/internal/store
// used by the analyzer golden tests: same method names, same locking
// contract shape, no real locks. The pinlock analyzer recognizes it the
// same way it recognizes the real store — by the package's last path
// segment and the PinRead method — so fixtures can violate the
// contract without the module's own packages ever containing a
// violation.
package store

// Triple mirrors rdf.Triple just enough for signatures.
type Triple struct{ S, P, O string }

// Store mirrors the locking surface of the real store.Store.
type Store struct{}

// Lock-acquiring accessors (the banned set under a pin/callback).

func (s *Store) Lookup(t string) (uint32, bool) { return 0, false }

func (s *Store) Match(sub, pred, obj string, fn func(Triple) bool) {}

func (s *Store) MatchIDs(sub, pred, obj uint32, fn func(s, p, o uint32) bool) {}

func (s *Store) Add(tr Triple) (bool, error) { return false, nil }

func (s *Store) AddAll(trs []Triple) error { return nil }

func (s *Store) Count(sub, pred, obj string) int { return 0 }

func (s *Store) CountIDs(sub, pred, obj uint32) int { return 0 }

// Lock-free by construction — the designed callback exception.

func (s *Store) ResolveID(id uint32) string { return "" }

// The pin surface.

func (s *Store) PinRead() (release func()) { return func() {} }

func (s *Store) MatchIDsPinned(sub, pred, obj uint32, fn func(s, p, o uint32) bool) {}
