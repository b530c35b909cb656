// Package pinlock is the golden fixture for the pinlock analyzer:
// every `want` line deliberately violates the store's deadlock rule.
package pinlock

import "store"

// Callback rule: lock-acquiring calls inside Match-family callbacks.

func callbackLookup(s *store.Store) {
	s.MatchIDs(0, 0, 0, func(a, b, c uint32) bool {
		s.Lookup("x") // want `acquires store/dict locks inside a MatchIDs callback`
		return true
	})
}

func callbackResolveOK(s *store.Store) {
	out := make([]string, 0)
	s.MatchIDs(0, 0, 0, func(a, b, c uint32) bool {
		out = append(out, s.ResolveID(a)) // ResolveID is the designed exception
		return true
	})
}

func callbackAddUnderMatch(s *store.Store) {
	s.Match("", "", "", func(tr store.Triple) bool {
		s.Add(tr) // want `acquires store/dict locks inside a Match callback`
		return true
	})
}

func callbackPinnedCount(s *store.Store) {
	s.MatchIDsPinned(0, 0, 0, func(a, b, c uint32) bool {
		s.Count("", "", "") // want `acquires store/dict locks inside a MatchIDsPinned callback`
		return true
	})
}

func callbackPinnedRepin(s *store.Store) {
	s.MatchIDsPinned(0, 0, 0, func(a, b, c uint32) bool {
		rel := s.PinRead() // want `acquires store/dict locks inside a MatchIDsPinned callback`
		rel()
		return true
	})
}

// Transitive rule: the violation hides one call away.

func persistTriple(s *store.Store, tr store.Triple) {
	s.Add(tr) // fine here: no lock held
}

func callbackViaHelper(s *store.Store) {
	s.MatchIDs(0, 0, 0, func(a, b, c uint32) bool {
		persistTriple(s, store.Triple{}) // want `eventually acquires store/dict locks`
		return true
	})
}

// Pin-region rule: between PinRead and its release.

func pinThenLookup(s *store.Store) {
	release := s.PinRead()
	s.Lookup("x") // want `acquires store/dict locks while holding a PinRead pin`
	release()
	s.Lookup("x") // released: fine
}

func pinDeferred(s *store.Store) {
	release := s.PinRead()
	defer release()
	s.MatchIDsPinned(0, 0, 0, func(a, b, c uint32) bool { return true })
	s.Count("", "", "") // want `acquires store/dict locks while holding a PinRead pin`
}

func noPinNoProblem(s *store.Store) {
	s.Lookup("x")
	s.Count("", "", "")
}
