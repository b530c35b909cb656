// Package lib carries a deliberate testonly violation: Helper is
// exported API that only lib's own test calls. The sapphire-vet test
// chdirs into this module and asserts the gate exits nonzero.
package lib

// Helper is reached only from lib_test.go.
func Helper() int { return 1 }
