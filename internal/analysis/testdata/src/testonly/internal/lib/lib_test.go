package lib

import "testing"

// A reference from a test file does not count.
func TestTestedOnly(t *testing.T) { TestedOnly() }
