// Package caller stands for a caller module such as the benchmark:
// its references count, and it is not itself analyzed.
package caller

import "testonly/internal/lib"

// Drive calls the API only the caller module uses.
func Drive() { lib.ForCaller() }
