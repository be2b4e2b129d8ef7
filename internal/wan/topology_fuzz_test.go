package wan

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseTopology: for any spec and wavelength count, ParseTopology
// errors or returns a network that passes Validate with 3..4096 nodes
// and the asked wavelength count; it never panics or hangs. Specs that
// would build 257..4096 nodes are skipped to keep each exec fast (past
// the ceiling a spec must be refused before anything is built).
func FuzzParseTopology(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, wavelengths int) {
		if _, arg, ok := strings.Cut(spec, ":"); ok {
			if n, err := strconv.Atoi(arg); err == nil && n > 256 && n <= maxContinentalNodes {
				t.Skip("topology larger than 256 nodes")
			}
		}
		net, err := ParseTopology(spec, wavelengths, 1)
		if err != nil {
			return
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("%q x %d: accepted a network that fails Validate: %v", spec, wavelengths, err)
		}
		if n := net.G.NumNodes(); n < 3 || n > maxContinentalNodes {
			t.Fatalf("%q x %d: accepted a %d-node network, want 3..%d", spec, wavelengths, n, maxContinentalNodes)
		}
		if net.Wavelengths != wavelengths {
			t.Fatalf("%q x %d: network has %d wavelengths", spec, wavelengths, net.Wavelengths)
		}
	})
}
