package telemetry

// Robustness tests: the wire decoders must reject arbitrary garbage
// with an error — never panic, never hang, never over-allocate.

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// TestReadFrameNeverPanicsOnGarbage feeds random byte soup to the
// streaming frame parser.
func TestReadFrameNeverPanicsOnGarbage(t *testing.T) {
	f := func(seed uint64, size uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		local := rng.New(seed)
		buf := make([]byte, int(size)%512)
		for i := range buf {
			buf[i] = byte(local.Uint64())
		}
		_, _, _ = readFrame(bytes.NewReader(buf))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCatalogNeverPanics fuzzes the catalog decoder.
func TestDecodeCatalogNeverPanics(t *testing.T) {
	f := func(seed uint64, size uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		local := rng.New(seed)
		buf := make([]byte, int(size)%512)
		for i := range buf {
			buf[i] = byte(local.Uint64())
		}
		_, _ = decodeCatalog(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
