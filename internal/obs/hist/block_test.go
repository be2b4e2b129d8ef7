package hist

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// refRing is how a bucket held its samples before it held blocks: a
// ring of the last retain samples, the oldest overwritten once full.
// It is the reference the blocks are held to.
type refRing struct {
	raw  []obs.Sample // raw[head] is the oldest once full
	head int
}

func (r *refRing) append(retain int, s obs.Sample) {
	if len(r.raw) < retain {
		r.raw = append(r.raw, s)
		return
	}
	r.raw[r.head] = s
	r.head = (r.head + 1) % len(r.raw)
}

func (r *refRing) samples() []obs.Sample {
	return append(append([]obs.Sample(nil), r.raw[r.head:]...), r.raw[:r.head]...)
}

// specialValues are the doubles whose bits a lossy or value-comparing
// codec would get wrong.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1, 100, 200,
}

// randomSample draws the next sample after prev: mostly the cadence
// and value of a stable series, with repeats, jumps backwards and
// forwards, int64 extremes and special doubles mixed in.
func randomSample(r *rng.Source, prev obs.Sample) obs.Sample {
	s := prev
	switch k := r.Intn(20); {
	case k < 12:
		s.T += 6 * time.Hour
	case k < 14:
		// same timestamp
	case k < 16:
		s.T -= time.Duration(r.Uint64() % uint64(48*time.Hour))
	case k < 18:
		s.T = time.Duration(r.Uint64())
	case k == 18:
		s.T = math.MinInt64
	default:
		s.T = math.MaxInt64
	}
	switch k := r.Intn(10); {
	case k < 6:
		// same value
	case k < 8:
		s.V = specialValues[r.Intn(len(specialValues))]
	default:
		s.V = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	return s
}

// TestBlocksMatchRing: random appends decode bit for bit what the old
// ring held — same retained samples in the same order, the same counts
// — at retention 1, 3, a block's size ± 1 and the default, including
// timestamps out of order and NaN, −0 and infinite values.
func TestBlocksMatchRing(t *testing.T) {
	for _, retain := range []int{1, 3, blockSize - 1, blockSize, blockSize + 1, DefaultRetain} {
		r := rng.New(uint64(retain))
		var b bucket
		var ref refRing
		var s obs.Sample
		n := 3*retain + 2*blockSize + r.Intn(blockSize)
		for i := 1; i <= n; i++ {
			s = randomSample(r, s)
			b.append(retain, s)
			ref.append(retain, s)
			if i%61 != 0 && i != n {
				continue
			}
			got, want := b.appendRaw(nil), ref.samples()
			if b.total != uint64(i) || b.kept != len(want) || len(got) != len(want) {
				t.Fatalf("retain %d, %d appends: total %d, kept %d, decoded %d; ring holds %d",
					retain, i, b.total, b.kept, len(got), len(want))
			}
			for j := range want {
				if got[j].T != want[j].T || math.Float64bits(got[j].V) != math.Float64bits(want[j].V) {
					t.Fatalf("retain %d, %d appends: sample %d = (%d, %#x), ring holds (%d, %#x)", retain, i, j,
						got[j].T, math.Float64bits(got[j].V), want[j].T, math.Float64bits(want[j].V))
				}
			}
			if held := len(b.sealed)*blockSize + b.n - b.skip; held != b.kept {
				t.Fatalf("retain %d, %d appends: blocks hold %d samples past the skip, kept %d", retain, i, held, b.kept)
			}
			if len(b.sealed) > 0 && b.skip >= blockSize {
				t.Fatalf("retain %d: a fully aged-out block is still held (skip %d)", retain, b.skip)
			}
		}
	}
}
