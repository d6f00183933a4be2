package dbm

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the DBM hot ops, so op-level wins (or regressions)
// are measurable independently of end-to-end mcbench runs. Two dimensions
// bracket the tracked workloads: n=6 matches Fischer-5 (tiny zones, where
// per-op constants dominate) and n=24 matches the batch-plant instances
// (where the O(n²)/O(n³) terms dominate).
//
// Each benchmark pre-generates a pool of random canonical zones and cycles
// through it, so the measured loop sees realistic, varied inputs rather
// than one cache-resident matrix.
//
// Those random zones are dense, which hides what the successor-path
// kernels (ConstrainUppers, UpUnder, ExtrapolateLU, Minimal) gain from
// skipping ∞ entries. Their benchmarks also run a "sparse-n=20" pool
// shaped like the 5-batch plant's zones (n = 20, about 17% of entries
// finite; see plantShapedZone), once through the kernel and once through
// its test reference ("-ref"), the code the kernel replaced.

var benchDims = []int{6, 24}

const benchPool = 64

func benchZones(n int) []*DBM {
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	zs := make([]*DBM, benchPool)
	for i := range zs {
		zs[i] = randomZone(rng, n)
	}
	return zs
}

// benchSparseN is the dimension of the plant-shaped pool.
const benchSparseN = 20

// sparseBench is one input of the plant-shaped pool: the freed zone
// extrapolation sees, its LU bounds, the extrapolated zone, an invariant
// of one to five upper bounds that leaves it non-empty, and the zone after
// that invariant (the input of the delay).
type sparseBench struct {
	freed, zone, post *DBM
	lower, upper      []int32
	ups               []Constraint
}

func benchSparse() []sparseBench {
	rng := rand.New(rand.NewSource(2020))
	pool := make([]sparseBench, benchPool)
	for i := range pool {
		p := &pool[i]
		p.freed = freedZone(rng, benchSparseN)
		p.lower, p.upper = randomLU(rng, benchSparseN)
		p.zone = p.freed.Clone()
		extrapolateLURef(p.zone, p.lower, p.upper, false)
		for {
			_, ups := randomInvariant(rng, p.zone, false)
			if len(ups) == 0 {
				continue
			}
			p.post = p.zone.Clone()
			if constrainEachRef(p.post, ups) {
				p.ups = ups
				break
			}
		}
	}
	return pool
}

func BenchmarkMinimal(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			var r Reducer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Minimal(zs[i%benchPool])
			}
		})
	}
	pool := benchSparse()
	b.Run("sparse-n=20", func(b *testing.B) {
		var r Reducer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Minimal(pool[i%benchPool].zone)
		}
	})
	b.Run("sparse-n=20-ref", func(b *testing.B) {
		var r Reducer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			minimalRef(&r, pool[i%benchPool].zone)
		}
	})
}

func BenchmarkConstrainUppers(b *testing.B) {
	pool := benchSparse()
	d := New(benchSparseN)
	for _, ref := range []bool{false, true} {
		name := "sparse-n=20"
		if ref {
			name += "-ref"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &pool[i%benchPool]
				d.CopyFrom(p.zone)
				if ref {
					constrainEachRef(d, p.ups)
				} else {
					d.ConstrainUppers(p.ups)
				}
			}
		})
	}
}

func BenchmarkUpUnder(b *testing.B) {
	pool := benchSparse()
	d := New(benchSparseN)
	for _, ref := range []bool{false, true} {
		name := "sparse-n=20"
		if ref {
			name += "-ref"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &pool[i%benchPool]
				d.CopyFrom(p.post)
				if ref {
					upUnderRef(d, p.ups)
				} else {
					d.UpUnder(p.ups)
				}
			}
		})
	}
}

func BenchmarkInflateInto(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			cs := make([]*Compact, benchPool)
			for i, z := range zs {
				cs[i] = z.Minimal()
			}
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs[i%benchPool].InflateInto(d)
			}
		})
	}
}

func BenchmarkInflateIntoFullClose(b *testing.B) {
	// The full-Close reference: the before/after pair for the
	// pivot-restricted closure in InflateInto.
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			cs := make([]*Compact, benchPool)
			for i, z := range zs {
				cs[i] = z.Minimal()
			}
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inflateFullClose(cs[i%benchPool], d)
			}
		})
	}
}

func BenchmarkIncludesDBM(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			cs := make([]*Compact, benchPool)
			for i, z := range zs {
				cs[i] = z.Minimal()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs[i%benchPool].IncludesDBM(zs[(i+1)%benchPool])
			}
		})
	}
}

func BenchmarkSubsetOf(b *testing.B) {
	// Mix of subset pairs (a zone against its own Up-closure, which always
	// includes it) and unrelated pairs, matching the store's eviction scan
	// where roughly half the surviving tests succeed.
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			cs := make([]*Compact, benchPool)
			ups := make([]*DBM, benchPool)
			upMins := make([]*Compact, benchPool)
			for i, z := range zs {
				cs[i] = z.Minimal()
				ups[i] = z.Clone()
				ups[i].Up()
				upMins[i] = ups[i].Minimal()
			}
			dist := make([]Bound, n*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					cs[i%benchPool].SubsetOf(ups[i%benchPool], upMins[i%benchPool], dist)
				} else {
					j := (i + 1) % benchPool
					cs[i%benchPool].SubsetOf(zs[j], cs[j], dist)
				}
			}
		})
	}
	// The Fischer shape: the newcomer pins a clock difference the stored
	// zone leaves open and agrees with it on every stored bound, so no
	// stored constraint refutes by its own position (see pinnedPair).
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("pinned-n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(3000 + n)))
			olds := make([]*Compact, benchPool)
			news := make([]*DBM, benchPool)
			newMins := make([]*Compact, benchPool)
			for i := range olds {
				oldZ, newZ := pinnedPair(rng, n, randomZone)
				olds[i], news[i], newMins[i] = oldZ.Minimal(), newZ, newZ.Minimal()
			}
			dist := make([]Bound, n*n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % benchPool
				olds[k].SubsetOf(news[k], newMins[k], dist)
			}
		})
	}
}

func BenchmarkUp(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.CopyFrom(zs[i%benchPool])
				d.Up()
			}
		})
	}
}

func BenchmarkReset(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.CopyFrom(zs[i%benchPool])
				d.Reset(1+i%(n-1), int32(i%8))
			}
		})
	}
}

func BenchmarkClose(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.CopyFrom(zs[i%benchPool])
				d.Close()
			}
		})
	}
}

func BenchmarkExtrapolateLU(b *testing.B) {
	for _, n := range benchDims {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zs := benchZones(n)
			lower := make([]int32, n)
			upper := make([]int32, n)
			for i := 1; i < n; i++ {
				lower[i] = int32(i % 7)
				upper[i] = int32(i%5) + 2
			}
			d := New(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.CopyFrom(zs[i%benchPool])
				d.ExtrapolateLU(lower, upper)
			}
		})
	}
	pool := benchSparse()
	d := New(benchSparseN)
	for _, ref := range []bool{false, true} {
		name := "sparse-n=20"
		if ref {
			name += "-ref"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := &pool[i%benchPool]
				d.CopyFrom(p.freed)
				if ref {
					extrapolateLURef(d, p.lower, p.upper, false)
				} else {
					d.ExtrapolateLU(p.lower, p.upper)
				}
			}
		})
	}
}
