package core

import (
	"fmt"
	"testing"
)

// BenchmarkInternerContention is the stripe-win microbenchmark: N
// goroutines (one per P — raise GOMAXPROCS to see scaling) intern and
// release over a bounded hot set. "hot-hits" pins every hot target with a
// standing reference so the measured loop is the pure lock-free path
// (snapshot lookup + CAS acquire/release); "churn" draws from a universe
// past the cap so recycling keeps the stripe locks in play. Comparing
// stripes=1 against stripes=auto shows what sharding buys once the machine
// has cores; on one core the two are within noise.
func BenchmarkInternerContention(b *testing.B) {
	const (
		cap    = 8192
		hotSet = 1024
	)
	for _, sc := range []struct {
		name    string
		stripes int
	}{
		{"stripes=1", 1},
		{"stripes=auto", 0},
	} {
		b.Run(sc.name, func(b *testing.B) {
			b.Run("hot-hits", func(b *testing.B) {
				in := newInterner(cap, sc.stripes)
				hot := make([]Target, hotSet)
				for i := range hot {
					hot[i] = Target(fmt.Sprintf("/hot%d", i))
					in.Intern(hot[i]) // standing reference: stays out of limbo
				}
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := uint32(0)
					for pb.Next() {
						i = i*1664525 + 1013904223
						id := in.Intern(hot[i%hotSet])
						in.Release(id)
					}
				})
			})
			b.Run("churn", func(b *testing.B) {
				in := newInterner(cap, sc.stripes)
				universe := make([]Target, 4*cap)
				for i := range universe {
					universe[i] = Target(fmt.Sprintf("/u%d", i))
				}
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := uint32(0)
					for pb.Next() {
						i = i*1664525 + 1013904223
						id := in.Intern(universe[i%uint32(len(universe))])
						in.Release(id)
					}
				})
			})
		})
	}
}

// BenchmarkInternerPinnedHit measures the pinned re-intern (the simulator
// and loader hot path): a snapshot map lookup, no locks, no refcounts.
func BenchmarkInternerPinnedHit(b *testing.B) {
	const targets = 1024
	in := NewInterner()
	names := make([]Target, targets)
	for i := range names {
		names[i] = Target(fmt.Sprintf("/t%d", i))
		in.Intern(names[i])
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i = i*1664525 + 1013904223
			if in.Intern(names[i%targets]) == NoTarget {
				b.Fail()
			}
		}
	})
}
