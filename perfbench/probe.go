package main

import "time"

// The host this benchmark was tuned on is shared: the same
// 12000-connection sweep took anywhere from 3.7 s to 6.9 s within one
// hour, its CPU time moving with its wall time, so most of that is other
// tenants' load on the caches and memory rather than time the machine
// was not given. No amount of
// repetition inside a 20-second run removes a drift that lasts minutes.
// The simulator's times are therefore normalized by a fixed reference
// kernel, the probe, run between grid points: a sweep's time is scaled by
// probeNominal over the median probe time of that sweep. A change to the
// simulator moves the normalized time as it moves the raw one; a busier
// host slows the probe as well and cancels out.

// probeSlots is the probe's working set: 2M uint32 = 8 MB, past the
// private caches, so the probe pays for memory latency the way the
// simulator's heap walks do.
const probeSlots = 2 << 20

// probeSteps is the number of dependent loads per probe run.
const probeSteps = 40_000

// probeNominal is what one probe run takes on a quiet host (the 2-CPU
// machine the benchmark was tuned on); normalized times read as if every
// probe had taken exactly this long.
const probeNominal = 2 * time.Millisecond

// hostProbe is the reference kernel: a dependent walk over a random
// permutation that is a single cycle through every slot.
type hostProbe struct {
	next []uint32
	pos  uint32
	sink uint32
}

func newHostProbe() *hostProbe {
	next := make([]uint32, probeSlots)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm with a fixed generator: a uniformly random
	// cyclic permutation, the same on every run.
	x := uint64(0x9e3779b97f4a7c15)
	for i := probeSlots - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int((x >> 33) % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return &hostProbe{next: next}
}

// run times one walk of probeSteps loads.
func (p *hostProbe) run() time.Duration {
	t := time.Now()
	pos := p.pos
	for i := 0; i < probeSteps; i++ {
		pos = p.next[pos]
	}
	p.pos = pos
	p.sink += pos
	return time.Since(t)
}

// normalize scales d by probeNominal over the probe time measured around
// it.
func normalize(d, probe time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(probeNominal) / float64(probe))
}
