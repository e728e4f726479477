package main

import (
	"sync"
	"time"
)

// The host calibration kernel is a fixed amount of work that resembles the
// program's own hot loops: a chain of integer hashing (like the samplers' RNG
// and edge-key arithmetic) and dependent loads scattered over a table the
// size of a core's L2 (like adjacency-list walks over a graph that fits in
// cache). It allocates nothing and reads only a table built once at
// start-up, so its duration moves only with the host: clock speed, cache
// contention from neighbours and scheduler steal. Timing metrics are reported
// as raw × nominalKernelMS ÷ (median kernel time in the run), i.e. in
// reference-host units. On the reference host this mix tracked the
// run-to-run drift of the sampling workloads better than a DRAM-bound
// pointer chase (which barely followed it) or a streaming-write kernel
// (which over-corrects).

const (
	// kernelSlots is the size of the pointer-chasing table: 2^16 uint32
	// slots (256 KiB).
	kernelSlots = 1 << 16
	// kernelHashSteps is the length of the integer-hashing chain.
	kernelHashSteps = 4 << 20
	// kernelChaseSteps is the number of dependent loads.
	kernelChaseSteps = 2 << 20
	// nominalKernelMS is the kernel's median duration on the reference host
	// (a 2-vCPU x86-64 Linux VM), the unit every normalised timing is
	// expressed in.
	nominalKernelMS = 21.0
)

// kernelNext holds one cycle through all slots (Sattolo's algorithm with a
// fixed xorshift stream), so the chase visits every slot in a random order.
var kernelNext = buildKernelCycle()

func buildKernelCycle() []uint32 {
	next := make([]uint32, kernelSlots)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(0x9E3779B97F4A7C15)
	for i := kernelSlots - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}

// kernel runs the calibration work once and returns a checksum, which the
// caller keeps so the compiler cannot drop the loops.
func kernel() uint64 {
	h := uint64(1)
	for s := 0; s < kernelHashSteps; s++ {
		h = h*6364136223846793005 + 1442695040888963407
		h ^= h >> 29
	}
	i := uint32(h) & (kernelSlots - 1)
	for s := 0; s < kernelChaseSteps; s++ {
		i = kernelNext[i]
	}
	return h ^ uint64(i)
}

// kernelStreams is the number of kernel copies one calibration runs at once,
// one per core the workloads use: the pinned 2 structural streams and fit
// workers keep both vCPUs busy, and steal or contention on either core shows
// in the workloads, so the calibration has to see both cores too.
const kernelStreams = 2

// calibrator times kernel calls interleaved with the measured work (never
// concurrently with it) and turns the median into a normalisation factor.
type calibrator struct {
	samplesMS []float64
	sink      uint64
}

// run times one calibration: kernelStreams kernels side by side, until the
// last one finishes.
func (c *calibrator) run() {
	var sums [kernelStreams]uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sums {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sums[i] = kernel()
		}(i)
	}
	wg.Wait()
	c.samplesMS = append(c.samplesMS, msSince(start))
	for _, s := range sums {
		c.sink ^= s
	}
}

// refMS is the median kernel time measured so far, in milliseconds.
func (c *calibrator) refMS() float64 { return median(c.samplesMS) }

// factor converts a raw duration measured in this run into reference-host
// units: normalised = raw × factor.
func (c *calibrator) factor() float64 { return normFactor(c.refMS()) }

// normFactor is nominalKernelMS ÷ the measured kernel time.
func normFactor(refMS float64) float64 {
	if refMS <= 0 {
		return 1
	}
	return nominalKernelMS / refMS
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
