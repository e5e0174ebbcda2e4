package main

import (
	"sync"
	"time"
)

// The reference host is shared, and its speed drifts by up to ±20% over
// minutes; runs made back to back drift together. A campaign's wall-clock
// tracks a fixed CPU kernel's time almost exactly: across ten runs of one
// seed the per-run medians correlate at 0.98, and their quartile spread
// falls from 0.070 to 0.025 once divided by the kernel time. So every
// timed interval is bracketed by the kernel, and end-to-end times are
// reported at the reference speed: measured × refKernel ÷ kernel time.
// The kernel uses no repository code, so no change to the repository can
// move it.

// refKernel is the kernel's median time on the reference host (2 vCPUs,
// GOMAXPROCS 2). It only scales the reported numbers to seconds on that
// host; comparisons between runs do not depend on it.
const refKernel = 31 * time.Millisecond

// kernel is a fixed xorshift random walk over a 2 MiB table per worker —
// integer ALU work plus cache-missing loads and stores, like the
// simulator's — run on as many goroutines as the campaigns use.
type kernel struct {
	tables [][]uint64
	sink   []uint64
}

const (
	kernelTable = 1 << 18 // words per worker table
	kernelSteps = 3_000_000
)

func newKernel(workers int) *kernel {
	k := &kernel{tables: make([][]uint64, workers), sink: make([]uint64, workers)}
	for i := range k.tables {
		k.tables[i] = make([]uint64, kernelTable)
	}
	return k
}

// run executes the kernel once on every worker and returns its wall-clock.
func (k *kernel) run() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range k.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := k.tables[w]
			x := uint64(w) + 88172645463325252
			var acc uint64
			for i := 0; i < kernelSteps; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				j := x & (kernelTable - 1)
				acc += t[j]
				if acc&1 == 0 {
					t[j] = acc + x
				} else {
					acc ^= j
				}
			}
			k.sink[w] = acc
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// bracket times fn and the kernel just before and just after it, and
// returns fn's time and the mean kernel time.
func (k *kernel) bracket(fn func()) (d, kt time.Duration) {
	before := k.run()
	start := time.Now()
	fn()
	d = time.Since(start)
	return d, (before + k.run()) / 2
}

// atRef converts a time measured while the kernel took kt to the reference
// speed.
func atRef(d, kt time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refKernel) / float64(kt))
}
