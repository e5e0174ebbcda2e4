package pipetrace

// Arena is the chunked backing storage for record annotation slices
// (ResourceDeps, DataProducers). The simulator interns each record's
// annotations into the arena instead of allocating one slice per record;
// the records then hold three-index subslices of arena chunks, so the
// arena must live exactly as long as the records that point into it.
//
// Every Trace embeds an Arena: one arena backs a whole run's trace, and
// each streamed chunk owns the arena its records' annotations live in, so
// releasing a trace releases its annotation storage with it.
type Arena struct {
	deps  []ResourceDep
	prods []int
}

// InternDeps copies a record's resource dependences into the arena and
// returns a stable full-capacity subslice (nil for no deps). The returned
// slice is content-identical to an independently allocated copy; only its
// backing storage is shared with the arena.
func (a *Arena) InternDeps(src []ResourceDep) []ResourceDep {
	if len(src) == 0 {
		return nil
	}
	if cap(a.deps)-len(a.deps) < len(src) {
		c := 2 * cap(a.deps)
		if c < 1024 {
			c = 1024
		}
		// The retired chunk stays referenced by earlier records.
		a.deps = make([]ResourceDep, 0, c)
	}
	start := len(a.deps)
	a.deps = append(a.deps, src...)
	return a.deps[start:len(a.deps):len(a.deps)]
}

// InternProducers is InternDeps for data-producer sequence numbers.
func (a *Arena) InternProducers(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	if cap(a.prods)-len(a.prods) < len(src) {
		c := 2 * cap(a.prods)
		if c < 1024 {
			c = 1024
		}
		a.prods = make([]int, 0, c)
	}
	start := len(a.prods)
	a.prods = append(a.prods, src...)
	return a.prods[start:len(a.prods):len(a.prods)]
}

// reset truncates the arena for reuse, keeping the current chunk's
// capacity. Earlier retired chunks are dropped for the GC.
func (a *Arena) reset() {
	a.deps = a.deps[:0]
	a.prods = a.prods[:0]
}
