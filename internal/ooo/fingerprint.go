package ooo

import (
	"fmt"
	"hash/fnv"

	"archexplorer/internal/pipetrace"
)

// Fingerprint folds every deterministic field of a trace — stage stamps,
// latencies, all DEG annotations, and the activity statistics — into one
// FNV-1a hash. Two runs agree on the fingerprint iff their pipetrace
// records and stats are byte-identical. It is ChunkedFingerprint over the
// trace's records, so both hash one byte layout.
//
// It is the oracle of the conformance suite (internal/conformance) and of
// the in-package parity tests: the pinned seed fingerprints in
// parity_test.go were captured through this exact byte layout, so the
// layout must never change — a model change that legitimately moves the
// hash is re-pinned there, never absorbed by editing the format.
func Fingerprint(tr *pipetrace.Trace, st *Stats) uint64 {
	return ChunkedFingerprint(tr.Cycles, st, func(hash func(*pipetrace.Record)) {
		for i := range tr.Records {
			hash(&tr.Records[i])
		}
	})
}

// ChunkedFingerprint is Fingerprint over a run delivered as record chunks
// (RunStream): the cycles preamble, every record, then the stats, with the
// record sequence supplied chunk by chunk via the visit callback. Feeding
// it each chunk's records in emission order reproduces exactly what
// Fingerprint computes over the materialized trace.
func ChunkedFingerprint(cycles int64, st *Stats, visit func(hash func(r *pipetrace.Record))) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "cycles=%d\n", cycles)
	visit(func(r *pipetrace.Record) {
		fmt.Fprintf(h, "%d %#x %d %v %v %d %d %v %d %d %d %d %v\n",
			r.Seq, r.PC, r.Class, r.Stamp, r.ResourceDeps(), r.FUProducer,
			r.FURes, r.DataProducers(), r.PortProducer, r.MispredictFrom,
			r.ICacheLat, r.DCacheLat, fpBool(r.Mispredicted))
		fmt.Fprintf(h, "exec=%d\n", r.ExecLat)
	})
	fmt.Fprintf(h, "%+v\n", *st)
	return h.Sum64()
}

func fpBool(b bool) int {
	if b {
		return 1
	}
	return 0
}
