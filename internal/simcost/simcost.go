// Package simcost is the analytic cost core shared by every model in
// the repo: the protocol-tier parameters (α scaling, wire-byte
// inflation, chunk caps), the micro-batch geometry derived from a
// buffer size, and the α–β price of one task instance. It is a leaf
// package over internal/ir — internal/sim builds its event-driven
// engine on top of it, and the static models (talloc's §4.4 replay,
// core's Eq. 3–5 estimates, internal/analyze's budget lints and
// internal/analyze/cert's lower bounds) price plans with the very same
// constants without linking the simulator, which keeps packages like
// internal/backend free of a sim dependency.
package simcost

import "github.com/resccl/resccl/internal/ir"

// ProtocolParams are the cost-model parameters of one protocol tier,
// applied on top of a path's base α/β constants:
//
//   - AlphaFactor scales the per-chunk startup latency α. LL's
//     flag-in-data synchronization skips the handshake round trip that
//     dominates α; LL128 keeps most of that win.
//   - BWFactor is the fraction of wire bandwidth that carries payload.
//     LL spends every second 8-byte word on a flag (1/2); LL128 spends 8
//     bytes per 128-byte line (120/128). The simulator charges it by
//     inflating the wire bytes of each chunk, so link capacities and
//     thread-block capabilities stay expressed in wire bytes and
//     contention between tiers remains physical.
//   - MaxChunkBytes caps the transfer chunk size (0 = uncapped). Real
//     NCCL shrinks its slice granularity under LL/LL128 so flag polling
//     granularity stays fine; here the cap is also what lets the
//     low-latency tiers win at small sizes, since a small buffer split
//     into sub-64KiB chunks amortizes α across micro-batches.
type ProtocolParams struct {
	AlphaFactor   float64
	BWFactor      float64
	MaxChunkBytes int64
}

// Params returns the cost-model parameters of a protocol tier.
// ProtoAuto resolves to ProtoSimple: a kernel whose protocol was never
// set simulates exactly as before the tier dimension existed.
func Params(p ir.Protocol) ProtocolParams {
	switch p {
	case ir.ProtoLL:
		return ProtocolParams{AlphaFactor: 0.2, BWFactor: 0.5, MaxChunkBytes: 64 << 10}
	case ir.ProtoLL128:
		return ProtocolParams{AlphaFactor: 0.4, BWFactor: 120.0 / 128.0, MaxChunkBytes: 256 << 10}
	default: // ProtoSimple, ProtoAuto
		return ProtocolParams{AlphaFactor: 1, BWFactor: 1, MaxChunkBytes: 0}
	}
}

// EffectiveChunk applies the tier's chunk cap to a requested chunk size
// (after substituting the 1 MiB default for non-positive requests, as
// PlanFor does).
func (p ProtocolParams) EffectiveChunk(chunkBytes int64) int64 {
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	if p.MaxChunkBytes > 0 && chunkBytes > p.MaxChunkBytes {
		chunkBytes = p.MaxChunkBytes
	}
	return chunkBytes
}

// WireBytes inflates a payload to the bytes the tier puts on the wire.
func (p ProtocolParams) WireBytes(payloadBytes float64) float64 {
	return payloadBytes / p.BWFactor
}

// InstanceCost is the α–β cost in seconds of one task instance: the
// tier-scaled startup α plus the chunk's wire bytes at the path's
// per-TB capability tbCap (bytes/s). A non-positive tbCap prices the
// startup alone. Under Simple both factors are 1, so the result is
// bit-identical to α + chunk/tbCap.
func (p ProtocolParams) InstanceCost(alpha, tbCap, chunkBytes float64) float64 {
	v := alpha * p.AlphaFactor
	if tbCap > 0 {
		v += p.WireBytes(chunkBytes) / tbCap
	}
	return v
}

// Plan describes the derived micro-batch geometry of a run.
type Plan struct {
	// NMicroBatches is n of Eq. 3–5.
	NMicroBatches int
	// ChunkBytes is the effective per-transfer chunk size in bytes.
	ChunkBytes float64
}

// PlanFor derives the micro-batch count and effective chunk size from a
// buffer size: the buffer divides into NChunks chunks per micro-batch;
// n = ⌈S / (chunk·NChunks)⌉ with the chunk shrunk exactly so that
// n·chunk·NChunks == S.
func PlanFor(bufferBytes, chunkBytes int64, nChunks int) Plan {
	if bufferBytes <= 0 {
		bufferBytes = 1
	}
	if chunkBytes <= 0 {
		chunkBytes = 1 << 20
	}
	perMB := chunkBytes * int64(nChunks)
	n := (bufferBytes + perMB - 1) / perMB
	if n < 1 {
		n = 1
	}
	return Plan{
		NMicroBatches: int(n),
		ChunkBytes:    float64(bufferBytes) / (float64(n) * float64(nChunks)),
	}
}
