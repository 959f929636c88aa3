// Package rpccluster runs the worker side of the protocol as real network
// services, and gives masters (AVCC or baseline) an executor that drives those
// remote workers instead of the virtual-time simulator.
//
// FrameExecutor / FrameServer are the data plane (frame.go): length-prefixed
// frames over persistent connections, explicit request IDs with immediate
// reaping of abandoned calls, zero-copy []field.Elem payloads, and
// broadcast-once rounds, under the cluster.Executor semantics deadline ∧
// context, transport failure ⇒ erasure, server-side error ⇒ Result.Err.
//
// This is the "it actually distributes" path: the algebra, verification and
// decode logic are byte-identical to the simulated runs; only arrival times
// become wall-clock measurements. cmd/avccdemo wires a full master + 12
// worker processes-worth of servers over loopback.
package rpccluster

import (
	"context"
	"time"
)

// DefaultCallTimeout bounds each worker call unless the caller overrides
// Timeout. A crashed or wedged endpoint costs one timeout, not a wedged
// round: coded computing treats the worker as missing (an erasure) and
// decodes from the survivors.
const DefaultCallTimeout = 30 * time.Second

// effectiveTimeout resolves the per-call deadline of a worker call:
// the configured cap (with 0 meaning DefaultCallTimeout and negative
// meaning no cap) tightened by whatever deadline the round's context
// carries. The boolean reports whether any deadline applies at all.
func effectiveTimeout(cap time.Duration, ctx context.Context) (time.Duration, bool) {
	limit := cap
	has := true
	switch {
	case limit == 0:
		limit = DefaultCallTimeout
	case limit < 0:
		limit, has = 0, false
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); !has || rem < limit {
			limit, has = rem, true
		}
	}
	return limit, has
}
