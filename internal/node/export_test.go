package node

import (
	"context"

	"hyperm/internal/core"
)

// SerialTuning returns t with every coordinator fan-out at 1: one level
// search, one can_search probe and one fetch in flight at a time, so RPC
// counts repeat exactly.
func SerialTuning(t Tuning) Tuning {
	t.serial = true
	return t
}

// RangeQuery answers a range query with this node as the querying peer,
// driving the overlay lookups peer-to-peer, uncached (the answer memo serves
// the wire). Byte-identical to the source System's RangeQuery from the same
// state. The engine refuses a query of the wrong dimension or with a NaN
// coordinate, and a negative or NaN radius.
func (n *Node) RangeQuery(ctx context.Context, q []float64, eps float64, opts core.RangeOptions) (core.RangeResult, error) {
	return n.engine.RangeQuery(ctx, n.peer, q, eps, opts)
}

// KNNQuery answers a k-nn query with this node as the querying peer; the
// engine refuses bad queries as for RangeQuery, and a k below 1.
func (n *Node) KNNQuery(ctx context.Context, q []float64, k int, opts core.KNNOptions) (core.KNNResult, error) {
	return n.engine.KNNQuery(ctx, n.peer, q, k, opts)
}
