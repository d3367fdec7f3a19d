package node

import (
	"context"
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
)

// Cluster is a set of serving nodes covering every peer of a deployment,
// started together and wired to each other's addresses — the single-process
// cluster used by the integration tests.
type Cluster struct {
	Nodes []*Node
	// Addrs[p] is peer p's serving address ("" for peers that have left).
	Addrs []string

	// Construction parameters, kept so Join can build later arrivals the same
	// way the founders were built.
	tr     transport.Transport
	listen func(peer int) string
	retry  transport.Policy
	mopts  membership.Options
	tuning Tuning
}

// StartClusterTuned snapshots every peer of sys, starts one node per peer on
// the transport (listen(p) supplies each listen address — "" for the chan
// transport, "127.0.0.1:0" for TCP), and installs the full address book on
// every node. On error, already-started nodes are stopped. Membership RPCs
// are always served; a positive mopts.ProbeInterval also turns every node
// into a live failure detector that takes over crashed neighbors' zones and
// republishes their records. tuning sets every node's caches and publish path
// (see Tuning).
func StartClusterTuned(sys *core.System, tr transport.Transport, listen func(peer int) string, retry transport.Policy, mopts membership.Options, tuning Tuning) (*Cluster, error) {
	snaps, err := ExtractAll(sys)
	if err != nil {
		return nil, err
	}
	if listen == nil {
		listen = func(int) string { return "" }
	}
	c := &Cluster{tr: tr, listen: listen, retry: retry, mopts: mopts, tuning: tuning}
	for p, snap := range snaps {
		nd, err := New(Config{Snapshot: snap, Transport: tr, Listen: listen(p), Retry: retry, Membership: mopts, Tuning: tuning})
		if err != nil {
			c.Stop()
			return nil, err
		}
		if err := nd.Start(); err != nil {
			c.Stop()
			return nil, fmt.Errorf("node: starting peer %d: %w", p, err)
		}
		c.Nodes = append(c.Nodes, nd)
		c.Addrs = append(c.Addrs, nd.Addr())
	}
	for _, nd := range c.Nodes {
		nd.SetPeers(c.Addrs)
	}
	return c, nil
}

// Join grows the cluster by one node: it builds an empty peer with id
// len(Nodes) from a JoinSnapshot of sys, starts it, and splices it into the
// live overlay through the bootstrap address, splitting the zone owning
// points[l] at each level (see Node.Join). The oracle twin of one Join is
// core.System.JoinPeer with the same points — applied to sys by the caller,
// before or after, as this only reads sys's static config and bounds.
func (c *Cluster) Join(ctx context.Context, sys *core.System, bootstrap string, points [][]float64) (*Node, error) {
	peer := len(c.Nodes)
	snap, err := JoinSnapshot(sys, peer)
	if err != nil {
		return nil, err
	}
	nd, err := New(Config{Snapshot: snap, Transport: c.tr, Listen: c.listen(peer), Retry: c.retry, Membership: c.mopts, Tuning: c.tuning})
	if err != nil {
		return nil, err
	}
	if err := nd.Start(); err != nil {
		return nil, fmt.Errorf("node: starting joiner %d: %w", peer, err)
	}
	if err := nd.Join(ctx, bootstrap, points); err != nil {
		nd.Stop()
		return nil, fmt.Errorf("node: joining peer %d: %w", peer, err)
	}
	c.Nodes = append(c.Nodes, nd)
	c.Addrs = append(c.Addrs, nd.Addr())
	return nd, nil
}

// Stop shuts every node down.
func (c *Cluster) Stop() {
	for _, nd := range c.Nodes {
		nd.Stop()
	}
}
