package node

import (
	"testing"

	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/transport"
	"hyperm/internal/viewcache"
)

// TestWarmPushIsNotTrustedBlind pins the install rule of handleWarm: a pushed
// view may be out of date by the time it lands (the sender has moved on, and
// this node may already have observed why), so it must never come back from
// the cache as a fresh hit — only as a stale entry the next lookup revalidates
// against the sender's version. Installing at the receiver's current epoch
// let an outdated push name a departed neighbor as if it were current: the
// post-churn failure TestDelegationDifferential hit about once in 150
// full-stack subtests.
func TestWarmPushIsNotTrustedBlind(t *testing.T) {
	sys, err := experiments.BuildMarkovSystem(experiments.Params{Peers: 4, ItemsPerPeer: 10, Dim: 8, Levels: 2, ClustersPerPeer: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sys.PublishAll()
	tr := transport.NewChan()
	defer tr.Close()
	cl, err := StartClusterTuned(sys, tr, nil, transport.Policy{}, membership.Options{}, Tuning{CacheViews: true, AggFanout: 2, WarmPush: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	recv, sender := cl.Nodes[0], cl.Nodes[1]

	for level := 0; level < 2; level++ {
		body, err := encodeWarmReq(sender.peer, level, sender.localFullView(level))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := recv.handleWarm(body); err != nil {
			t.Fatal(err)
		}
		v, outcome, _ := recv.cache.Get(level, sender.peer, recv.mgr.Epoch(level))
		if outcome != viewcache.Stale {
			t.Fatalf("level %d: pushed view came back as outcome %v, want stale (revalidate before use)", level, outcome)
		}
		if v.Version != sender.mgr.Version(level) {
			t.Errorf("level %d: pushed view carries version %d, sender is at %d", level, v.Version, sender.mgr.Version(level))
		}
	}
	if got := recv.Counters()["warm.install"]; got != 2 {
		t.Errorf("warm.install = %v, want 2", got)
	}
}
