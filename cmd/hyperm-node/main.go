// Command hyperm-node runs one serving node of a Hyper-M cluster over TCP.
//
// Every process rebuilds the same deterministic deployment from the shared
// workload parameters (the simulator doubles as the cluster bootstrap — all
// processes derive identical overlay state from the same seed), extracts its
// own peer's snapshot, and serves it until SIGINT/SIGTERM.
//
// Usage:
//
//	hyperm-node -config node0.json
//
// with a config like:
//
//	{
//	  "peer": 0,
//	  "listen": "127.0.0.1:7400",
//	  "peers": ["127.0.0.1:7400", "127.0.0.1:7401"],
//	  "workload": {
//	    "peers": 2, "items_per_peer": 40, "dim": 32,
//	    "levels": 3, "clusters_per_peer": 4, "seed": 1
//	  }
//	}
//
// "peers" lists every node's address in peer-id order; it must be identical
// across the cluster. Query RPCs ("range", "knn") arriving at this node are
// coordinated by it peer-to-peer via can_search/fetch RPCs to those
// addresses.
//
// A process can instead join a running cluster as a brand-new peer:
//
//	hyperm-node -config joiner.json -join 127.0.0.1:7400
//
// with "peer" set to the next unused peer id (>= the workload's peer count).
// The node starts empty — no snapshot state — and splices itself into the
// live overlay through the bootstrap address: each level's zone owning the
// join point is split and the joiner inherits its share of the index records.
//
// With -probe-interval > 0 the node runs the membership failure detector:
// unresponsive neighbors are declared dead after -fail-after missed probes,
// their zones taken over and their records republished from replicas. -leave
// makes shutdown graceful: zones and records are handed to neighbors first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only when -pprof-addr is set
	"os"
	"os/signal"
	"syscall"
	"time"

	"hyperm/internal/can"
	"hyperm/internal/experiments"
	"hyperm/internal/membership"
	"hyperm/internal/node"
	"hyperm/internal/transport"
)

// workloadConfig mirrors experiments.Params in JSON clothing.
type workloadConfig struct {
	Peers           int   `json:"peers"`
	ItemsPerPeer    int   `json:"items_per_peer"`
	Dim             int   `json:"dim"`
	Levels          int   `json:"levels"`
	ClustersPerPeer int   `json:"clusters_per_peer"`
	Seed            int64 `json:"seed"`
}

type nodeConfig struct {
	Peer     int            `json:"peer"`
	Listen   string         `json:"listen"`
	Peers    []string       `json:"peers"`
	Workload workloadConfig `json:"workload"`
}

func main() { os.Exit(run()) }

func run() int {
	configPath := flag.String("config", "", "path to the node's JSON config (required)")
	joinAddr := flag.String("join", "", "bootstrap address of a running cluster to join as a new, empty peer")
	probeInterval := flag.Duration("probe-interval", time.Second, "liveness probe interval (0 disables crash detection)")
	probeTimeout := flag.Duration("probe-timeout", 250*time.Millisecond, "per-probe response deadline")
	failAfter := flag.Int("fail-after", 3, "consecutive failed probes before a neighbor is declared dead")
	graceful := flag.Bool("leave", false, "leave gracefully on shutdown: hand zones and records to neighbors")
	cacheViews := flag.Bool("cache-views", false, "keep each range/k-nn request's plan for the churn epoch, each contacted peer's answer (this node's own scan included) until a publish there can change it, and the whole answer while it keeps every one of them (the answer memo)")
	streamPublish := flag.Bool("stream-publish", false, "publish through the streaming incremental kernel: O(changed clusters) record deltas announced per publish")
	reclusterEvery := flag.Int("recluster-every", 0, "with -stream-publish, re-cluster this node's levels after this many streamed inserts (0 = never)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
	flag.Parse()
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "hyperm-node: -config is required")
		flag.Usage()
		return 2
	}
	raw, err := os.ReadFile(*configPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: %v\n", err)
		return 1
	}
	var cfg nodeConfig
	if err := json.Unmarshal(raw, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: parsing %s: %v\n", *configPath, err)
		return 1
	}
	w := cfg.Workload
	if *joinAddr == "" {
		if cfg.Peer < 0 || cfg.Peer >= w.Peers {
			fmt.Fprintf(os.Stderr, "hyperm-node: peer %d outside workload of %d peers\n", cfg.Peer, w.Peers)
			return 1
		}
		if len(cfg.Peers) != w.Peers {
			fmt.Fprintf(os.Stderr, "hyperm-node: config lists %d peer addresses for %d peers\n", len(cfg.Peers), w.Peers)
			return 1
		}
	} else if cfg.Peer < w.Peers {
		// A joiner must take a fresh id: founder ids are owned by the
		// snapshot-serving processes of the bootstrap deployment.
		fmt.Fprintf(os.Stderr, "hyperm-node: joining peer id %d collides with the %d founders\n", cfg.Peer, w.Peers)
		return 1
	}

	fmt.Printf("hyperm-node: building workload (peers=%d items/peer=%d dim=%d levels=%d seed=%d)\n",
		w.Peers, w.ItemsPerPeer, w.Dim, w.Levels, w.Seed)
	sys, err := experiments.BuildMarkovSystem(experiments.Params{
		Peers: w.Peers, ItemsPerPeer: w.ItemsPerPeer, Dim: w.Dim,
		Levels: w.Levels, ClustersPerPeer: w.ClustersPerPeer, Seed: w.Seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: %v\n", err)
		return 1
	}
	sys.PublishAll()
	var snap node.Snapshot
	if *joinAddr == "" {
		snap, err = node.ExtractSnapshot(sys, cfg.Peer)
	} else {
		snap, err = node.JoinSnapshot(sys, cfg.Peer)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: %v\n", err)
		return 1
	}

	if *pprofAddr != "" {
		// Opt-in debug listener: the pprof mux only, never the default mux of
		// the serving path, so live profiles can be captured under load.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-node: pprof listen %s: %v\n", *pprofAddr, err)
			return 1
		}
		fmt.Printf("hyperm-node: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintf(os.Stderr, "hyperm-node: pprof server: %v\n", err)
			}
		}()
	}

	tr := transport.NewTCP()
	defer tr.Close()
	nd, err := node.New(node.Config{
		Snapshot:  snap,
		Transport: tr,
		Listen:    cfg.Listen,
		Membership: membership.Options{
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			FailAfter:     *failAfter,
		},
		Tuning: node.Tuning{
			CacheViews:     *cacheViews,
			StreamPublish:  *streamPublish,
			ReclusterEvery: *reclusterEvery,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: %v\n", err)
		return 1
	}
	if err := nd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: %v\n", err)
		return 1
	}
	if len(cfg.Peers) > 0 {
		nd.SetPeers(cfg.Peers)
	}
	if *joinAddr != "" {
		// Join points are derived deterministically from the workload seed and
		// the peer id, so a restarted joiner splits the same zones.
		rng := rand.New(rand.NewSource(w.Seed*1000003 + int64(cfg.Peer)))
		points := make([][]float64, w.Levels)
		for l := range points {
			ov, ok := sys.Overlay(l).(*can.Overlay)
			if !ok {
				fmt.Fprintf(os.Stderr, "hyperm-node: level %d overlay is %T, want *can.Overlay\n", l, sys.Overlay(l))
				nd.Stop()
				return 1
			}
			pt := make([]float64, ov.Dim())
			for d := range pt {
				pt[d] = rng.Float64()
			}
			points[l] = pt
		}
		if err := nd.Join(context.Background(), *joinAddr, points); err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-node: join via %s: %v\n", *joinAddr, err)
			nd.Stop()
			return 1
		}
		fmt.Printf("hyperm-node: peer %d joined the cluster via %s on %s\n", cfg.Peer, *joinAddr, nd.Addr())
	} else {
		fmt.Printf("hyperm-node: peer %d serving %d items on %s\n", cfg.Peer, nd.ItemCount(), nd.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("\nhyperm-node: shutting down")
	if *graceful {
		if err := nd.Leave(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "hyperm-node: graceful leave: %v\n", err)
		} else {
			fmt.Println("hyperm-node: zones handed over")
		}
	}
	if err := nd.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "hyperm-node: stop: %v\n", err)
		return 1
	}
	for name, v := range nd.Counters() {
		fmt.Printf("hyperm-node: %s = %.0f\n", name, v)
	}
	return 0
}
