package node

import (
	"context"
	"fmt"

	"hyperm/internal/core"
	"hyperm/internal/transport"
)

// Client issues query and publish RPCs against serving nodes. Each call
// targets one node's address, and that node coordinates whatever multi-hop
// work the request needs.
type Client struct {
	c *transport.Client
}

// NewClient builds a client over tr with the given retry policy (zero value
// = defaults).
func NewClient(tr transport.Transport, p transport.Policy) *Client {
	return &Client{c: transport.NewClient(tr, p)}
}

// Range runs a range query on the node at addr, which acts as the querying
// peer.
func (c *Client) Range(ctx context.Context, addr string, q []float64, eps float64, opts core.RangeOptions) (core.RangeResult, error) {
	resp, err := c.c.Call(ctx, addr, transport.Request{Method: methodRange, Body: transport.Encode(&rangeReq{q, eps, opts}, walkRangeReq)})
	if err != nil {
		return core.RangeResult{}, fmt.Errorf("node: range via %s: %w", addr, err)
	}
	return decodeRangeResp(resp.Body)
}

// KNN runs a k-nn query on the node at addr.
func (c *Client) KNN(ctx context.Context, addr string, q []float64, k int, opts core.KNNOptions) (core.KNNResult, error) {
	resp, err := c.c.Call(ctx, addr, transport.Request{Method: methodKNN, Body: transport.Encode(&knnReq{q, k, opts}, walkKNNReq)})
	if err != nil {
		return core.KNNResult{}, fmt.Errorf("node: knn via %s: %w", addr, err)
	}
	return transport.Decode(resp.Body, walkKNNResp)
}

// Publish post-inserts one item on the node at addr (PostInsert semantics:
// the node's overlay summaries go stale, Fig 10c).
func (c *Client) Publish(ctx context.Context, addr string, id int, item []float64) error {
	_, err := c.c.Call(ctx, addr, transport.Request{Method: methodPublish, Body: transport.Encode(&publishReq{id, item}, walkPublishReq)})
	if err != nil {
		return fmt.Errorf("node: publish via %s: %w", addr, err)
	}
	return nil
}
