package node

import (
	"hyperm/internal/core"
	"hyperm/internal/transport"
)

// Encoders the tests build bodies with, under the signatures
// TestWireGoldenBytes was written against, so that the golden test runs
// unchanged on both sides of a codec change. Production code calls
// transport.Encode with the walker.

func encodeRangeReq(q []float64, eps float64, opts core.RangeOptions) []byte {
	return transport.Encode(&rangeReq{q, eps, opts}, walkRangeReq)
}

func encodeRangeResp(res core.RangeResult) []byte {
	return transport.Encode(&rangeResp{core.RangeIDsOf(res.Items), res}, walkRangeResp)
}

func encodeKNNReq(q []float64, k int, opts core.KNNOptions) []byte {
	return transport.Encode(&knnReq{q, k, opts}, walkKNNReq)
}

func encodeKNNResp(res core.KNNResult) []byte { return transport.Encode(&res, walkKNNResp) }

func encodePublishReq(id int, item []float64) []byte {
	return transport.Encode(&publishReq{id, item}, walkPublishReq)
}

func encodeSearchReq(reqs []searchReq) []byte { return transport.Encode(&reqs, walkSearchReq) }

func encodeSearchResp(answers []searchAnswer) ([]byte, error) {
	return transport.Encode(&answers, walkSearchResp), nil
}

func encodeInvalReq(holder int, items [][]float64) []byte {
	return transport.Encode(&invalReq{holder, items}, walkInvalReq)
}

// The plain fetch requests have no encoder outside tests: a coordinator writes
// them through fetchKey, which TestFetchDirKeyIsTaggedPlainRequest holds to
// these.
func encodeFetchRangeReq(q []float64, eps float64) []byte {
	return transport.Encode(&fetchRangeReq{q, eps}, walkFetchRangeReq)
}

func encodeFetchKNNReq(q []float64, k int) []byte {
	return transport.Encode(&fetchKNNReq{q, k}, walkFetchKNNReq)
}

func encodeFetchRangeResp(ids core.RangeIDs) []byte { return transport.Encode(&ids, walkRangeIDs) }

func encodeFetchKNNResp(items []core.ItemDist) []byte {
	return transport.Encode(&items, walkFetchKNNResp)
}
