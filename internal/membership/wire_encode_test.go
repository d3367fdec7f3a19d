package membership

import "hyperm/internal/transport"

// Encoders the tests build bodies with, under the signatures
// TestWireGoldenBytes was written against, so that the golden test runs
// unchanged on both sides of a codec change. Production code calls
// transport.Encode with the walker; the error results are always nil.

func encodeJoinReq(r JoinReq) []byte { return transport.Encode(&r, walkJoinReq) }

func encodeJoinGrant(g JoinGrant) ([]byte, error) { return transport.Encode(&g, walkJoinGrant), nil }

func encodeHandoffReq(r HandoffReq) ([]byte, error) {
	return transport.Encode(&r, walkHandoffReq), nil
}

func encodePingReq(r PingReq) []byte { return transport.Encode(&r, walkPingReq) }

func encodePingResp(tables []LevelTable) []byte { return transport.Encode(&tables, walkPingResp) }

func encodeTakeoverMsg(msg TakeoverMsg) []byte { return transport.Encode(&msg, walkTakeoverMsg) }

func EncodeStoreRecReq(r StoreRecReq) ([]byte, error) {
	return transport.Encode(&r, WalkStoreRecReq), nil
}

func EncodeStoreRecResp(r StoreRecResp) []byte { return transport.Encode(&r, WalkStoreRecResp) }

func encodeZoneUpdate(u ZoneUpdate) []byte { return transport.Encode(&u, walkZoneUpdate) }
