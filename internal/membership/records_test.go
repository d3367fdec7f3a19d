package membership

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hyperm/internal/core"
	"hyperm/internal/overlay"
	"hyperm/internal/route"
	"hyperm/internal/transport"
)

// TestStoreRecAsOwnerAppliesOnlyAtOwner sends one announce's routing hop —
// a store_rec as owner — to every node of a 6-node level: each
// non-owner applies nothing (an upsert adds no record; a delete removes not
// even a replica it holds of the record) and answers with zones that do not
// contain the key; the owner applies once, as owner, and answers with zones
// that do.
func TestStoreRecAsOwnerAppliesOnlyAtOwner(t *testing.T) {
	_, fab, mgrs := buildPair(t, 7, 6, 2, 10, Options{})
	key := []float64{0.3, 0.7}
	rec := route.RecordView{Seq: 1 << 41, Entry: overlay.Entry{
		Key: key, Radius: 0.2,
		Payload: core.ClusterRef{Peer: 4, Level: 0, Index: 1, Center: key, Radius: 0.2, Items: 5},
	}}
	call := func(id int, req StoreRecReq) StoreRecResp {
		t.Helper()
		body := transport.Encode(&req, WalkStoreRecReq)
		resp, err := fab.Call(context.Background(), testAddr(id), MethodStoreRec, body)
		if err != nil {
			t.Fatalf("store_rec at %d: %v", id, err)
		}
		v, err := transport.Decode(resp, WalkStoreRecResp)
		if err != nil {
			t.Fatalf("store_rec ack from %d: %v", id, err)
		}
		return v
	}
	count := func(recs []route.RecordView) int {
		n := 0
		for _, r := range recs {
			if r.Seq == rec.Seq {
				n++
			}
		}
		return n
	}
	hop := StoreRecReq{AsOwner: true, Rec: rec}
	owners := 0
	for id, m := range mgrs {
		owns := route.ZonesContain(m.View(0).Zones, key)
		before := m.View(0)
		call(id, hop)
		v := call(id, hop) // a retried hop changes nothing more
		after := m.View(0)
		if v.ID != id || !reflect.DeepEqual(v.Zones, after.Zones) {
			t.Errorf("node %d acknowledged as %d with zones %v, holds %v", id, v.ID, v.Zones, after.Zones)
		}
		if route.ZonesContain(v.Zones, key) != owns {
			t.Errorf("node %d: acknowledged zones contain the key = %v, owner = %v", id, !owns, owns)
		}
		if !owns {
			if !reflect.DeepEqual(before.Owned, after.Owned) || !reflect.DeepEqual(before.Replicas, after.Replicas) {
				t.Errorf("non-owner %d applied a routing hop", id)
			}
			// A replica of the record, as a flood visit would leave it.
			call(id, StoreRecReq{Rec: rec})
			del := hop
			del.Del = true
			call(id, del)
			if n := count(m.View(0).Replicas); n != 1 {
				t.Errorf("non-owner %d: a routing hop's delete left %d replicas of the record, want 1", id, n)
			}
			continue
		}
		owners++
		if count(after.Owned) != 1 || count(after.Replicas) != 0 {
			t.Errorf("owner %d holds the record %d times owned and %d times replicated, want 1 and 0",
				id, count(after.Owned), count(after.Replicas))
		}
	}
	if owners != 1 {
		t.Fatalf("%d nodes own %v, want 1", owners, key)
	}
}

// sendStub is a fabric whose calls to one address hang until their context
// ends; every call is logged per address, with when it returned.
type sendStub struct {
	hang string
	mu   sync.Mutex
	got  map[string][]string
	at   map[string][]time.Time
}

func (s *sendStub) Call(ctx context.Context, addr, method string, body []byte) ([]byte, error) {
	if addr == s.hang {
		<-ctx.Done()
	} else {
		time.Sleep(time.Duration(len(body)%3) * time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got[addr] = append(s.got[addr], string(body))
	s.at[addr] = append(s.at[addr], time.Now())
	return nil, ctx.Err()
}

func (s *sendStub) Collect(context.Context, int, []float64, float64) ([]route.RecordView, error) {
	return nil, nil
}

func (s *sendStub) RouteOwner(context.Context, int, string, []float64) (int, string, error) {
	return 0, "", nil
}

// TestSendAllHungPeer sends a batch of notices, interleaved across four
// addresses, one of which hangs: the other three get theirs at once and in
// order, and sendAll returns within one deadline for the whole batch.
func TestSendAllHungPeer(t *testing.T) {
	stub := &sendStub{hang: "n2", got: map[string][]string{}, at: map[string][]time.Time{}}
	m := NewManager(0, 4, []LevelState{{}}, stub, Options{})
	const deadline = 300 * time.Millisecond
	m.sendTimeout = deadline
	addrs := []string{"n1", "n2", "n3", "n4"}
	var msgs []outMsg
	want := map[string][]string{}
	for i := 0; i < 12; i++ {
		addr := addrs[i%len(addrs)]
		body := fmt.Sprintf("notice %d", i)
		msgs = append(msgs, outMsg{addr: addr, method: MethodZones, body: []byte(body)})
		want[addr] = append(want[addr], body)
	}
	start := time.Now()
	m.sendAll(msgs)
	if took := time.Since(start); took < deadline || took > 2*deadline {
		t.Errorf("sendAll took %v, want one deadline (%v)", took, deadline)
	}
	if !reflect.DeepEqual(stub.got, want) {
		t.Errorf("delivered %v, want each address's notices in order %v", stub.got, want)
	}
	for _, addr := range addrs {
		if addr == stub.hang {
			continue
		}
		if last := stub.at[addr][len(stub.at[addr])-1]; last.Sub(start) > deadline/2 {
			t.Errorf("%s got its last notice after %v: held up behind the hung peer", addr, last.Sub(start))
		}
	}
}
