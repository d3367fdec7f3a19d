# Developer entry points. `make check` is the tier-1 gate (format, vet,
# build, test); `make race` runs every package under the race detector. See
# README.md "Development".

GO ?= go

.PHONY: check fmt vet build test race bench bench-kernels bench-serve bench-serve-smoke bench-mem bench-mem-smoke fuzz soak

check: fmt vet build test

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every package under the race detector. -short keeps the churn soak at its
# reduced 8-node size (the full one is `make soak`, also under -race).
race:
	$(GO) test -race -short ./...

# The full churn soak: a 16-node TCP cluster absorbing scripted joins,
# graceful leaves, and probe-detected crashes under live query load, checked
# byte-identical against the simulator oracle afterwards. `go test ./...`
# runs the reduced 8-node variant via -short in CI's tier-1 gate; this target
# is the full-size run, with the membership protocol under -race for free.
soak:
	$(GO) test -race -run 'TestChurnSoak|TestProtocolMatchesOracle' -count=1 -v ./internal/node ./internal/membership

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# Optimized-vs-reference kernel microbenchmarks (k-means, the Eq 8 solver,
# the holder-side scans at 1k and 50k rows, and the coordinator's id merge
# against concatenate + radix sort over the run shapes the workloads fetch),
# 5 repetitions for benchstat-grade numbers.
bench-kernels:
	$(GO) test -run=^$$ -bench='^(BenchmarkKMeans|BenchmarkSolveEps|BenchmarkLocalRange|BenchmarkLocalKNN|BenchmarkMergeIDs)$$' -benchmem -count=5 ./internal/cluster ./internal/geometry ./internal/core

# Serving-runtime load benchmark: 64 TCP nodes, 8k mixed closed-loop
# requests plus an open-loop latency-under-load sweep, writes
# BENCH_serve.json (fails on any request error). The second phase repeats the
# run on a skewed (Zipf + repeat) stream with the lookup memo and fetch caches
# on (-cache-views), appending its rows to the same artifact — the
# before/after pair the caches' speedup claim is measured from. The uncached and cached skewed phases also run a
# cache-cleared cold phase (-cold): 500 distinct first-touch queries whose
# "cold" row carries coordinator RPCs per query. BENCH_CPUS pins GOMAXPROCS
# for reproducible numbers (recorded in the artifact's env stamp).
BENCH_CPUS ?= 0
bench-serve:
	$(GO) run ./cmd/hyperm-load -nodes 64 -requests 8000 -clients 32 -transport tcp -cpus $(BENCH_CPUS) -sweep 40,80,120,160,200 -sweep-seconds 5s -out BENCH_serve.json
	$(GO) run ./cmd/hyperm-load -nodes 64 -requests 16000 -clients 32 -transport tcp -cpus $(BENCH_CPUS) -zipf 1.5 -repeat 0.5 -cold 500 -append -out BENCH_serve.json
	$(GO) run ./cmd/hyperm-load -nodes 64 -requests 16000 -clients 32 -transport tcp -cpus $(BENCH_CPUS) -zipf 1.5 -repeat 0.5 -cache-views -cold 500 -append -out BENCH_serve.json
	$(GO) run ./cmd/hyperm-load -nodes 64 -requests 16000 -clients 32 -transport tcp -cpus $(BENCH_CPUS) -zipf 1.5 -repeat 0.5 -cache-views -affinity -append -out BENCH_serve.json

# Quick serving smoke for CI: a small 8-node TCP run that fails on any
# request error — catches transport or coordinator regressions in seconds —
# then the same run over a skewed stream with the lookup memo and fetch caches
# on, plus a cache-cleared cold phase (the cached-vs-uncached differential
# smoke: both must come back clean).
bench-serve-smoke:
	$(GO) run ./cmd/hyperm-load -nodes 8 -requests 2000 -clients 8 -transport tcp
	$(GO) run ./cmd/hyperm-load -nodes 8 -requests 2000 -clients 8 -transport tcp -zipf 1.5 -repeat 0.5 -cache-views -affinity -cold 200

# Memory-scale serving benchmark: first the flat-store layout accounting
# (live-heap bytes/item, flat vs the parallel-slice layout it replaced) and
# the arena decode fence benchmark, then a 4-node TCP cluster at 100k
# items/node serving the query mix while an open-loop -publish-rate ingest
# stream grows the stores through the streaming incremental kernel
# (re-clustering after 1000 streamed inserts). The "all" row carries
# heap_bytes, store_bytes(_per_item), gc_pause_p99_ms, and
# store_rec_per_publish — the O(changed clusters) announcement payload; the
# "ingest" row the ingest latencies. Rows append to BENCH_serve.json. The
# offered rates are sized for the single-CPU CI box (a 100k-item first-touch
# fetch scan is ~5-10 ms there); scale them up with the cores.
bench-mem:
	$(GO) test -run TestFlatLayoutHeapBytesPerItem -v ./internal/store
	$(GO) test -run=^$$ -bench='^(BenchmarkFloatsSharedDecode|BenchmarkAppend)$$' -benchmem ./internal/transport ./internal/store
	$(GO) run ./cmd/hyperm-load -nodes 4 -items 100000 -requests 4000 -clients 8 -transport tcp -cpus $(BENCH_CPUS) -cache-views -stream-publish -recluster-every 1000 -publish-rate 50 -append -out BENCH_serve.json

# CI-sized bench-mem: same shape (streamed publishes + ingest under query
# load, memory telemetry on), small enough for seconds-long smoke. Fails on
# any request or ingest error.
bench-mem-smoke:
	$(GO) run ./cmd/hyperm-load -nodes 4 -items 2000 -requests 1500 -clients 8 -transport tcp -cache-views -stream-publish -recluster-every 100 -publish-rate 100

# Short fuzz sessions: the wavelet round-trip invariant, the routing core vs
# the frozen pre-extraction sphere-search reference, the zone split/takeover
# tiling invariants under random churn schedules, the store_rec wire
# round-trip (bounded-count decode: a corrupt length prefix must error, never
# allocate), the delta-coded id sequence of range answers (round
# trip; a corrupt count, varint or running sum must error), both ends of
# the can_search message (sphere list and length-prefixed view list: round
# trip; a corrupt count, view length or trailing byte must error), and both
# forms of the fetch_range / fetch_knn request (plain, and with the caching
# coordinator's id: round trip; a prefix, trailing byte or wrong float count
# must error).
fuzz:
	$(GO) test -fuzz=FuzzDecomposeReconstruct -fuzztime=30s ./internal/wavelet
	$(GO) test -fuzz=FuzzSearchSphere -fuzztime=30s ./internal/can
	$(GO) test -fuzz=FuzzZoneSplitTakeover -fuzztime=30s ./internal/can
	$(GO) test -fuzz=FuzzStoreRecRoundTrip -fuzztime=30s ./internal/membership
	$(GO) test -fuzz=FuzzIntsDeltaRoundTrip -fuzztime=30s ./internal/transport
	$(GO) test -fuzz=FuzzSearchReqRoundTrip -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzSearchRespDecode -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzFetchReqRoundTrip -fuzztime=30s ./internal/node
