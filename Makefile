# Developer entry points. `make check` is the tier-1 gate (format, vet,
# build, test); `make race` runs every package under the race detector. See
# README.md "Development".

GO ?= go

.PHONY: check fmt vet build test race bench bench-kernels fuzz soak

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

# Optimized-vs-reference kernel microbenchmarks (k-means, among them at the
# 1- and 4-d shapes of a publish's coarse coefficients, the coarse wavelet
# transform against the full decomposition it replaced, the Eq 8 solver,
# the holder-side scans at 1k and 50k rows plus rotations over four 50k-row
# Markov stores and over 64 500-row 128-d ones that find each out of cache, the coordinator's id union
# against concatenate + radix sort and concatenate + comparison sort over the
# run shapes the workloads fetch, and the range answer's encode and decode at
# 25k and 100k ids, and the simulator's sphere search and insert, whose
# flood visits read kept neighbor views and mark an open-addressing id set),
# 5 repetitions for benchstat-grade numbers.
bench-kernels:
	$(GO) test -run=^$$ -bench='^(BenchmarkKMeans|BenchmarkSubspaceMatrices|BenchmarkSolveEps|BenchmarkLocalRange|BenchmarkLocalKNN|BenchmarkMergeIDs|BenchmarkRangeIDsCodec|BenchmarkSearchSphere|BenchmarkInsertSphere)$$' -benchmem -count=5 ./internal/cluster ./internal/wavelet ./internal/geometry ./internal/core ./internal/node ./internal/can

# Short fuzz sessions: the wavelet round-trip invariant, the coarse
# coefficient matrices vs the frozen full decomposition (float bits, NaN and
# signed zeros included), the routing core vs
# the frozen pre-extraction sphere-search reference, the route machines'
# open-addressing id set vs a map, the holder-side scans
# (sketch bounds and all) vs their frozen reference bodies on indexed stores
# of fuzz-chosen dim, scale and offset, the zone split/takeover
# tiling invariants under random churn schedules, every wire body of the
# membership and node layers (the first input byte picks the message: a body
# the decoder accepts must re-encode to itself, and no strict prefix,
# trailing byte or count beyond the message may be accepted), the
# delta-coded id sequence (round trip; a corrupt count, varint or running sum
# must error), the range answer's bitmap form (an accepted body is the form
# its ids decide; any ids' form round-trips the wire), the split of a can_search response into
# views (a corrupt count, view length or trailing byte must error), both
# forms of the fetch_range / fetch_knn request (plain, and with the caching
# coordinator's id: round trip; a prefix, trailing byte or wrong float count
# must error), and the handlers behind them: arbitrary bodies to Node.handle
# on a started cache-on cluster — the query methods through the answer memo
# included — must be answered or refused, never panic; arbitrary bodies to
# the six membership methods on a fresh 4-node cluster per input must leave
# every zone of the level's dimension and every neighbor table id-sorted,
# duplicate-free and without a self entry.
fuzz:
	$(GO) test -fuzz=FuzzDecomposeReconstruct -fuzztime=30s ./internal/wavelet
	$(GO) test -fuzz=FuzzSubspaceMatrices -fuzztime=30s ./internal/wavelet
	$(GO) test -fuzz=FuzzSearchSphere -fuzztime=30s ./internal/can
	$(GO) test -fuzz=FuzzIDSet -fuzztime=30s ./internal/route
	$(GO) test -fuzz=FuzzZoneSplitTakeover -fuzztime=30s ./internal/can
	$(GO) test -fuzz=FuzzLocalScans -fuzztime=30s ./internal/core
	$(GO) test -fuzz=FuzzMembershipWire -fuzztime=30s ./internal/membership
	$(GO) test -fuzz=FuzzNodeWire -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzIntsDeltaRoundTrip -fuzztime=30s ./internal/transport
	$(GO) test -fuzz=FuzzRangeIDsRoundTrip -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzSearchRespDecode -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzFetchReqRoundTrip -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzNodeHandle -fuzztime=30s ./internal/node
	$(GO) test -fuzz=FuzzMembershipHandle -fuzztime=30s ./internal/membership
