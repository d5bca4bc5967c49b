GO ?= go
FUZZTIME ?= 10s

.PHONY: all build test race vet fmt fanout wiring fuzz chaos chaos-repl chaos-elect chaos-router stress crash replay-e2e check bench bench-index bench-repl bench-failover bench-router bench-all

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One owner for data-parallel fan-out: internal/par is the only
# non-test code under internal/ that may read runtime.GOMAXPROCS, so no
# package grows its own worker pool again.
fanout:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' 'runtime\.GOMAXPROCS' internal | grep -v '^internal/par/'); \
	if [ -n "$$out" ]; then \
		echo "runtime.GOMAXPROCS outside internal/par (use par.For):"; echo "$$out"; exit 1; \
	fi

# One owner for node assembly: internal/node is the only non-test code
# under cmd/ and internal/ (besides the election and repl packages
# themselves) that builds electors and replication roles, so the
# server, the benches and the chaos suites boot the same wiring.
wiring:
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'election\.New\(|repl\.New(Leader|Follower|FollowerNode)\(' cmd internal | grep -vE '^internal/(node|election|repl)/'); \
	if [ -n "$$out" ]; then \
		echo "node wiring outside internal/node (use node.New):"; echo "$$out"; exit 1; \
	fi

# Fault-injection suite: replays the online algorithm against a jobs
# data storage with injected transient/permanent faults (including a
# mid-replay crash + registry restore) and checks the degraded-mode
# accounting, under the race detector.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/...

# Short smoke runs of every fuzz target (go allows one -fuzz pattern
# per invocation, so one line each).
fuzz:
	$(GO) test -run=^$$ -fuzz=^FuzzTokenize$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzEmbed$$ -fuzztime=$(FUZZTIME) ./internal/encode
	$(GO) test -run=^$$ -fuzz=^FuzzReadJSONL$$ -fuzztime=$(FUZZTIME) ./internal/store
	$(GO) test -run=^$$ -fuzz=^FuzzTimeoutHeader$$ -fuzztime=$(FUZZTIME) ./internal/admission
	$(GO) test -run=^$$ -fuzz=^FuzzWALFrame$$ -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=^FuzzCursor$$ -fuzztime=$(FUZZTIME) ./internal/httpapi
	$(GO) test -run=^$$ -fuzz=^FuzzIndexModel$$ -fuzztime=$(FUZZTIME) ./internal/ml/knn

# Replication chaos suite: a crashfs-backed leader is killed at seeded
# byte offsets mid-group-commit, mid-compaction and mid-retrain; the
# follower must keep serving reads throughout, drain the leader's
# durable prefix, and a promotion must surface every acknowledged
# insert on the new leader (and nothing never attempted), under the
# race detector.
chaos-repl:
	$(GO) test -race -count=1 -run 'ReplChaos' ./internal/repl

# Election chaos suite: three live nodes under seeded heartbeat
# blackholes, wedged leader disks (mid-group-commit / mid-compaction),
# hard kills and asymmetric partitions; asserts at most one node holds
# an ackable lease at any sampled instant, zero acked-write loss across
# every unassisted failover, and bounded time-to-new-leader, under the
# race detector.
chaos-elect:
	$(GO) test -race -count=1 -run 'ElectChaos' ./internal/election

# Front-door chaos suite: seeded dead-backend + 10×-slow-backend reads
# with zero client-observed errors and a bounded p99, a leader kill
# mid-write-stream with at most one hard failure before the 421 chase
# re-points, a backend kill mid-SSE, and a router restart mid-SSE with
# Last-Event-ID continuity — all under the race detector.
chaos-router:
	$(GO) test -race -count=1 -run 'RouterChaos' ./internal/router

# Overload stress: drives the admission controller and the full HTTP
# serving path through a 10x concurrency burst under the race detector
# and checks the shed-accounting identity holds exactly.
stress:
	$(GO) test -race -count=1 -run 'Overload|AccountingIdentityUnderStress' ./internal/admission ./internal/httpapi

# Crash-consistency suite: seeded kill points at arbitrary byte offsets
# over a fault-injecting filesystem (torn writes, bit flips, lost
# unsynced tails); checks acknowledged inserts survive recovery exactly,
# under the race detector.
crash:
	$(GO) test -race -count=1 -run 'Crash' ./internal/wal ./internal/store

# Golden replay equivalence: a ×100 replay through the live HTTP path
# (NDJSON ingest, classify, train) must reproduce the offline
# simulator's timeline — model versions and per-day F1 to 3 decimals —
# and a paused replay must resume without duplicating or dropping
# records.
replay-e2e:
	$(GO) test -race -count=1 -run 'ReplayE2E' ./internal/replay

check: build vet fmt fanout wiring race chaos chaos-repl chaos-elect chaos-router stress crash fuzz replay-e2e bench-index

# Serving-path perf trajectory: single classify hot/cold in the
# embedding cache, 1000-job batch serial vs. all cores, full train.
bench:
	$(GO) run ./cmd/mcbound-bench -out BENCH_serving.json

# Recall-gated index sweep: brute-force vs IVF classify latency and
# measured recall at training-set scales ×1/×10/×100; exits 1 if
# recall@k drops below 0.95 at any scale.
bench-index:
	$(GO) run ./cmd/mcbound-bench -scenario index -out BENCH_serving.json

# Replication trajectory: steady-state follower lag p50/p99 and
# leader-death → first-accepted-write failover time; exits 1 if the
# promoted leader lost any acknowledged insert.
bench-repl:
	$(GO) run ./cmd/mcbound-bench -scenario repl -out BENCH_serving.json

# Unassisted failover trajectory: >= 20 seeded leader kills under live
# electors; records leader-death → first-accepted-write p50/p99 with no
# operator promote; exits 1 on any acked-write loss.
bench-failover:
	$(GO) run ./cmd/mcbound-bench -scenario failover -out BENCH_serving.json

# Front-door trajectory: read p50/p99 through the router healthy vs
# one-dead-one-10×-slow, router overhead over a direct read, hedge and
# retry counts; exits 1 if any degraded read errors to the client.
bench-router:
	$(GO) run ./cmd/mcbound-bench -scenario router -out BENCH_serving.json

bench-all:
	$(GO) test -bench=. -benchmem -run=^$$ ./...
