# Repro of "A Database Perspective on Lotus Domino/Notes" (SIGMOD 1999).
# Stdlib-only Go; no external tools required beyond the go toolchain.

GO ?= go

.PHONY: all build vet test race stress fuzz verify bench-test benchmark experiment drift loc clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short -race stress pass over the concurrency regression tests: the
# versioned-write races (lost Seq updates, RawPut orphaning, replication
# history forks), the replication change cursor (never skipping a commit
# racing the scan, nor a note on a second mate pulled under the same peer
# name), the snapshot-scan/reader-writer latching tests, the
# group-commit races (64 committers vs checkpoint/compact/hot-backup and
# crash-durability of acked batches), the server shutdown races (Close
# vs in-flight dispatch vs cluster pushers, failover clients losing a mate
# mid-session), and the wire client — one lock now guards the whole of it —
# re-sending across mates, racing and cancelling a hedge, and abandoning a
# connection on budget expiry — and the changefeed: consumers stalled while
# writers lap the ring, then catching up from the store, and a panicking
# subscriber isolated from the writer and the other consumers.
stress:
	$(GO) test -race -count=2 \
		-run 'TestConcurrentUpdatesSeqMonotonic|TestRawPutDeleteNoOrphan|TestSaveHistoryConcurrentSeq|TestSummariesCursorNeverSkips|TestPullAcrossMatesNeverSkips|TestConcurrentReadersWriters|TestSnapshotScanSeesConsistentPrefix|TestScanDoesNotBlockWriter|TestGroupCommitRacesMaintenance|TestGroupCommitCrashKeepsAckedPuts|TestGroupCommitAmortization|TestCloseRacesInflightAndClusterPush|TestFailoverKillMidNotesSession|TestFailoverKillMidReplicationSession|TestConcurrentMovesExactlyOneWinner|TestUpdatePlacementExactlyOneWinnerPerGeneration|TestLiveMoveZeroLostAckedWrites|TestClientResendsIffIdempotent|TestFailoverResendsIffIdempotent|TestLoneMateIsABareClient|TestOnlyHedgeableOpsHedge|TestHedgedReadWinsOverSlowMate|TestBudgetAbandonThenRecover|TestLocalExpiryOpensBreaker|TestFailoverStalledFirstMate|TestBreakerCountsSpentTurns|TestFeedOverflowCatchesUpFromStore|TestOverflowCatchUpEqualsRebuild|TestPanickingOnChangeSubscriberIsIsolated' \
		./internal/core ./internal/repl ./internal/store ./internal/server ./internal/place ./internal/dir ./internal/wire

# Short native-fuzz smoke over the parsers that guard trust boundaries: the
# note codec (every WAL record and wire note passes through it), the frame
# reader (the first parse on every connection), the bulk-page decoders
# (view, scan and search pages a client reads off the wire), the formula
# compiler (mesh link selection formulas arrive over the admin wire ops and
# from topology files), and the incremental-image reader (backup images on
# disk carry a digest anyone can recompute). Each target also keeps its
# corpus as seed tests under plain `go test`.
fuzz:
	$(GO) test ./internal/nsf -run '^$$' -fuzz FuzzDecodeNote -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReadFrame -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeBulkPages -fuzztime 15s
	$(GO) test ./internal/formula -run '^$$' -fuzz FuzzCompile -fuzztime 15s
	$(GO) test ./internal/backup -run '^$$' -fuzz FuzzReadIncremental -fuzztime 15s

# bench/ is a module of its own (it replaces repro with ../), so the root
# `go test ./...` never compiles it: this is what makes a signature change
# that breaks bench/layers.go fail here instead of in the benchmark run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The canonical benchmark (BENCHMARK.json): four workloads, 8 s each. See
# bench/README.md for flags (-workload, -seed, -trace 1, -quick, -compare).
benchmark:
	$(GO) run -C bench .

# verify is the tier-1 gate: build, vet, full tests (the benchmark module's
# included), the race detector, and the concurrency stress pass.
verify: build vet test bench-test race stress

# Regenerate one experiment's table and, for W1/W3..W10, its section of the
# committed baseline BENCH_experiments.json (the other sections are left
# byte-identical). `make experiment` alone runs the whole suite. Commit the
# file after an intentional change; -quick runs never write it.
EXP ?= all
experiment:
	$(GO) run ./cmd/experiments -exp $(EXP)

# Bench drift guard: walk the probe table of cmd/experiments/harness.go (W1
# put p50 at 0/8 views, W7 1- and 64-writer puts/s, W6 re-home median, W8
# ring convergence, W9 view open, W10 hedged p99) at quick sizes and fail on
# a regression beyond each probe's ratio+floor against BENCH_experiments.json,
# or on any hard invariant (lost acked writes, non-converged replicas, < 5x
# paged or hedged speedup).
drift:
	$(GO) run ./cmd/experiments -exp GUARD -quick

# Non-test Go lines per package (bench/ is its own module and not counted):
# the number ROADMAP asks every simplification to report, before and after.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		printf '%6d  %s\n' $$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l) .$${d#$(CURDIR)}; \
	done; \
	printf '%6d  total\n' $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*') | wc -l)

clean:
	$(GO) clean ./...
