# Repro of "A Database Perspective on Lotus Domino/Notes" (SIGMOD 1999).
# Stdlib-only Go; no external tools required beyond the go toolchain.

GO ?= go

.PHONY: all build vet test race stress fuzz verify bench-test benchmark experiment drift loc cover clean

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
# history forks, a batch put over a deletion stub, concurrent Creates of one
# UNID of which exactly one lands, and an Update reading the version it
# replaces once — an allocation bound the race build skips), the replication change
# cursor (never skipping a commit
# racing the scan, nor a note on a second mate pulled under the same peer
# name, that mate seeded by copying the first one's file or not), the seeded
# two-mate history that internal/check audits, replication applies racing
# the receiving mate's own updates and deletes of the same documents (each
# apply stores only over the version it decided on), the snapshot-scan/
# reader-writer latching tests, the bounded
# note walk over the NoteID and the USN index (resumable from a cursor,
# never visiting a note created mid-scan, a note updated ahead of it
# delivered once, and its reused record arena handing out whole versions
# while writers update and delete the notes it walks), the header-only
# decode of replication summaries, the
# group-commit races (64 committers vs checkpoint/compact/hot-backup,
# 64 committers sharing WAL forces, crash-durability of acked batches,
# and a failed WAL fsync under concurrent committers), the server shutdown races (Close
# vs in-flight dispatch vs cluster pushers, failover clients losing a mate
# mid-session), cluster push resuming from its cursor after a mate outage
# or restart and skipping a mate's unrelated database, and the wire client — one lock now guards the whole of it —
# re-sending across mates, racing and cancelling a hedge, and abandoning a
# connection on budget expiry or a session setup that outlives its budget
# — and the change maintainer: stalled while 8,292 changes commit behind it,
# then catching up from the store to the rebuilt indexes, one pass covering
# a hard delete and a re-create, the barrier covering hard deletes and a
# note committed again ahead of the walk, a failed walk releasing the
# barrier, every write reaching it, callbacks starting at the head in
# commit order (also when registered mid-pass) and drained by Close, and a
# panicking callback
# isolated from the writer and the other consumers, and each callback's note
# its own to keep while the maintainer reuses the note it decodes into — the
# notes of a request, decoded into the note slab and arena its connection
# reuses, never outliving the request while two connections alternate
# batch puts and updates — a view added while writers churn equalling
# what a fresh open builds (the rebuild decodes into one reused note and
# arena while the maintainer decodes into its own) — the commit signal that
# wakes cluster
# pushers, mesh hot links and live moves, with a hot link missing no commit
# made right after it is added and debouncing a burst into one round — and
# two full-text indexes updated at once,
# as a home database and its cluster mate are in one process, while one of
# them is searched and snapshotted, and searches and snapshots racing
# deletes that renumber a full-text index's document ordinals — and search
# pages joined from stored records while writers update, restrict, stub and
# delete the hits.
stress:
	$(GO) test -race -count=2 \
		-run 'TestConcurrentUpdatesSeqMonotonic|TestConcurrentCreateSameUNID|TestUpdateReadsStoredVersionOnce|TestRawPutDeleteNoOrphan|TestSaveHistoryConcurrentSeq|TestSummariesCursorNeverSkips|TestPullAcrossMatesNeverSkips|TestPullFromCopySeededMateNeverSkips|TestSeededHistory|TestApplyRacesLocalWrites|TestConcurrentReadersWriters|TestSnapshotScanSeesConsistentPrefix|TestScanDoesNotBlockWriter|TestScanFromCursorSemantics|TestScanSkipsNotesCreatedDuringScan|TestScanRecordsRacingWriters|TestStoreScanSince|TestSummariesDecodeHeaders|TestGroupCommitRacesMaintenance|TestGroupCommitCrashKeepsAckedPuts|TestGroupCommitWALSyncEIO|TestGroupCommitAmortization|TestCloseRacesInflightAndClusterPush|TestClusterPushSurvivesOutage|TestClusterPushSurvivesMateRestart|TestClusterPushSkipsOtherReplica|TestFailoverKillMidNotesSession|TestFailoverKillMidReplicationSession|TestConcurrentMovesExactlyOneWinner|TestUpdatePlacementExactlyOneWinnerPerGeneration|TestLiveMoveZeroLostAckedWrites|TestClientResendsIffIdempotent|TestFailoverResendsIffIdempotent|TestLoneMateIsABareClient|TestOnlyHedgeableOpsHedge|TestHedgedReadWinsOverSlowMate|TestBudgetAbandonThenRecover|TestLocalExpiryOpensBreaker|TestSessionExpiryIsUnambiguous|TestFailoverStalledFirstMate|TestBreakerCountsSpentTurns|TestPutBatchNeverResurrects|TestFeedOverflowCatchesUpFromStore|TestOverflowCatchUpEqualsRebuild|TestPassCoversHardDeleteThenRecreate|TestWaitForUSNCoversHardDelete|TestEveryWriteSharesTheStoreUSN|TestOnChangeSeesCommitsInOrder|TestOnChangeStartsAtHead|TestOnChangeRegistersDuringPasses|TestCloseDrainsConsumers|TestBarrierCoversNoteCommittedAgainInPass|TestFailedWalkReleasesBarrier|TestOnChangeRegisteredMidWalk|TestPanickingOnChangeSubscriberIsIsolated|TestOnChangeOwnsItsNote|TestRequestNotesDoNotOutliveTheirRequest|TestAddViewRacesWriters|TestNotify|TestHotLinkFiresOnWrite|TestHotLinkDebouncesBursts|TestConcurrentUpdateAndSearch|TestSearchRacesRenumber|TestSearchJoinRacingWriters' \
		./internal/core ./internal/repl ./internal/store ./internal/server ./internal/place ./internal/dir ./internal/wire ./internal/check ./internal/ft ./internal/mesh

# Short native-fuzz smoke over the parsers that guard trust boundaries: the
# note codec (every WAL record and wire note passes through it), the frame
# reader (the first parse on every connection), the bulk-page decoders
# (view, scan and search pages a client reads off the wire), the placement
# records (resolve answers and wrong-mate redirects the routing policy
# learns from), the formula compiler (mesh link selection formulas arrive
# over the admin wire ops and from topology files), the incremental-image
# reader (backup images on disk carry a digest anyone can recompute),
# the full-text sidecar reader (it parses what it finds on disk at every
# EnableFullText), the full-text term walker (every indexed text value and
# every query passes through it; checked against the slow ToLower +
# FieldsFunc rule), the view collation key builder (every view entry's sort
# key; checked byte for byte against the segment-per-value reference),
# full-text search (fuzzer-chosen documents, changes and
# queries through the ordinal index, checked against the map-based oracle
# and the linear scan), WAL replay (crash recovery writes logged page images
# back into the page file), the archive readers (point-in-time restore
# replays whatever seg-*.walseg files it finds), and the scan cursor parser
# (a client hands back whatever cursor it likes), the formula text
# comparison (every text compare a selection makes; checked against
# strings.Compare of the strings.ToLower copies), and the server's op
# dispatch (every request body a client sends, on an authenticated
# connection with a database open). Each target also keeps its corpus as
# seed tests under plain `go test`.
fuzz:
	$(GO) test ./internal/nsf -run '^$$' -fuzz FuzzDecodeNote -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzReadFrame -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodeBulkPages -fuzztime 15s
	$(GO) test ./internal/wire -run '^$$' -fuzz FuzzDecodePlacement -fuzztime 15s
	$(GO) test ./internal/formula -run '^$$' -fuzz FuzzCompile -fuzztime 15s
	$(GO) test ./internal/backup -run '^$$' -fuzz FuzzReadIncremental -fuzztime 15s
	$(GO) test ./internal/ft -run '^$$' -fuzz FuzzReadIndex -fuzztime 15s
	$(GO) test ./internal/ft -run '^$$' -fuzz FuzzTerms -fuzztime 15s
	$(GO) test ./internal/view -run '^$$' -fuzz FuzzCollationKey -fuzztime 15s
	$(GO) test ./internal/ft -run '^$$' -fuzz FuzzSearch -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzReplayWAL -fuzztime 15s
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzScanArchive -fuzztime 15s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzDecodeScanCursor -fuzztime 15s
	$(GO) test ./internal/formula -run '^$$' -fuzz FuzzFoldCompare -fuzztime 15s
	$(GO) test ./internal/server -run '^$$' -fuzz FuzzServeOp -fuzztime 15s

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

# Regenerate one W experiment's table and, for W1, W3, W5, W6, W8 and W10,
# its section of the committed baseline BENCH_experiments.json (the other
# sections are left byte-identical). `make experiment` alone runs them all.
# The paper's claims T1-T8 and F1-F5 are package tests that `make test`
# runs. Commit the file after an intentional change; -quick runs never
# write it.
EXP ?= all
experiment:
	$(GO) run ./cmd/experiments -exp $(EXP)

# Bench drift guard: walk the five probes of cmd/experiments/harness.go (W1
# put p50 at 0 and 8 views, W6 re-home median, W8 ring convergence, W10
# hedged p99) at quick sizes and fail on a regression beyond each probe's
# ratio+floor against BENCH_experiments.json, or on any hard invariant (lost
# acked writes, non-converged replicas, < 5x hedged speedup).
drift:
	$(GO) run ./cmd/experiments -exp GUARD -quick

# Non-test Go lines per package (bench/ is its own module and not counted):
# the number ROADMAP asks every simplification to report, before and after.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		printf '%6d  %s\n' $$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l) .$${d#$(CURDIR)}; \
	done; \
	printf '%6d  total\n' $$(cat $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*') | wc -l)

# Non-test functions that no test runs at all: 0.0% under the whole
# suite's -coverpkg=./... profile (cover.out). A census, not a gate.
cover:
	$(GO) test -count=1 -coverpkg=./... -coverprofile=cover.out ./... > /dev/null
	@$(GO) tool cover -func=cover.out | awk '$$NF == "0.0%"'

clean:
	$(GO) clean ./...
