# Tier-1 CI gate (ROADMAP.md): `make ci` must pass on every PR.
#
#   vet          go vet + a gofmt -l cleanliness check over everything
#   build        compile everything
#   test         full unit/differential suite (including the gapped-layout
#                property tests of internal/btree, DESIGN.md §10)
#   race         the concurrency-heavy packages under the race detector
#                (the pipeline, the PALM BSP stages — including the
#                sorted-batch kernel differential tests vs the oracle —
#                the sharded engine, the facade stream and service hammers,
#                the WAL syncer, the batcher close/submit races, and the
#                metrics registry's sharded counters under snapshot vs
#                live Serve traffic, and the TCP server front end's
#                connection/drain machinery)
#   race-scan    the scan/RMW execution paths (epoch-fenced engine
#                batches, the pipeline's extended path, shard scan
#                split/merge, facade scans) under the race detector
#   race-tiered  the cold-range tier store (DESIGN.md §14) under the
#                race detector: the run/residency unit tests, the tier
#                engine's demotion/promotion/fault paths, the
#                facade-level tiered integration tests (checkpoint,
#                snapshot portability, lost-tier-dir recovery), and the
#                harness's tiered sharded and streamed runs
#   fuzz-smoke   10s runs of the shard differential fuzzer (the
#                sharded/serial equivalence property of DESIGN.md §6,
#                including scan/RMW arms), the
#                autoshard differential fuzzer (random ops with the
#                resharding controller stepping between batches vs the
#                serial oracle, DESIGN.md §13), the
#                range/RMW differential fuzzer (every engine mode vs
#                the oracle on batches mixing all five ops,
#                DESIGN.md §11), the crash-recovery fuzzer (the
#                durability property of DESIGN.md §7: power cut at an
#                arbitrary byte, then recover to an acked whole-batch
#                prefix — with RMW in the workload), the tree fuzzer
#                (the serial gapped tree vs a map oracle, DESIGN.md
#                §10), the wire-protocol frame decoder
#                (canonical re-encode property, DESIGN.md §12), and the
#                tiered differential fuzzer (tiered facade vs the plain
#                facade and a map oracle with random demotion budgets,
#                DESIGN.md §14; the crash-recovery fuzzer also carries
#                a tiered pre-crash arm), the QSAT fuzzer (one-pass
#                QSAT's answers and final store vs the serial
#                reference — the only transform), and the radix fuzzer
#                (RadixSortRun vs a stable key sort — the only sort)
#   bench-smoke  one-iteration compile-and-run of the pipeline benchmark
#                plus a tiny tiered-experiment run (catches bit-rot in
#                the bench harnesses without paying for a measurement)
#   perfbench-smoke  the tests of the benchmark program (perfbench/ is
#                its own Go module, so `go test ./...` at the root never
#                compiles it; this catches a facade change that breaks it)

GO ?= go

.PHONY: ci vet build test race race-scan race-server race-autoshard race-tiered fuzz-smoke bench-smoke perfbench-smoke bench bench-check bench-scan bench-serve bench-autoshard bench-tiered

ci: vet build test race race-scan race-server race-autoshard race-tiered fuzz-smoke bench-smoke perfbench-smoke

vet:
	$(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/palm ./internal/shard ./internal/wal ./internal/batcher ./internal/metrics ./internal/server ./qtrans

# The scan/RMW paths (DESIGN.md §11) under the race detector: the
# engine's epoch-fenced extended batches across all modes,
# the pipeline's drain-and-fence tree stage, the shard splitter/merger
# on straddling scans, and the facade-level batch API. Also part of the
# plain `race` target's package runs; kept callable on its own.
race-scan:
	$(GO) test -race -run 'ScanRMW|ScanNeverReordered|CoveringKill|ScanStats|CacheDrained|PlanEpochs' -count=1 ./internal/core
	$(GO) test -race -run 'SplitScan|Scan' -count=1 ./internal/shard
	$(GO) test -race -run 'BatchScanAndRMW' -count=1 ./qtrans

# The network front end (DESIGN.md §12) under the race detector: the
# full client/server stack — pipelining, flush-before-block at both
# ends of a connection, admission-control shedding, and the mid-load
# graceful drain — the client's scripted-peer tests, plus the batcher
# stall regression suite it depends on. Also part of the plain `race`
# target; kept callable on its own for server work.
race-server:
	$(GO) test -race -count=1 ./internal/server/...
	$(GO) test -race -run 'Stall|SubmitFlushClose' -count=1 ./internal/batcher
	$(GO) test -race -count=1 ./cmd/qtransserver

# Cold-range tiering (DESIGN.md §14) under the race detector: the full
# tier package (run/residency formats, store demotion/promotion, the
# wrapping engine's cold-search faulting), plus the facade-level tiered
# integration tests and the harness's tiered sharded and streamed runs.
# Also part of the plain `race` target's ./qtrans run; kept callable on
# its own for tier work.
race-tiered:
	$(GO) test -race -count=1 ./internal/tier
	$(GO) test -race -run 'Tiered' -count=1 ./qtrans
	$(GO) test -race -run 'Tiered' -count=1 ./internal/harness

# Traffic-aware autosharding (DESIGN.md §13) under the race detector:
# the controller policy tests (split/merge/hysteresis/boundary moves),
# the migration cache hand-off, and the facade-level hammer that runs
# the background controller against concurrent batch traffic. Also part
# of the plain `race` target's package runs; kept callable on its own.
race-autoshard:
	$(GO) test -race -run 'Autoshard' -count=1 ./internal/shard ./qtrans

fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzShardEquivalence -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzAutoshard -fuzztime=10s ./internal/shard
	$(GO) test -run=^$$ -fuzz=FuzzRangeRMWEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzCrashRecovery -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTieredEquivalence -fuzztime=10s ./qtrans
	$(GO) test -run=^$$ -fuzz=FuzzTreeOps -fuzztime=10s ./internal/btree
	$(GO) test -run=^$$ -fuzz=FuzzFrameDecode -fuzztime=10s ./internal/server
	$(GO) test -run=^$$ -fuzz=FuzzQSATEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzRadixSortRun -fuzztime=10s ./internal/bsp

bench-smoke:
	$(GO) test -run=XXX -bench=BenchmarkPipeline -benchtime=1x .
	$(GO) test -run=XXX -bench=BenchmarkDurability -benchtime=1x ./qtrans
	$(GO) run ./cmd/qtransbench -experiment tiered -scale 0.0002 -batches 2 -workers 2

perfbench-smoke:
	cd perfbench && $(GO) test ./...

# Full benchmark sweep with allocation reporting (not part of ci).
bench:
	$(GO) test -run=XXX -bench=. -benchmem .

# Paired comparison of the parent commit against HEAD on the repository
# benchmark (scripts/benchcmp.py): 3 interleaved pairs per workload at
# --seconds 3, judged against the BENCHMARK.json bounds. Not part of ci:
# the 2-vCPU host drifts 18-25% between sessions, and the sweep takes
# about a quarter of an hour. Use --pairs 10 --seconds 10 for evidence.
bench-check:
	python3 scripts/benchcmp.py --base HEAD~1 --head HEAD --pairs 3 --seconds 3

# Range scans and read-modify-write (DESIGN.md §11): batched scans vs
# the same coverage as repeated point gets, and AddDelta vs the
# two-round search-then-insert a client without server-side RMW would
# issue — written to BENCH_scan.json (not part of ci).
bench-scan:
	$(GO) run ./cmd/qtransbench -experiment scan -scale 0.05 -json BENCH_scan.json

# Traffic-aware autosharding under a drifting hotspot (DESIGN.md §13):
# the autoshard controller vs the best static equal-count layout at 4
# shards — written to BENCH_autoshard.json (not part of ci).
bench-autoshard:
	$(GO) run ./cmd/qtransbench -experiment autoshard -scale 0.05 -json BENCH_autoshard.json

# Cold-range tiering under a drifting hotspot (DESIGN.md §14): the
# tiered engine with a quarter-of-dataset resident budget vs the same
# engine all-in-memory, with residency/disk/fault counters and a
# bounded-residency assertion — written to BENCH_tiered.json (not part
# of ci).
bench-tiered:
	$(GO) run ./cmd/qtransbench -experiment tiered -scale 0.05 -json BENCH_tiered.json

# Network front end load test (DESIGN.md §12): build qtransserver,
# then drive >= 10k concurrent TCP connections against it from a
# separate process (client and server each get their own fd budget)
# through the steady / overload / graceful-drain phases — written to
# BENCH_serve.json (not part of ci).
bench-serve:
	$(GO) build -o bin/qtransserver ./cmd/qtransserver
	$(GO) run ./cmd/qtransbench -experiment serve -scale 1 -conns 12000 -serverbin bin/qtransserver -json BENCH_serve.json
