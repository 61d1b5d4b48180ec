GO ?= go

.PHONY: build test bench-harness bench-e2e vet lint racecheck chaos bench recovery fuzz tenants survey soak explore dataplane graphreaders hotbench render-ab loc knobs exports verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The nvolint suite: eleven analyzers enforcing the determinism, clock,
# resource-hygiene and concurrency invariants (see README "Static
# analysis"). The binary build goes through the Go build cache, so a warm
# rebuild is free; it runs both standalone and as a go vet -vettool, which
# exercises the same fleet through the cmd/go vet protocol. The standalone
# pass prints per-analyzer wall time (-v), fails if the suite blows its
# latency budget (-budget, so a slow new pass cannot silently degrade
# verify), and reports — without failing — any //nvolint:ignore directive
# whose until=PR<N> expiry has passed (-pr; the current PR number is the
# highest N of the "PR N" entries in CHANGES.md — not their count, since
# numbers are skipped and some entries are follow-ups).
NVOLINT_PR ?= $(shell awk '/^PR [0-9]/ { n = $$2 + 0; if (n > m) m = n } END { print m }' CHANGES.md)
LINT_BUDGET ?= 120s
lint:
	$(GO) build -o bin/nvolint ./cmd/nvolint
	./bin/nvolint -v -budget $(LINT_BUDGET) -pr $(NVOLINT_PR) ./...
	$(GO) vet -vettool=bin/nvolint ./...
	cd benchmark && ../bin/nvolint ./...

# The benchmark harness is a module of its own (benchmark/go.mod), so the
# root ./... patterns never reach it; bench-harness vets it and runs its
# smoke of every workload, so a refactor of internal/ cannot break the
# harness unseen.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The end-to-end benchmark (BENCHMARK.json): every workload in turn through
# the portal -> Pegasus -> DAGMan -> measure pipeline, with the byte-identity
# of their outputs checked. Report-only: the table is each PR's trajectory
# row, not a gate, so verify does not depend on it.
bench-e2e:
	bash benchmark/run.sh -all

test: bench-harness
	$(GO) test ./...

# The chaos campaign, race-enabled: the root campaign drivers under seeded
# fault schedules, the schedule explorer's row of three workflows at worker
# widths 1, 2 and 8 under per-leg job faults and a cache-site transfer
# outage (byte-identical science output, with retries, replica failover and
# an opened circuit required), a campaign with a dead secondary archive
# (completes, degradation recorded), and DAGMan's rescue rounds (each round
# is another pass of one execution that reruns exactly the failed and unrun
# work; TestRescueRoundJournal pins the journal of a two-round run).
chaos:
	$(GO) test -race -run 'TestChaos|TestParallelWorkersByteIdenticalUnderFaults' -v .
	$(GO) test -race -run 'TestExplore/^RecoverableChaosByteIdentity$$' -v ./internal/webservice/
	$(GO) test -race -run 'TestChaosCampaignDegradedArchive' -v ./internal/core/
	$(GO) test -race -run 'TestExecuteWithRescue|TestRescueRoundJournal' -v ./internal/dagman/

# Every Go micro-benchmark of the root package, including the
# parallel-execution and warm-cache suites; BENCH=<regex> narrows the run
# (e.g. make bench BENCH=ParallelLeafJobs). The end-to-end numbers every PR
# reports come from make bench-e2e, not from here.
BENCH ?= .
bench:
	$(GO) test -run XXX -bench '$(BENCH)' -benchmem .

# Journal-replay idempotence: the kill-and-resume sweeps (schedule-explorer
# rows) and corruption recovery, race-enabled, plus one kill-and-resume
# through the full testbed from the command line, monolithic and in waves.
recovery:
	$(GO) test -race -run 'TestResume|TestJournalBrackets|TestTransferCorruption|TestCorruptIntermediate|TestCancel' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^(KillAndResume|CorruptResultAfterWaveEviction)' -v ./internal/webservice/
	$(GO) run ./cmd/nvo-resume -cluster COMA -scale 0.1
	$(GO) run ./cmd/nvo-resume -cluster COMA -scale 0.1 -wave-size 3

# Fuzz smoke over every parser that reads bytes from disk or the network —
# the RLS text codec, the one FITS reader (Decode accepts exactly what
# ParseView accepts, same error text, same pixel bits), the streaming
# VOTable codec, the VDL parser and the typed .dag/rescue parser (no panic,
# and what it accepts it writes and reads back unchanged), journal replay
# (a truncated or bit-flipped journal replays to a prefix of what was
# appended), the .waves manifest (what is written reads back unchanged) and
# the transformation catalog's text (no panic; what Read accepts, Write then
# Read gives back unchanged, and a second Write gives the same bytes) and
# per-galaxy result files (what the frozen decodeResult accepts re-encodes to the same
# result, floats bit for bit)
# — over the request's two forms (the catalog built
# from a table and the parse of its rendered .vdl agree, or the table is
# refused), over the measurement kernel's radial bucket pass (any cutout
# shape and centre: no panic, and the order of the reference sort) and its
# row spans (any row, centre and radius: exactly the pixels the radius test
# passes), over the FITS header card scan (any 80-byte card: the same
# value, Card and error text as the frozen pre-allocation-free scan), over
# the collector (any two result files: the cells or the error text of the
# frozen line-splitting decoder), over the archive's cone and SIA query
# parsers (no panic; what they accept is a finite RA, |Dec| <= 90 and a
# finite extent >= 0), over sexagesimal coordinates (what parses is finite;
# format then parse round-trips within the printed precision, no field
# printed as 60), over gridftp URLs (the site, path and error text of the
# frozen splitting parser) and over the table operations on tables with NaN
# cells, unparseable cells and repeated keys (sort is a stable permutation
# with NaN and unparseable cells last, filter keeps exactly the in-range
# rows, sort, filter and select keep the PARAMs, and both joins give the
# rows of a nested-loop join), and over the compute service's handler (any
# method, endpoint, query string and body: no panic, and no 5xx but a shed
# 503 with Retry-After), and over the cutout path against its frozen copies:
# the render kernel (any galaxy parameters, frame size and noise seed: the
# pixel bits and header cards of the pre-hoisting kernel) and the card writer
# (any keyword, comment and bool, int64, float64, string or nil value: the
# bytes of the fmt-based formatCard, refused exactly when Decode would not
# give the card back unchanged).
# Seeds always run under plain `go test`; this also spends FUZZTIME per
# target on new inputs. The targets are found, not listed: every Fuzz*
# function `go test -list` prints for a package of `go list ./...`.
FUZZTIME ?= 10s
fuzz:
	@pkgs=$$($(GO) list ./...) || exit 1; n=0; for pkg in $$pkgs; do \
	  list=$$($(GO) test -list '^Fuzz' $$pkg) || { echo "$$list"; exit 1; }; \
	  for name in $$(echo "$$list" | grep '^Fuzz'); do \
	    echo "$$pkg $$name"; \
	    $(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	    n=$$((n + 1)); \
	  done; \
	done; echo "make fuzz: $$n fuzz targets ran"

# The multi-tenant fabric campaign, race-enabled: deterministic overload
# shedding, concurrent tenants under their own fault plans byte-identical
# to their solo runs with their solo fault histories (the explorer's
# urgent-arrival row), shared-fabric kill/resume without cross-workflow
# journal bleed, and cancel isolation. Bounded: a few minutes of simulated
# workflows, not a soak.
tenants:
	$(GO) test -race -run 'TestChaosConcurrentTenants' -v .
	$(GO) test -race -run 'TestDeterministicSheddingUnderOverload|TestCancelIsolationAcrossWorkflows|TestQueuedStatusAndCancelWhileQueued' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^(UrgentArrivalPreemptsUnderFaults|FabricKillResumeNoJournalBleed)$$' -v ./internal/webservice/
	$(GO) test -race ./internal/fabric/

# The survey-scale smoke, race-enabled: a 1000-galaxy request in wave mode
# must be byte-identical to the monolithic path with the scheduler's live
# graph bounded by the wave size, plus the wave-mode kill/resume sweep.
survey:
	$(GO) test -race -run 'TestSurveyWave' -v .
	$(GO) test -race -run 'TestWaveComputeByteIdentical' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^WaveKillAndResume' -v ./internal/webservice/

# The preemption soak campaign, race-enabled: SOAK_WORKFLOWS checkpointable
# workflows across priority classes on one shared fabric with runtime
# quota/weight rebalancing, plus the end-to-end slices (preempted-and-resumed
# workflows byte-identical under faults, zero journal bleed; and the explorer
# row in which an urgent compute workflow arrives at a journal record of a
# faulted one and preempts) and the
# journal-event-boundary preemption sweeps. Override the scale with
# `make soak SOAK_WORKFLOWS=10000`.
SOAK_WORKFLOWS ?= 2500
soak:
	SOAK_WORKFLOWS=$(SOAK_WORKFLOWS) $(GO) test -race -run 'TestSoak' -v .
	$(GO) test -race -run 'TestPreempt' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^(Preempt|UrgentArrival)' -v ./internal/webservice/

# The seeded schedule explorer, race-enabled: SEEDS schedules, each one to
# three workflows (some urgent) on one shared fabric with crashes,
# preemptions, cancels and requeues, quota and weight changes, stored-file
# corruption, a cache-site transfer outage and held workflows arriving at a
# journal record mixed, held to the invariants of
# internal/webservice/explore_test.go. A failing
# schedule is shrunk and printed with the EXPLORE_REPLAY line that re-runs
# it. Plain go test runs four seeds.
SEEDS ?= 200
explore:
	EXPLORE_SEEDS=$(SEEDS) $(GO) test -race -run 'TestExplore/^seed=' -v ./internal/webservice/

# The shared-blob data plane, race-enabled: readers, transfers, Corrupt and
# Put on one path at once (a stored file's bytes are never written, so none
# of them may race), copy-on-write damage private to one replica, and a
# staged request whose stage-in replicas share the cache replica's bytes
# while every store still verifies.
dataplane:
	$(GO) test -race -run 'TestCorrupt|TestConcurrentTransfers' -v ./internal/gridftp/
	$(GO) test -race -run 'TestStagedReplicasShareBytes|TestVerifiedGetRepairedDigest' -v ./internal/webservice/

# The workflow graph under concurrent readers, race-enabled: dag.Graph builds
# its sorted id order lazily on the first read, and a finished graph is read
# at once by DAGMan's scheduler (Positions) and by status readers (Nodes,
# Children, TopoSort).
graphreaders:
	$(GO) test -race -count=10 -run 'TestGraphConcurrentReaders' ./internal/dag/

# The hot-path allocation gate, race-enabled: ParseView + MeasureRaw over
# staged bytes must stay within the per-galaxy allocation budget and at least
# 2x below materialising the image first (Decode + Measure). Both entries run
# the one FITS reader and the one measurement prologue; the pins hold them to
# fixed oracles (FITS definition, frozen heap prologue, frozen fmt encoding).
# The budget test lives next to the galMorph body it gates
# (internal/webservice/hotpath_test.go), with the memo key's one allocation
# (TestMemoKeyMatchesFmt). Planning has the same gate beside it
# (TestPlanAllocBudget, plan_test.go: table -> concrete plan of a staged
# 1,000-galaxy request, allocations per galaxy; TestPlanPhaseAllocs: one
# budget each for catalog, compose and Map; TestWavePlanAllocBudget:
# every wave of that request at WaveSize 100; TestPlanAllocsFlat: the
# marginal count per galaxy flat from 1k to 16k galaxies, and 1k to 4k in
# wave mode), and so has the collector (TestCollectAllocBudget,
# collect_test.go: concatVOT over 1,000 result files, allocations per
# galaxy; TestResultTableBytes: the output table at most 1.1 bytes
# allocated per byte of it), and so has execution
# (TestExecuteAllocBudget and TestExecuteAllocsFlat, execute_test.go:
# dagman.Execute over the same plan, allocations per node, serial and on four
# workers, flat from 1k to 16k galaxies), and so has VOTable decoding
# (TestDecodeAllocsPerRow, internal/votable/scan_test.go: ReadTable and
# DecodeRows of a 1,000-row, 8-column table, allocations per row), and so
# has the archive's cutout (TestCutoutAllocBudget,
# internal/services/cutout_test.go: render + encode, allocations per
# CutoutFITS call) and one /cutout GET through the testbed's router
# (TestCutoutRoundTripAllocs, internal/core/router_test.go: allocations per
# GET; bytes per byte of the cutout without -race, for a client that copies
# the body and for one that takes it by hand-over), and so have its VOTable
# answers (TestAnswerAllocsPerRow, beside it: the SURVEY /cone and /siacut
# tables + WriteTable, allocations per row; TestAnswerHandlerBytes: the same
# answers through the handler, bytes over the table and its encoding),
# and so has registration (TestRegisterAllocBudget,
# internal/rls/onelock_test.go: a new replica at most two allocations, a
# repeat none), and so has a whole request (TestRequestAllocBudget,
# request_alloc_test.go: one warm-memo and one staged request over the
# 1,000-galaxy plan, allocations per galaxy), and so has the eviction between
# waves (TestWaveEvictionAllocBudget, waves_test.go: a wave of 100 staged
# images evicted, at most 0.1 allocations per image, also under -race), and
# so has the portal's status exchange, in polls rather than allocations
# (TestPortalPollsDoNotGrowWithWallTime and
# TestPortalLearnsCompletionFromTheWaitingPoll, internal/portal/wait_test.go:
# no /status GET while a request is held, at most 12 a request, and the
# completion carried by the GET that was waiting when the request was
# released; the same bounds under -race). Fails fast on any AllocsPerRun
# regression. The render kernel's row stages have their parity tests
# here too (internal/skysim/render_stages_test.go: the copied cos against
# math.Cos on ten million operands, one pooled scratch through large,
# small and large renders against fresh ones, a row straddling the arm and
# truncation radii against the frozen loop, Ldexp by 0 as the identity).
# Beside the
# measurement pins runs
# TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts: every row-span loop
# of the kernel bit-identical to its frozen per-pixel form on 1,000 survey
# cutouts. The last three lines are a smoke, not a
# gate: the
# kernel's time per galaxy (measurement alone, and view + measure + encode as
# galMorph runs it), planning's time per request, and the archive's render
# and cutout time over the SURVEY galaxies at their own sizes, each at one
# fixed iteration count, uninstrumented, printed beside the allocation
# figures.
hotbench:
	$(GO) test -race -run 'TestHotPathAllocBudget|TestMemoKeyMatchesFmt|TestPlanAllocBudget|TestPlanPhaseAllocs|TestWavePlanAllocBudget|TestPlanAllocsFlat|TestCollectAllocBudget|TestResultTableBytes|TestExecuteAllocBudget|TestExecuteAllocsFlat|TestRequestAllocBudget|TestWaveEvictionAllocBudget' -v ./internal/webservice/
	$(GO) test -race -run 'TestPortalPollsDoNotGrowWithWallTime|TestPortalLearnsCompletionFromTheWaitingPoll|TestWavePollsMatchMonolithic' -v ./internal/portal/
	$(GO) test -race -run 'TestCosMatchesMath|TestPooledScratchMatchesFresh|TestRenderStraddlesArmsAndTruncation|TestLdexpZeroIsIdentity' -v ./internal/skysim/
	$(GO) test -race -run 'TestMeasureRaw|TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts|TestParseViewAllocBudget|TestAppendResultMatchesFmt|TestSpoolIn|TestDecodeAllocsPerRow|TestCutoutAllocBudget|TestCutoutRoundTripAllocs|TestRoundTripResponseAllocs|TestWriteBodySharesContentType|TestSetAllocatesNothing|TestAnswerAllocsPerRow|TestAnswerHandlerBytes|TestRegisterAllocBudget' ./internal/morphology/ ./internal/fits/ ./internal/webservice/ ./internal/tableops/ ./internal/votable/ ./internal/services/ ./internal/core/ ./internal/rls/
	$(GO) test -run '^$$' -bench 'BenchmarkMorphologyGalaxy$$|BenchmarkMeasureRawArena$$' -benchtime 2000x -benchmem ./internal/morphology/ ./internal/webservice/
	$(GO) test -run '^$$' -bench 'BenchmarkRenderGalaxy$$|BenchmarkCutoutFITS$$' -benchtime 200x -benchmem ./internal/skysim/ ./internal/services/
	$(GO) test -run '^$$' -bench 'BenchmarkPlanRequest$$' -benchtime 50x -benchmem ./internal/webservice/

# The render A/B: builds the ./internal/skysim test binary at BASE (from
# `git archive BASE` into a directory under $TMPDIR, removed afterwards)
# and in the working tree, runs their BenchmarkRenderGalaxy (the SURVEY
# mix, -cpu 1, 200 renders a run) alternately RENDER_AB_N times, and
# prints each side's median and minimum ms per render and how many of the
# alternating pairs the working tree won. EXPERIMENTS §P22's render
# figures come from `make render-ab BASE=HEAD~1`.
BASE ?= HEAD
RENDER_AB_N ?= 10
render-ab:
	@set -e; tmp=$$(mktemp -d "$${TMPDIR:-/tmp}/render-ab.XXXXXX"); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) test -c -o "$$tmp/base.test" ./internal/skysim); \
	$(GO) test -c -o "$$tmp/work.test" ./internal/skysim; \
	for i in $$(seq $(RENDER_AB_N)); do for side in base work; do \
	  "$$tmp/$$side.test" -test.run '^$$' -test.bench '^BenchmarkRenderGalaxy$$' -test.cpu 1 -test.benchtime 200x | \
	    awk -v s=$$side '/^BenchmarkRenderGalaxy/ { printf "%s %.4f\n", s, $$3 / 1e6 }' >> "$$tmp/runs"; \
	done; done; \
	for side in base work; do \
	  awk -v s=$$side '$$1 == s { print $$2 }' "$$tmp/runs" | sort -n | \
	    awk -v s=$$side '{ v[NR] = $$1 } END { m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; \
	      printf "%-4s median %.3f ms  min %.3f ms  (%d runs)\n", s, m, v[1], NR }'; \
	done; \
	awk '$$1 == "base" { b[++nb] = $$2 } $$1 == "work" { w[++nw] = $$2 } \
	  END { for (i = 1; i <= nw; i++) if (w[i] < b[i]) k++; printf "work faster in %d of %d pairs\n", k + 0, nw }' "$$tmp/runs"

# Non-test Go lines per package: raw lines and code lines (blank and
# comment-only lines excluded). benchmark/ is a module of its own and is
# not counted. The per-package LoC rows in CHANGES.md come from here.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' | sort | xargs awk ' \
	  FNR == 1 { inblock = 0 } \
	  { d = FILENAME; sub(/\/[^\/]*$$/, "", d); raw[d]++; \
	    line = $$0; gsub(/^[ \t]+|[ \t]+$$/, "", line); \
	    if (inblock) { if (line ~ /\*\//) inblock = 0; next } \
	    if (line == "" || line ~ /^\/\//) next; \
	    if (line ~ /^\/\*/) { if (line !~ /\*\//) inblock = 1; next } \
	    code[d]++ } \
	  END { for (d in raw) { printf "%-36s %6d %6d\n", d, raw[d], code[d]; tr += raw[d]; tc += code[d] } \
	        printf "%-36s %6d %6d\n", "~total", tr, tc }' | sort | sed 's/^~total/total /' | \
	  awk 'BEGIN { printf "%-36s %6s %6s\n", "package", "raw", "code" } { print }'

# Exported fields per configuration struct: the table TestKnobBudget
# (internal/core) pins and logs. CHANGES.md's "Config field (n)" notes come
# from here.
knobs:
	$(GO) test -run '^TestKnobBudget$$' -v ./internal/core/

# Exported API surface per package under internal/: the funcs, methods and
# types `go doc -all` lists (column-0 func/type lines; consts, vars, struct
# fields and interface methods are not counted), plus a total. CHANGES.md's
# export counts come from here.
exports:
	@for p in $$($(GO) list ./internal/...); do \
	  printf '%-36s %4d\n' "$${p#repro/}" "$$($(GO) doc -all $$p | grep -cE '^(func|type) ')"; \
	done | awk '{ print; n += $$2 } END { printf "%-36s %4d\n", "total", n }'

# Every concurrency-bearing campaign under the race detector in one
# invocation: the chaos byte-identity row, the multi-tenant fabric
# campaign, the preemption soak (gate scale), the survey-wave smoke, the
# seeded schedule explorer, the shared-blob data plane, and the workflow
# graph's concurrent readers.
# This is the dynamic closure of the static concurrency analyzers
# (lockpath/goleak/selectrevoke): nvolint proves lock/goroutine hygiene
# shapes, racecheck proves the running interleavings.
racecheck:
	$(MAKE) chaos
	$(MAKE) tenants
	$(MAKE) soak SOAK_WORKFLOWS=600
	$(MAKE) survey
	$(MAKE) explore
	$(MAKE) dataplane
	$(MAKE) graphreaders

# Full verification gate: vet, build, the nvolint invariants (with the
# latency budget and stale-suppression report), the benchmark harness's
# own vet and smoke, the race-enabled suite,
# the race campaigns (chaos, tenants, soak at gate scale, survey — `make
# soak` runs the full fleet), journal-replay idempotence, the hot-path
# allocation gate, and the parser fuzz smoke.
verify: vet build lint bench-harness
	$(GO) test -race ./...
	$(MAKE) racecheck
	$(MAKE) recovery
	$(MAKE) hotbench
	$(MAKE) fuzz
