GO ?= go

.PHONY: build test bench-harness bench-e2e vet lint racecheck chaos bench recovery fuzz tenants survey soak explore dataplane graphreaders hotbench loc knobs verify

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
# count of completed entries in CHANGES.md).
NVOLINT_PR ?= $(shell grep -c '^PR ' CHANGES.md)
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

# The end-to-end chaos campaign: eight clusters under seeded fault
# schedules, byte-identical science output required.
chaos:
	$(GO) test -race -run 'TestChaos' -v .

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
# spool run files (what writeRun wrote reads back unchanged; arbitrary bytes
# never panic or allocate beyond a fixed multiple of their length) and
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
# printed as 60) and over gridftp URLs (the site, path and error text of the
# frozen splitting parser).
# Seeds always run under plain `go test`; this also spends FUZZTIME per
# target on new inputs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz FuzzReadReplicas -fuzztime $(FUZZTIME) ./internal/rls/
	$(GO) test -fuzz FuzzView -fuzztime $(FUZZTIME) ./internal/fits/
	$(GO) test -fuzz FuzzParseCardParity -fuzztime $(FUZZTIME) ./internal/fits/
	$(GO) test -fuzz FuzzStreamingParity -fuzztime $(FUZZTIME) ./internal/votable/
	$(GO) test -fuzz FuzzVDLParse -fuzztime $(FUZZTIME) ./internal/vdl/
	$(GO) test -fuzz FuzzCatalogMatchesVDLText -fuzztime $(FUZZTIME) ./internal/webservice/
	$(GO) test -fuzz FuzzRadialOrder -fuzztime $(FUZZTIME) ./internal/morphology/
	$(GO) test -fuzz FuzzRowSpan -fuzztime $(FUZZTIME) ./internal/morphology/
	$(GO) test -fuzz FuzzReadDAG -fuzztime $(FUZZTIME) ./internal/dagman/
	$(GO) test -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/journal/
	$(GO) test -fuzz FuzzWaveManifest -fuzztime $(FUZZTIME) ./internal/webservice/
	$(GO) test -fuzz FuzzSpoolRun -fuzztime $(FUZZTIME) ./internal/tableops/
	$(GO) test -fuzz FuzzResultRoundTrip -fuzztime $(FUZZTIME) ./internal/webservice/
	$(GO) test -fuzz FuzzCollectParity -fuzztime $(FUZZTIME) ./internal/webservice/
	$(GO) test -fuzz FuzzArchiveQuery -fuzztime $(FUZZTIME) ./internal/services/
	$(GO) test -fuzz FuzzSexagesimal -fuzztime $(FUZZTIME) ./internal/wcs/
	$(GO) test -fuzz FuzzParseURL -fuzztime $(FUZZTIME) ./internal/gridftp/

# The multi-tenant fabric campaign, race-enabled: deterministic overload
# shedding, concurrent tenants byte-identical to their solo runs, shared-
# fabric kill/resume without cross-workflow journal bleed, and cancel
# isolation. Bounded: a few minutes of simulated workflows, not a soak.
tenants:
	$(GO) test -race -run 'TestChaosConcurrentTenants' -v .
	$(GO) test -race -run 'TestDeterministicSheddingUnderOverload|TestCancelIsolationAcrossWorkflows|TestQueuedStatusAndCancelWhileQueued' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^FabricKillResumeNoJournalBleed' -v ./internal/webservice/
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
# quota/weight rebalancing, plus the end-to-end slice (preempted-and-resumed
# workflows byte-identical under faults, zero journal bleed) and the
# journal-event-boundary preemption sweep. Override the scale with
# `make soak SOAK_WORKFLOWS=10000`.
SOAK_WORKFLOWS ?= 2500
soak:
	SOAK_WORKFLOWS=$(SOAK_WORKFLOWS) $(GO) test -race -run 'TestSoak' -v .
	$(GO) test -race -run 'TestPreempt' -v ./internal/webservice/
	$(GO) test -race -run 'TestExplore/^Preempt' -v ./internal/webservice/

# The seeded schedule explorer, race-enabled: SEEDS schedules, each one to
# three workflows on one shared fabric with crashes, preemptions, cancels and
# requeues, quota and weight changes and stored-file corruption mixed, held
# to the invariants of internal/webservice/explore_test.go. A failing
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
# by DAGMan's scheduler and by status readers at once.
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
# budget each for catalog, compose, Map and prime; TestWavePlanAllocBudget:
# every wave of that request at WaveSize 100; TestPlanAllocsFlat: the
# marginal count per galaxy flat from 1k to 16k galaxies, and 1k to 4k in
# wave mode), and so has the collector (TestCollectAllocBudget,
# collect_test.go: concatVOT over 1,000 result files, allocations per
# galaxy), and so has execution
# (TestExecuteAllocBudget and TestExecuteAllocsFlat, execute_test.go:
# dagman.Execute over the same plan, allocations per node, serial and on four
# workers, flat from 1k to 16k galaxies), and so has VOTable decoding
# (TestDecodeAllocsPerRow, internal/votable/scan_test.go: ReadTable and
# DecodeRows of a 1,000-row, 8-column table, allocations per row). Fails
# fast on any AllocsPerRun regression. Beside the measurement pins runs
# TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts: every row-span loop
# of the kernel bit-identical to its frozen per-pixel form on 1,000 survey
# cutouts. The last two lines are a smoke, not a
# gate: the
# kernel's time per galaxy (measurement alone, and view + measure + encode as
# galMorph runs it) and planning's time per request, each at one fixed
# iteration count, uninstrumented, printed beside the allocation figures.
hotbench:
	$(GO) test -race -run 'TestHotPathAllocBudget|TestMemoKeyMatchesFmt|TestPlanAllocBudget|TestPlanPhaseAllocs|TestWavePlanAllocBudget|TestPlanAllocsFlat|TestCollectAllocBudget|TestExecuteAllocBudget|TestExecuteAllocsFlat' -v ./internal/webservice/
	$(GO) test -race -run 'TestMeasureRaw|TestKernelStagesMatchPerPixelReferenceOnSurveyCutouts|TestParseViewAllocBudget|TestAppendResultMatchesFmt|TestSpoolIn|TestDecodeAllocsPerRow' ./internal/morphology/ ./internal/fits/ ./internal/webservice/ ./internal/tableops/ ./internal/votable/
	$(GO) test -run '^$$' -bench 'BenchmarkMorphologyGalaxy$$|BenchmarkMeasureRawArena$$' -benchtime 2000x -benchmem ./internal/morphology/ ./internal/webservice/
	$(GO) test -run '^$$' -bench 'BenchmarkPlanRequest$$' -benchtime 50x -benchmem ./internal/webservice/

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

# Exported fields per configuration struct: the knob counts that
# TestKnobBudget (internal/core) pins. CHANGES.md's "Config field (n)" notes
# come from here.
KNOBS = internal/webservice/service.go:Config internal/core/testbed.go:Config \
	internal/dagman/dagman.go:Options internal/portal/portal.go:Config \
	internal/pegasus/pegasus.go:Config internal/fabric/fabric.go:Config \
	internal/fabric/fabric.go:SimOptions
knobs:
	@for k in $(KNOBS); do awk -v want="$${k#*:}" ' \
	  $$0 ~ "^type " want " struct \\{" { on = 1; next } \
	  on && /^}/ { d = FILENAME; sub(/\/[^\/]*$$/, "", d); printf "%-36s %3d\n", d "." want, n; exit } \
	  on && /^\t[A-Z]/ { n++; for (i = 1; i < NF && $$i ~ /,$$/; i++) n++ }' "$${k%%:*}"; done

# Every concurrency-bearing campaign under the race detector in one
# invocation: the chaos byte-identity campaign, the multi-tenant fabric
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
