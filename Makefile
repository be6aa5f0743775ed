GO ?= go

.PHONY: all build vet test race node-model worker-lanes cycle-trigger head-loop vizserver-smoke vizbench-smoke bench sim-cost fuzz design-metrics check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with concurrency: the parallel
# experiment runner, the DES kernel it drives, and the live service.
race:
	$(GO) test -race ./internal/experiments/ ./internal/des/ ./internal/sim/ ./internal/service/ ./internal/raycast/

# The node-model row of CI's race-suite matrix: the simulator's node
# executor — the four node models pinned to their recorded outcomes, every
# pair of extensions composing, a crash requeueing in start order — and the
# streamed arrivals that feed it (an event queue bounded by the cluster, an
# unsorted schedule tracing as its sorted copy), three times over under the
# race detector.
node-model:
	$(GO) test -race -count=3 -run 'NodeModelGolden|ExtensionPairsCompose|CrashRequeueOrder|Arrivals' ./...

# The worker-lanes row of CI's race-suite matrix: the live worker's two
# lanes and yielding background renders (DESIGN.md §5.18), the FIFO under
# them, and the far-camera march and its leaps — three times over under the
# race detector.
worker-lanes:
	$(GO) test -race -count=3 -run 'Overtake|Background|Lane|Fifo|FarCamera|SustainedInteractive|DropsQueued|BatchExecNet' ./...

# The cycle-trigger row of CI's race-suite matrix: the live head's
# arrival-triggered cycle (DESIGN.md §5.19) — an interactive frame on an idle
# head is scheduled at once, batch work and a busy cluster wait for the tick,
# DropStale and MaxQueue shedding still act on what a busy node makes wait —
# three times over under the race detector.
cycle-trigger:
	$(GO) test -race -count=3 -run 'IdleHead|WaitsForTick|DropStale|OverloadShed' ./...

# The head-loop row of CI's race-suite matrix: the live head driven one
# step(event) at a time on a settable clock (loop_test.go) — the health
# ladder, deadline → backoff → give-up, and a dead node's tasks requeued in
# admission order, each pinning its journal; every step holding the task
# records to their jobs and to the busy-share account — and the keyed batch
# refusal that must not strand its key. The stepped tests
# take milliseconds, so twenty rounds under the race detector is what shows
# they are deterministic.
head-loop:
	$(GO) test -race -count=20 -run 'HeadLoop|KeyedBatchRefused' ./...

# The binaries end to end: vizserver head and two workers over loopback TCP,
# as a journaling lone head and as a two-shard plane, each rendering two
# frames for vizclient and serving /metrics.
vizserver-smoke:
	GO=$(GO) bash cmd/vizserver/smoke.sh

# vizbench end to end: Table II, Fig. 4 and the nine extension sweeps at
# scale 0.05, ten non-empty CSV files, and an unknown -only name refused.
vizbench-smoke:
	GO=$(GO) bash cmd/vizbench/smoke.sh

# Short benchmark smoke: verifies the DES kernel stays allocation-free and
# the scheduler and renderer benchmarks still run. Not a performance
# measurement.
bench:
	$(GO) test -run xxx -bench 'DESKernel|SchedulerThroughput' -benchtime 10000x -benchmem .
	$(GO) test -run xxx -bench 'AblationRaycaster|RenderFull64' -benchtime 3x -benchmem . ./internal/raycast/

# The paper's largest run at full scale, under OURS and under FCFSU, with
# vizsim -v's cost line on stderr: wall time, peak RSS, the bytes allocated
# over the run and the heap still live after a final collection. The last
# two are runtime counts that do not move with GC pacing, as RSS does. Not a
# gate; CI prints it.
sim-cost:
	$(GO) run ./cmd/vizsim -scenario 4 -scale 1 -v -sched OURS
	$(GO) run ./cmd/vizsim -scenario 4 -scale 1 -v -sched FCFSU

# Fuzz smoke, mirroring the CI fuzz-smoke job: short runs over the
# wire-format decoders, the dense chunk table under the head's tables, the
# event kernel's streams, the FIFO queue both planes keep their queues in
# (FIFO order against a slice, no vacated slot holding a value, an array at
# most twice the deepest the queue has been), the head's working queue,
# the rules by which head facts change the head's tables, the prefetch
# predictor's ranking (bit for bit the sorting body it replaced), the
# ray-caster's tabled opacity correction (bit for bit opacityCorrect) and
# its empty-space leaping (the reference's pixels, bounds and sample counts
# over fuzzed voxels, thresholds and cameras). The checked-in corpora
# replay as regression seeds; the -fuzztime budget explores a little fresh
# territory per invocation.
fuzz:
	$(GO) test -run xxx -fuzz FuzzJournalReadAll -fuzztime 20s ./internal/journal/
	$(GO) test -run xxx -fuzz FuzzFrameDecode -fuzztime 20s ./internal/transport/
	$(GO) test -run xxx -fuzz FuzzBodyDecode -fuzztime 20s ./internal/service/
	$(GO) test -run xxx -fuzz FuzzDecodePixels -fuzztime 20s ./internal/service/
	$(GO) test -run xxx -fuzz FuzzReadGrid -fuzztime 20s ./internal/volume/
	$(GO) test -run xxx -fuzz FuzzChunkMap -fuzztime 20s ./internal/volume/
	$(GO) test -run xxx -fuzz FuzzStream -fuzztime 20s ./internal/des/
	$(GO) test -run xxx -fuzz FuzzQueue -fuzztime 20s ./internal/queue/
	$(GO) test -run xxx -fuzz FuzzBacklog -fuzztime 20s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzHeadRules -fuzztime 20s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzPredictorCandidates -fuzztime 20s ./internal/prefetch/
	$(GO) test -run xxx -fuzz FuzzOpacityCorrect -fuzztime 20s ./internal/raycast/
	$(GO) test -run xxx -fuzz FuzzLeapMatchesReference -fuzztime 20s ./internal/raycast/

# The design numbers ROADMAP aim 2 tracks, counted the same way every time:
# non-test Go lines outside bench/, in the sweep harness, in the two control
# planes (internal/sim + internal/service) and in the autoscale layer (its
# two plane files and the machine they share), the live head's file and its
# exported fields (the options a caller can set), the longest
# function in the live service, what is left of the head loop's closures,
# callbacks and wall-clock reads, the extension pairs still rejected as
# incompatible, the tables still declared as Go maps keyed by ChunkID (the
# rest are volume.ChunkMap, DESIGN.md §5.17), the calls outside the
# packages that own the head rules which change the tables' prefetch and
# directory state for a completion, a landed warm or a lost node (DESIGN.md
# §5.8; the one left is the autoscaler's drain-start FailNode), the calls
# of a core.Scheduler's Schedule outside internal/core (both planes schedule
# through core.Backlog.Pass, DESIGN.md §5.4 "One pass"), the one-line
# methods that only forward to a field's method (`func (c *T) M(x) { return
# c.f.M(x) }`: a second type for one concept; 32 before cache.LRU and the
# second in-process cluster type went, 17 after), and the
# exported names under internal/ that only tests call
# (exports_test.go lists them, with the reason each kept one stays), and the
# head-index queues written out in the two planes and the queue package they
# share (a line that advances a head index, `head++`: 3 before the simulator's
# node and load queues and the live fifo moved onto queue.FIFO, 1 after). CI
# prints them ungated; a re-anchor reads them here instead of recounting.
design-metrics:
	@printf 'non-test Go lines outside bench/: %s\n' "$$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l)"
	@printf 'non-test Go lines in internal/experiments + cmd/vizbench: %s\n' "$$(cat $$(ls internal/experiments/*.go cmd/vizbench/*.go | grep -v _test.go) | wc -l)"
	@printf 'non-test Go lines in internal/sim + internal/service: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go | grep -v _test.go) | wc -l)"
	@printf 'non-test Go lines in the autoscale layer (two planes + autoscale/fleet.go): %s\n' "$$(cat internal/sim/autoscale.go internal/service/autoscale.go internal/autoscale/fleet.go | wc -l)"
	@printf 'internal/service/head.go lines: %s\n' "$$(wc -l < internal/service/head.go)"
	@printf 'exported fields on service.Head: %s\n' "$$(awk '/^type Head struct/{f=1; next} f && /^}/{f=0} f && /^\t[A-Z]/{n++} END{print n}' internal/service/head.go)"
	@printf 'slice fields on liveJob + Head: %s\n' "$$(awk '/^type (liveJob|Head) struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[a-zA-Z]+ +\[\]/{n++} END{print n}' internal/service/head.go)"
	@printf 'longest function under internal/service: %s\n' "$$(awk 'FNR==1{s=0} /^func .*[^}]$$/{s=FNR; n=$$0; sub(/^func (\([^)]*\) )?/, "", n); sub(/[\[(].*/, "", n)} s&&/^}/{print FNR-s+1, n, "(" FILENAME ")"; s=0}' $$(ls internal/service/*.go | grep -v _test.go) | sort -rn | head -1)"
	@printf 'closures assigned in head.go + loop.go: %s\n' "$$(cat internal/service/head.go internal/service/loop.go | grep -cE '^\s+\w+ := func\(')"
	@printf "lines carrying 'func(' in autoscale.go: %s\n" "$$(grep -c 'func(' internal/service/autoscale.go)"
	@printf 'head-side wall-clock reads: %s\n' "$$(cd internal/service && cat head.go loop.go recovery.go autoscale.go fracstats.go stats.go multihead.go | grep -cE 'time\.(Now|Since)\b')"
	@printf 'incompatible guards: %s\n' "$$(grep -rn 'incompatible' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | wc -l)"
	@printf 'map[volume.ChunkID] tables outside bench/: %s\n' "$$(grep -rn 'map\[volume\.ChunkID\]' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -vc 'make(map')"
	@printf 'head-rule calls outside internal/core, internal/shard and internal/prefetch: %s\n' "$$(grep -rnE '\.(MarkPrefetched|NotePrefetchEvicted)\(|\.Caches\[[^]]*\]\.Remove\(|dir\.Publish\(|DropNode\(|(pref|prefc)\.(Observe|Loaded|NoteEvicted|FailNode)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=core --exclude-dir=shard --exclude-dir=prefetch . | wc -l)"
	@printf 'QoS nil branches in internal/sim + internal/service: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go | grep -v _test.go) | grep -cE '(qosc|QoS) [!=]= nil')"
	@printf 'Schedule calls outside internal/core: %s\n' "$$(grep -rn '\.Schedule(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=core . | wc -l)"
	@printf 'one-line forwarding methods outside bench/: %s\n' "$$(grep -rE '^func \([a-z]+ \*?[A-Za-z]+\) [A-Za-z]+\(.*\) .*\{ (return )?[a-z]+\.[a-z]+\.[A-Za-z]+\(.*\) \}$$' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | wc -l)"
	@printf 'head-index queue implementations in internal/sim + internal/service + internal/queue: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go internal/queue/*.go | grep -v _test.go) | grep -cE '[hH]ead\+\+')"
	@$(GO) test -count=1 -run '^TestUnreferencedExports$$' -v . | sed -n 's/.*\(exported names under internal\/.*\)/\1/p'

check: vet build test race
