GO ?= go

.PHONY: all build vet test race race-raycast race-service race-root race-rest cover vizserver-smoke vizbench-smoke bench bench-module sim-cost fuzz design-metrics check

all: check

build:
	$(GO) build ./...

# Vet, and the volume codec once more for a big-endian target.
vet:
	$(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/volume/

# The suite once without instrumentation, the one run in which
# TestTableIIICostOrdering's wall-clock order is checked.
test:
	$(GO) test ./...

# The race detector over every package, three runs each, in four groups
# that CI runs side by side: the ray caster, the live service, the root
# package (the paper's tables, traces and probe frames against their pins),
# and every other package `go list` prints, so no new test or package falls
# outside.
# The stepped head-loop tests, which a target of their own once ran twenty
# times, run three times here as they did in CI, each run checked against
# its pinned journal.
race: race-raycast race-service race-root race-rest

race-raycast:
	$(GO) test -race -count=3 ./internal/raycast/...

race-service:
	$(GO) test -race -count=3 ./internal/service/...

race-root:
	$(GO) test -race -count=3 .

race-rest:
	pkgs=$$($(GO) list ./... | grep -vxE "$$($(GO) list .)(/internal/(raycast|service)(/.*)?)?") && $(GO) test -race -count=3 $$pkgs

# The suite once, every package's statements counted wherever a test runs
# them (-coverpkg), failing below the floor. Raise the floor when coverage
# grows; never lower it to make a change pass.
cover:
	$(GO) test -coverpkg=./... -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | awk -v floor=85.0 'END { t = $$3 + 0; printf "total coverage: %.1f%% (floor %.1f%%)\n", t, floor; exit !(t >= floor) }'

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

# bench/ is its own module, built against the public API: vet it and run
# its tests under the race detector.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -race ./...

# The paper's largest run at full scale, under OURS and under FCFSU, with
# vizsim -v's cost line on stderr: wall time, peak RSS, the bytes allocated
# over the run and the heap still live after a final collection. The last
# two are runtime counts that do not move with GC pacing, as RSS does. Not a
# gate; CI prints it.
sim-cost:
	$(GO) run ./cmd/vizsim -scenario 4 -scale 1 -v -sched OURS
	$(GO) run ./cmd/vizsim -scenario 4 -scale 1 -v -sched FCFSU

# Every fuzzer `go test -list` finds, 20 s each. The checked-in corpora
# replay as regression seeds; the budget explores a little fresh territory
# per run.
fuzz:
	list=$$($(GO) test -list '^Fuzz' ./...) && echo "$$list" | \
	awk '/^Fuzz/ { f[n++] = $$1 } /^ok / { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
	while read pkg fn; do echo "$$fn $$pkg"; $(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime 20s $$pkg || exit 1; done

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
# node and load queues and the live fifo moved onto queue.FIFO, 1 after), and
# the test-name patterns in the race and fuzz commands of ci.yml and this
# file (44 before both ran by package, 0 after) with the two files' lengths.
# CI prints them ungated; a re-anchor reads them here instead of recounting.
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
	@printf 'maps keyed by core.JobID in internal/sim + internal/service: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go | grep -v _test.go) | grep 'map\[core\.JobID\]' | grep -vc 'make(map')"
	@printf 'task-state types outside internal/core and hastate'"'"'s on-disk format: %s\n' "$$(grep -rnE '^type [A-Za-z]*[tT]ask[sS]tate ' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=core --exclude-dir=hastate . | wc -l)"
	@printf 'head-rule calls outside internal/core, internal/shard and internal/prefetch: %s\n' "$$(grep -rnE '\.(MarkPrefetched|NotePrefetchEvicted)\(|\.Caches\[[^]]*\]\.Remove\(|dir\.Publish\(|DropNode\(|(pref|prefc)\.(Observe|Loaded|NoteEvicted|FailNode)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=core --exclude-dir=shard --exclude-dir=prefetch . | wc -l)"
	@printf 'QoS nil branches in internal/sim + internal/service: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go | grep -v _test.go) | grep -cE '(qosc|QoS) [!=]= nil')"
	@printf 'Schedule calls outside internal/core: %s\n' "$$(grep -rn '\.Schedule(' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build --exclude-dir=core . | wc -l)"
	@printf 'one-line forwarding methods outside bench/: %s\n' "$$(grep -rE '^func \([a-z]+ \*?[A-Za-z]+\) [A-Za-z]+\(.*\) .*\{ (return )?[a-z]+\.[a-z]+\.[A-Za-z]+\(.*\) \}$$' --include='*.go' --exclude='*_test.go' --exclude-dir=bench --exclude-dir=.bench_build . | wc -l)"
	@printf 'head-index queue implementations in internal/sim + internal/service + internal/queue: %s\n' "$$(cat $$(ls internal/sim/*.go internal/service/*.go internal/queue/*.go | grep -v _test.go) | grep -cE '[hH]ead\+\+')"
	@printf 'test-name patterns in race and fuzz commands (ci.yml + Makefile): %s\n' "$$(cat .github/workflows/ci.yml Makefile | grep -cE -- "-fuzz [F]uzz|-rac[e] .*-run '[A-Z]|^ +run: [A-Z][A-Za-z]+(\|[A-Za-z]+)*$$")"
	@printf 'lines in ci.yml / Makefile: %s / %s\n' "$$(wc -l < .github/workflows/ci.yml)" "$$(wc -l < Makefile)"
	@$(GO) test -count=1 -run '^TestUnreferencedExports$$' -v . | sed -n 's/.*\(exported names under internal\/.*\)/\1/p'

check: vet build test race
