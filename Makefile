# Developer/CI entry points.  `make ci` is what the GitHub Actions
# workflow runs: the full test suite plus the quick-mode benchmark sweep
# (REPRO_BENCH_QUICK shrinks the sweeps; the parallel harness still
# exercises the multiprocessing fan-out).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-quick bench perf-smoke calls mem ledger ledger-compare scale \
	scale-smoke chaos \
	chaos-smoke loss-smoke rollback-smoke byz-smoke snapshot-smoke \
	trace-smoke shard-smoke shard-chaos shard-sweep soak soak-smoke \
	powercut powercut-smoke smoke-stdout smoke-diff ci

test:
	$(PYTHON) -m pytest -x -q tests/

# Full seeded chaos campaign: crashes + rollback attacks + partitions +
# client churn across the default protocol set, every run checked by the
# always-on invariant monitors.  A failing seed prints its exact
# `repro chaos --seed ...` reproduction command.
chaos:
	$(PYTHON) -m repro chaos --seeds 20

# Small deterministic slice of the above for CI.
chaos-smoke:
	$(PYTHON) -m repro chaos --seeds 3 --duration 2500 --quiesce 1000

# Lossy-fabric smoke: composed stochastic loss/duplication/corruption on
# top of the chaos faults, with the reliable transport in the path.  The
# run fails if any invariant trips or if a lossy campaign shows zero
# retransmissions (transport silently not engaged).
loss-smoke:
	$(PYTHON) -m repro chaos --seeds 3 --duration 2500 --quiesce 1000 \
		--loss 0.05 --dup 0.02 --corrupt 0.01 --timeout-jitter 0.1

# Rollback smoke (< 10 s): the rollback-protected baselines through two
# crashes, rolled back at reboot, on eight seeds.  The counter must catch
# every mounted rollback and the victim must halt (fail-stop) rather than
# rejoin or hang in recovery; every invariant must hold.
rollback-smoke:
	$(PYTHON) -m repro chaos --protocols damysus-r oneshot-r --seeds 8 \
		--f 1 --duration 2200 --quiesce 900 --crashes 2 --rollbacks 2 \
		--partitions 0

# Byzantine smoke: two stacked strategies on two defended protocols, two
# seeds each (< 10 s).  Every configured attack must engage (attempt
# counters > 0) and every invariant must hold — a disengaged attack or a
# violation fails the run.
byz-smoke:
	$(PYTHON) -m repro chaos --protocols achilles minbft \
		--byz withhold-vote,garbage --seeds 2 --duration 2500 --quiesce 1000

# Snapshot state-transfer smoke (< 30 s): (1) replicated-KV campaigns
# with compaction where every rebooted replica must catch up through a
# certificate-verified snapshot, (2) the stale-snapshot rollback attack
# against the trust-sealed baseline, which MUST trip the
# sealed-state-freshness invariant on every seed.
snapshot-smoke:
	$(PYTHON) -m repro chaos --protocols achilles damysus --seeds 2 \
		--duration 2500 --quiesce 1000 --crashes 2 --rollbacks 0 \
		--partitions 0 --snapshot-interval 5
	$(PYTHON) -m repro chaos --protocols achilles --seeds 2 \
		--duration 2500 --quiesce 1000 --crashes 0 --rollbacks 0 \
		--partitions 0 --snapshot-interval 5 --byz stale-snapshot \
		--snapshot-trust-sealed --byz-expect sealed-state-freshness

# Sharded-deployment smoke (< 30 s): 2 shards under cross-shard 2PC
# traffic, one whole-shard crash landing mid-2PC, rebooted via operator
# cold restart; the cross-shard-atomicity audit and every per-shard
# invariant must pass, and the TTL lock-release defense must engage.
shard-smoke:
	$(PYTHON) -m repro shard-chaos --seeds 1 --duration 4000 \
		--quiesce 1200 --downtime 800 --rate 800 --ttl-blocks 1000

# Full shard chaos matrix: crash + partition faults across 5 seeds each,
# plus the canonical negative control (TTL defense off -> wedged locks
# MUST trip cross-shard-atomicity).
shard-chaos:
	$(PYTHON) -m repro shard-chaos --seeds 5 --fault crash
	$(PYTHON) -m repro shard-chaos --seeds 2 --fault partition
	$(PYTHON) -m repro shard-chaos --seeds 5 --fault crash --no-ttl \
		--expect cross-shard-atomicity

# Throughput-vs-shard-count trajectory: regenerates
# benchmarks/results/shard_sweep.txt.
shard-sweep:
	$(PYTHON) -m pytest -q benchmarks/test_shard_scale.py --benchmark-only

# Long-horizon soak smoke (< 60 s): one defended campaign per pressure
# shape (sub-quorum fault pressure + flash-crowd overload against the
# bounded mempool) with the degradation-cycle detector and the SLO
# reconvergence gate armed, plus the canonical negative control (minbft
# with backoff disabled and a base timeout below its commit latency)
# which MUST trip the cycle detector.  See docs/SOAK.md.
soak-smoke:
	$(PYTHON) -m repro soak --protocols achilles \
		--scenario sub-quorum flash-crowd --seeds 1
	$(PYTHON) -m repro soak --protocols minbft --scenario flash-crowd \
		--seeds 1 --vulnerable \
		--expect degradation-cycle,post-quiesce-liveness

# Full soak matrix: 3 protocols x 5 scenarios x 3 seeds (~6 min), then
# the negative control across the same seeds.
soak:
	$(PYTHON) -m repro soak --seeds 3
	$(PYTHON) -m repro soak --protocols minbft --scenario flash-crowd \
		--seeds 3 --vulnerable \
		--expect degradation-cycle,post-quiesce-liveness

# Power-cut exploration smoke (< 60 s): enumerate every persistence
# point one victim reaches, replay with mid-write cuts (torn flush
# tails, lost buffered writes, reorders) at a stratified sample, reboot
# through ordinary recovery, audit the durable-prefix invariant — plus
# the journal-off negative control, which MUST trip durable-prefix on
# every cut.  See docs/DURABILITY.md.
powercut-smoke:
	$(PYTHON) -m repro powercut --protocols achilles minbft --seeds 1 \
		--max-cuts 3 --duration 1200 --quiesce 500 --warmup 150
	$(PYTHON) -m repro powercut --protocols minbft --seeds 1 \
		--max-cuts 2 --duration 1200 --quiesce 500 --warmup 150 \
		--journal-off

# Full exploration: 3 protocols x 3 seeds at full duration (stratified
# cuts incl. reorder replays), then the journal-off control across the
# same seeds.
powercut:
	$(PYTHON) -m repro powercut --seeds 3
	$(PYTHON) -m repro powercut --protocols achilles minbft --seeds 3 \
		--max-cuts 3 --journal-off

# Traced Fig. 3 LAN runs: prints the critical-path cost breakdown, writes
# Perfetto traces to traces/, and fails unless the walk attributes >= 95%
# of mean commit latency and every trace passes schema validation.
trace-smoke:
	$(PYTHON) -m repro trace fig3-lan --f 1 --assert-coverage

# Every *-smoke target's stdout, one file per target in DIR — the
# golden that two trees' `diff -r` compares.  The list is read off this
# Makefile's own rules; perf-smoke is left out because it prints wall
# times.  Runs every target, then fails if any did.
SMOKE_TARGETS = $(filter-out perf-smoke,$(shell sed -n \
	's/^\([a-z0-9-]*-smoke\):.*/\1/p' $(firstword $(MAKEFILE_LIST))))

smoke-stdout:
	@test -n "$(DIR)" || { echo "usage: make smoke-stdout DIR=<dir>" >&2; exit 2; }
	@mkdir -p $(DIR); status=0; \
	for target in $(SMOKE_TARGETS); do \
		echo "smoke-stdout: $$target" >&2; \
		$(MAKE) -s --no-print-directory $$target > $(DIR)/$$target.out \
			|| status=1; \
	done; exit $$status

# Two smoke-stdout directories compared target by target: each target is
# byte-identical, identical with run digests masked (every 12-hex word),
# or differs — which fails the comparison.
smoke-diff:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make smoke-diff A=<dir> B=<dir>" >&2; exit 2; }
	@status=0; mask='s/\b[0-9a-f]{12}\b/<digest>/g'; \
	for target in $(SMOKE_TARGETS); do \
		a=$(A)/$$target.out; b=$(B)/$$target.out; \
		if ! test -f $$a -a -f $$b; then verdict="differs (missing)"; status=1; \
		elif cmp -s $$a $$b; then verdict="byte-identical"; \
		elif test "$$(sed -E "$$mask" $$a)" = "$$(sed -E "$$mask" $$b)"; then \
			verdict="identical with run digests masked"; \
		else verdict="differs"; status=1; fi; \
		echo "$$target: $$verdict"; \
	done; exit $$status

bench-quick:
	REPRO_BENCH_QUICK=1 $(PYTHON) -m pytest -q benchmarks/ --benchmark-only

bench:
	$(PYTHON) -m pytest -q benchmarks/ --benchmark-only

# Performance-ledger self-test (< 60 s): all eight BENCHMARK.json
# workloads at smoke scale, digest- and name-checked, nothing written.
# Fails when a refactor breaks a name benchmarks/perf/workloads.py imports.
# The call profiler runs on an Achilles row, every attribution on, so
# that it cannot rot, on the Damysus-R row, the one that seals its
# trusted state on every update, under the sealed-update path, on the
# open-loop and soak rows under the paths that mint their arrivals, and
# on the sharded row under its arrivals and the shard machines' apply.
perf-smoke:
	$(PYTHON) benchmarks/perf/selftest.py
	$(PYTHON) benchmarks/call_profile.py lan_sat_n101 --smoke --by-file \
		--by-handler --under _build_block > /dev/null
	$(PYTHON) benchmarks/call_profile.py counter_r_f10 --smoke \
		--under protect_state_update,seal_state > /dev/null
	$(PYTHON) benchmarks/call_profile.py wan_open_f10 --smoke \
		--under take,_emit_through,catch_up,QueueSource._admit > /dev/null
	$(PYTHON) benchmarks/call_profile.py soak_recover_f1 --smoke \
		--under take,_emit_through,catch_up,QueueSource._admit > /dev/null
	$(PYTHON) benchmarks/call_profile.py shard4_2pc --smoke \
		--under _emit,apply_batch,_expire > /dev/null
	$(PYTHON) benchmarks/call_profile.py powercut_snap_f1 --smoke \
		--under WriteAheadJournal.fsync,WriteAheadJournal.commit > /dev/null
	$(PYTHON) benchmarks/mem_profile.py soak_recover_f1 --smoke --by-file \
		> /dev/null
	$(PYTHON) benchmarks/mem_profile.py lan_sat_f10 --smoke > /dev/null
	$(PYTHON) benchmarks/mem_profile.py wan_open_f10 --smoke > /dev/null

# Where one ledger workload's host calls go: `make calls W=lan_sat_n101`
# prints the row's total (host_mcalls x 1e6), calls per simulator event
# and the top 40 functions by call count; OF='len|leader_of' adds who
# calls the functions matching the pattern, BY=file the calls summed per
# source file (C calls charged to the calling file), BY=handler the calls
# per event callback and message kind, with calls per fire,
# UNDER=_build_block,Block.hash the inclusive calls under each
# named function and their share of the row.
calls:
	$(PYTHON) benchmarks/call_profile.py $(W) $(if $(OF),--of '$(OF)') \
		$(if $(BY),--by-$(BY)) $(if $(UNDER),--under '$(UNDER)')

# Where one ledger workload's live memory goes: `make mem W=wan_open_f10`
# prints the traced memory live at the end of one rep and its peak, and
# the top allocation sites by source line; BY=file adds the live memory
# summed per source file.
mem:
	$(PYTHON) benchmarks/mem_profile.py $(W) $(if $(BY),--by-$(BY))

# The full performance ledger (all eight workloads, both passes, ~6 min),
# and the same-seed comparison of two of them: any moved sim_* value or
# host_mcalls count between A (parent) and B fails.
ledger:
	mkdir -p .bench_build
	$(PYTHON) benchmarks/perf/run.py --out .bench_build/ledger.json

ledger-compare:
	$(PYTHON) benchmarks/perf/compare.py --exact $(A) $(B)

# Full scale sweep (n = 31 / 101 / 301): regenerates
# benchmarks/results/scale_sweep.txt.
scale:
	$(PYTHON) -m pytest -q benchmarks/test_scale.py --benchmark-only

# CI gate for the simulator's scale story: one full n=101 Achilles run
# (well under 60 s; safety is asserted inside the runner).
scale-smoke:
	$(PYTHON) -m repro run achilles --f 50 --duration 600 --warmup 150

ci: test bench-quick
