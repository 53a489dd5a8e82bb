PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs chaos chaos-pressure report bench bench-smoke \
    scale scale-smoke smp smp-smoke regimes regimes-smoke sweep \
    sweep-smoke missions-lint matrix-drift crash integrity lint docs-lint \
    perfbench-check perfbench-ab

# Tier-1 suite (the repo's acceptance bar) + the observability tests.
verify: test obs

test:
	$(PYTHON) -m pytest -x -q

obs:
	$(PYTHON) -m pytest -q tests/test_obs_metrics.py \
	    tests/test_obs_instrumentation.py \
	    tests/test_properties_sched.py \
	    tests/test_sim_trace_units.py

# Fault-storm scenario: the chaos experiment plus the chaos-marked
# acceptance tests (deselected from the default pytest run).
chaos:
	$(PYTHON) -m repro.exp chaos
	$(PYTHON) -m pytest -q -m chaos

# Memory-pressure scenario: hostile-domain revocation + clean-before-
# release under a disk storm, plus the pressure-marked acceptance tests.
chaos-pressure:
	$(PYTHON) -m repro.exp chaos --pressure
	$(PYTHON) -m pytest -q -m pressure

# Accountability workload + JSON metrics snapshot (results/metrics.json).
report:
	$(PYTHON) -m repro.exp report --metrics

# Performance plane: the full benchmark suite (warmup + 3 reps, a few
# minutes) writing a schema-versioned BENCH_<timestamp>.json at the
# repo root. `bench-smoke` is the CI variant: 1 rep, no warmup,
# scaled-down workloads — validates the harness, not the numbers.
bench:
	$(PYTHON) -m repro.exp bench

bench-smoke:
	$(PYTHON) -m repro.exp bench --smoke

# Benchmark output gate: one rep of every perfbench workload checked
# against perfbench/reference.json (simulated outputs, event counts),
# failing unless the result line reports "correct": true, then the
# benchmark's own tests. A reordered same-time tie or a changed event
# count fails here.
PERFBENCH_OUT = $${TMPDIR:-/tmp}/perfbench-check.out

perfbench-check:
	$(PYTHON) perfbench/run.py --workload all --seconds 0 --trace 0 \
	    | tee $(PERFBENCH_OUT)
	tail -n 1 $(PERFBENCH_OUT) | $(PYTHON) -c 'import json, sys; \
	    sys.exit(0 if json.load(sys.stdin)["correct"] is True \
	    else "perfbench output check failed")'
	$(PYTHON) -m pytest perfbench -q

# Interleaved same-host A/B of this tree against a git ref (checked out
# into a temporary local worktree): per-pair ops_per_s and cpu_s, both
# medians and the win count; fails if either side's output check fails
# or the two sides' events_per_op differ.
REF ?= HEAD
WORKLOAD ?= inmem_loop
PAIRS ?= 5
SECONDS ?= 20

perfbench-ab:
	$(PYTHON) tools/perfbench_ab.py --ref $(REF) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) --seconds $(SECONDS)

# Multi-volume USBS scale-out + failure-containment experiment
# (results/scale.json; gates enforced at full scale). `scale-smoke` is
# the CI variant: reduced stretches and windows, gates reported only.
scale:
	$(PYTHON) -m repro.exp scale

scale-smoke:
	$(PYTHON) -m repro.exp scale --smoke

# Multi-core crosstalk-containment + core-scaling experiment
# (results/smp.json; gates enforced at full scale — full scale runs in
# seconds, so CI runs it unreduced). `smp-smoke` reports only.
smp:
	$(PYTHON) -m repro.exp smp

smp-smoke:
	$(PYTHON) -m repro.exp smp --smoke

# Translation-regime ablation: seg vs paged fault cost and bandwidth,
# plus the per-stretch multi-pager registry under revocation waves
# (results/regimes.json; gates enforced at full scale). `regimes-smoke`
# is the CI variant: shorter windows, gates reported only.
regimes:
	$(PYTHON) -m repro.exp regimes

regimes-smoke:
	$(PYTHON) -m repro.exp regimes --smoke

# Declarative mission corpus (missions/ + missions/matrix/) across
# parallel workers; per-mission reports in results/missions/, the
# aggregate in results/sweep.json. `sweep-smoke` is the CI matrix
# (missions marked smoke = true); `missions-lint` validates the whole
# corpus without running a single simulation.
sweep:
	$(PYTHON) -m repro.exp sweep

sweep-smoke:
	$(PYTHON) -m repro.exp sweep --smoke --jobs 4

missions-lint:
	$(PYTHON) -m repro.exp sweep --lint

# The committed matrix corpus must match its generator byte-for-byte:
# regenerate into a scratch dir and fail on any drift.
matrix-drift:
	$(PYTHON) -m repro.missions.matrix --out $${TMPDIR:-/tmp}/matrix-drift
	diff -ru missions/matrix $${TMPDIR:-/tmp}/matrix-drift

# Crash plane: supervised component-crash recovery scenario
# (results/crash.json; recovery budgets, bystander retention and the
# escalation ladder enforced), plus the crash-marked acceptance tests.
crash:
	$(PYTHON) -m repro.exp crash
	$(PYTHON) -m pytest -q -m crash

# Integrity plane: silent-corruption storms against the end-to-end
# checksummed swap (results/integrity.json; zero undetected
# corruptions, the repair ledger, scrub-overhead floors and the
# rot-escalation drain enforced).
integrity:
	$(PYTHON) -m repro.exp integrity

lint:
	$(PYTHON) -m compileall -q src

# Docstring-coverage gate (dependency-free interrogate stand-in).
docs-lint:
	$(PYTHON) tools/docstring_lint.py --threshold 90 src/repro/sim \
	    src/repro/exp src/repro/usd src/repro/usbs src/repro/missions \
	    src/repro/supervise src/repro/integrity src/repro/place \
	    src/repro/regimes src/repro/faults src/repro/sched \
	    src/repro/kernel
