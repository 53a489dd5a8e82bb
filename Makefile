PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs chaos chaos-pressure report scale scale-smoke \
    smp smp-smoke regimes regimes-smoke sweep sweep-smoke missions-lint \
    matrix-drift experiments-drift crash integrity lint docs-lint \
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

# Fault-storm scenario: the chaos experiment (missions/chaos-fig9.toml)
# plus the chaos-marked acceptance tests (deselected from the default
# pytest run).
chaos:
	$(PYTHON) -m repro.exp chaos
	$(PYTHON) -m pytest -q -m chaos

# Memory-pressure scenario: hostile-domain revocation + clean-before-
# release under a disk storm (missions/pressure-revocation.toml), plus
# the pressure-marked acceptance tests.
chaos-pressure:
	$(PYTHON) -m repro.exp chaos --pressure
	$(PYTHON) -m pytest -q -m pressure

# Accountability workload + JSON metrics snapshot (results/metrics.json).
report:
	$(PYTHON) -m repro.exp report --metrics

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
# sides' medians of those and of setup_s and peak_rss_mb, and the win
# count; fails if either side's output check fails or the two sides
# differ on events_per_op, sim_mbit or ratio_err.
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
# corpus, including the files the chaos, pressure, crash and integrity
# scenarios run, without running a single simulation.
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

# The committed EXPERIMENTS.md must match its generator byte-for-byte:
# regenerate from live runs (~15 s) into a scratch file and fail on any
# drift.
experiments-drift:
	$(PYTHON) -m repro.exp.regenerate $${TMPDIR:-/tmp}/EXPERIMENTS.md
	diff EXPERIMENTS.md $${TMPDIR:-/tmp}/EXPERIMENTS.md

# Crash plane: supervised component-crash recovery, the committed
# missions/crash-recovery.toml (results/crash.json; recovery budgets,
# bystander retention and the escalation ladder enforced), plus the
# crash-marked acceptance tests.
crash:
	$(PYTHON) -m repro.exp crash
	$(PYTHON) -m pytest -q -m crash

# Integrity plane: silent-corruption storms against the end-to-end
# checksummed swap, the committed missions/integrity-accountability.toml
# (results/integrity.json; zero undetected corruptions, the repair
# ledger, scrub-overhead floors and the rot-escalation drain enforced).
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
	    src/repro/kernel src/repro/baseline
