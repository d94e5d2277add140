# Single entry point shared by CI and local development.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: verify unit perfbench-selftest profile-smoke perf-smoke mixed-smoke service-smoke chaos-smoke test bench bench-report

# Tier-1 gate: the full test suite, the end-to-end benchmark's self-test,
# and the profiler, perf, mixed-precision, service, and chaos smoke checks.
verify: unit perfbench-selftest profile-smoke perf-smoke mixed-smoke service-smoke chaos-smoke

# The full unit/integration/property suite, fail-fast.
unit:
	$(PYTHON) -m pytest -x -q

# Self-test of the end-to-end benchmark (perfbench/): every workload runs
# at a tiny size and every answer and reported metric is checked.
perfbench-selftest:
	$(PYTHON) -m pytest perfbench -q

# End-to-end profiler acceptance: attribution coverage, Chrome-trace
# validity, and same-seed trace determinism on a small profiled solve.
profile-smoke:
	$(PYTHON) benchmarks/bench_profile_attribution.py --smoke

# Hot-path acceptance: warm (pooled) solves must beat cold rebuilds by
# >= 1.25x with byte-identical residual histories and same-seed traces.
# Batch acceptance: one batched solve of 64 small systems must beat 64
# sequential scalar solves by >= 3x with byte-identical histories.
# Distributed acceptance: 4-rank CG histories byte-identical to the
# single-rank solve, fused rank regions >= 2x over sequential-rank
# dispatch.
# Fusion acceptance: pg.deferred() must beat the eager operator path by
# >= 1.5x on the simulated clock with byte-identical residual histories
# and same-seed traces, without regressing wall-clock.
# Set-up acceptance: ISAI generate at 65,536 rows under 1.5 s wall, and
# the PGM aggregation's wall ratio (65,536 over 16,384 rows) under 6.
perf-smoke: mixed-smoke
	$(PYTHON) benchmarks/bench_setup.py --smoke
	$(PYTHON) benchmarks/bench_hot_path.py --smoke
	$(PYTHON) benchmarks/bench_batch.py --smoke
	$(PYTHON) benchmarks/bench_distributed.py --smoke
	$(PYTHON) benchmarks/bench_overlap.py --smoke
	$(PYTHON) benchmarks/bench_fusion.py --smoke

# Mixed-precision acceptance: float32-storage Jacobi/ILU inside float64
# CG/GMRES must beat uniform float64 by >= 1.2x preconditioner-phase
# simulated time on the bandwidth-bound suite, with iteration counts
# pinned, the default uniform path byte-identical, and mixed applies
# routed through the mixed-suffix binding symbols.
mixed-smoke:
	$(PYTHON) benchmarks/bench_mixed_precision.py --smoke

# Service acceptance: coalesced multi-tenant scheduling must beat the
# naive one-at-a-time FIFO baseline by >= 3x simulated-clock throughput
# with every job's solution byte-identical to its solo solve, and the
# SLO snapshot (latency percentiles, throughput, coalesce ratio) must
# land in BENCH_service.json for the bench report.
service-smoke:
	$(PYTHON) benchmarks/bench_service.py --smoke

# Chaos acceptance: the seeded fault-schedule suite, then the recovery
# sweep — every injectable site across scalar/batch/distributed solves
# must recover bit-identically or report a truthful degraded outcome,
# with recovered distributed solves within 2x fault-free simulated time.
chaos-smoke:
	$(PYTHON) -m pytest -x -q tests/ginkgo/test_chaos.py
	$(PYTHON) benchmarks/bench_chaos.py --smoke

test: verify

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Aggregate every BENCH_*.json acceptance report into one summary table.
bench-report:
	$(PYTHON) benchmarks/bench_report.py
