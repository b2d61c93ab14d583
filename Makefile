PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-stats test-stats-matrix bench bench-smoke \
	bench-backends bench-spectral \
	bench-aggregate bench-aggregate-scale bench-chunked bench-bakeoff \
	perfbench perfbench-pairs loc importtime

# Statistical/property harness: seeded-randomized eq. 7 transform
# properties, the Appendix A Hurst-invariance check, the ESS closed
# form, the aggregate-engine statistics, the paired known-H
# estimator regression (MAVAR vs R/S vs variance-time), and the
# Appendix B IS-vs-MC unbiasedness contract.  Split out so
# it can be run (or rerun) on its own; the default `make test` runs it
# as a prerequisite and then the rest of the suite.
STATS_TESTS := tests/test_properties_transform.py \
	tests/test_hurst_invariance.py \
	tests/test_ess.py \
	tests/test_aggregate_stats.py \
	tests/test_estimator_regression.py \
	tests/test_is_unbiasedness.py

test: test-stats
	$(PYTHON) -m pytest tests/ -q $(addprefix --ignore=,$(STATS_TESTS))

test-stats:
	$(PYTHON) -m pytest $(STATS_TESTS) -q

# Flakiness canary for the statistical harness: rerun every
# STATS_TESTS module with its seed matrix shifted by --seed-offset
# 0/1/2.  A tolerance tuned to one lucky seed family fails here; the
# documented design (seed, alpha, power) in each module docstring is
# what this target enforces empirically.
test-stats-matrix:
	for off in 0 1 2; do \
		$(PYTHON) -m pytest $(STATS_TESTS) -q --seed-offset $$off \
		    || exit 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Quick CI smoke pass over the ablations: runs the batching,
# backend-registry, observability-overhead, and spectral-cache
# benches (among others) at reduced scale and records machine-readable
# results (timings, speedups, cache stats, metric snapshots) in
# BENCH_hosking.json.  The observability bench asserts the disabled
# (null-sink) instrumentation costs < 2% of a Fig. 16 sweep; the
# spectral bench asserts the shared-table path is >= 3x the per-call
# embedding and that the cache-bypass bookkeeping stays < 2% of a
# generation; the bake-off bench snapshots the cross-estimator
# bias/RMSE matrix and asserts MAVAR beats R/S and variance-time plus
# the < 2% metrics-off overhead bound.
bench-smoke:
	REPRO_BENCH_SCALE=0.2 REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_hosking_batch.py \
	    benchmarks/test_ablation_backend_registry.py \
	    benchmarks/test_ablation_observability.py \
	    benchmarks/test_ablation_spectral_cache.py \
	    benchmarks/test_ablation_aggregate.py \
	    benchmarks/test_ablation_aggregate_scale.py \
	    benchmarks/test_ablation_chunked.py \
	    benchmarks/test_ablation_bakeoff.py -q

# Backend ablation alone: Davies-Harte vs Hosking vs FARIMA through the
# registry on a Fig. 8-sized (2^14-sample) unconditional path.
bench-backends:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_backend_registry.py -q

# Spectral-cache ablation alone: shared ACVF/eigenvalue tables with
# batched legs vs the seed's per-call circulant embedding on a
# Fig. 16-style plain-MC buffer sweep.  Asserts bit-identity, >= 3x
# speedup, and the < 2% cache-bypass bookkeeping bound.
bench-spectral:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_spectral_cache.py -q

# Aggregate-engine ablation alone: the sharded batched engine vs the
# naive per-source generation loop at N=1024 (asserts >= 3x and a
# near-flat 16-shard grouping overhead), plus the N=1e5 heterogeneous
# capacity-planning acceptance sweep — bit-identical across shard
# counts, O(batch x horizon) peak memory, loss-vs-N within 1.2 decades
# of the analytic bufferless reference.
bench-aggregate:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_aggregate.py -q

# Scale acceptance alone: the thread-pooled real-FFT engine at
# N=1e6 heterogeneous sources over a 2048-slot horizon — records
# source-slots/s, asserts the 256 MiB feed-memory budget, bit-identity
# across pool sizes and shard counts, and (core-gated at >= 4 cores)
# >= 3x the recorded 4.4M source-slots/s single-process baseline.
bench-aggregate-scale:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_aggregate_scale.py -q

# Chunked-pipeline ablation alone: the scene-chunked thread-pooled
# generator at the 2^22-frame acceptance horizon — bit-identical at any
# pool size, >= 3x over the in-line pipeline when >= 4 cores are
# available (the assertion is core-gated; the ratio is always
# recorded), in-line chunking within 2x of single-pass generation, and
# a tracemalloc budget of half a (chunk x window) matrix at two horizons
# (the stitch never forms that matrix).
bench-chunked:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_chunked.py -q

# Bake-off ablation alone: the paired cross-estimator study on known-H
# Davies-Harte paths at the 2^14 acceptance horizon — snapshots the
# per-estimator bias/RMSE matrix into REPRO_BENCH_JSON, asserts MAVAR
# RMSE <= R/S and <= variance-time at every H in {0.6, 0.7, 0.8, 0.9},
# and holds the metrics-off run to the < 2% observability bound.
bench-bakeoff:
	REPRO_BENCH_JSON=BENCH_hosking.json \
	$(PYTHON) -m pytest benchmarks/test_ablation_bakeoff.py -q

# The repository benchmark (BENCHMARK.json, perfbench/README.md): every
# workload timed with tracing off (end-to-end metrics), then every
# workload traced (per-layer metrics; Chrome trace events land in
# perfbench/out/).  SECONDS bounds each timed loop.
PERFBENCH_WORKLOADS := is_sweep aggregate_mux trace_model
SEED ?= 1
SECONDS ?= 30

perfbench:
	for trace in 0 1; do \
		for workload in $(PERFBENCH_WORKLOADS); do \
			python3 perfbench/run.py --workload $$workload \
			    --seed $(SEED) --seconds $(SECONDS) --trace $$trace \
			    || exit 1; \
		done; \
	done

# Alternating-pair comparison for a claimed gain (tools/perfpairs.py):
# PAIRS runs of WORKLOAD per side at BENCHMARK.json's run_seconds, BASE
# (a git revision, checked out in a temporary worktree) against this
# working tree, alternating which side runs first.  Prints each side's
# median and quartiles, the pairs the change won and failed/attempted.
BASE ?= HEAD
PAIRS ?= 10

perfbench-pairs:
	$(if $(WORKLOAD),,$(error WORKLOAD is required, e.g. make perfbench-pairs WORKLOAD=is_sweep))
	python3 tools/perfpairs.py --workload $(WORKLOAD) --seed $(SEED) \
	    --pairs $(PAIRS) --base $(BASE)

# Python line counts of the source, test, bench, perfbench and tool
# trees (the net src/ figure each CHANGES.md entry reports).
LOC_DIRS := src tests benchmarks perfbench tools

loc:
	@for dir in $(LOC_DIRS); do \
		printf '%-12s %s\n' $$dir \
		    "$$(find $$dir -name '*.py' -print0 | xargs -0 cat | wc -l)"; \
	done

# Start-up cost of the package: the median wall time of `import repro`
# over 5 fresh interpreters, then the ten heaviest modules by
# cumulative `python -X importtime` microseconds (the first is `repro`
# itself).
importtime:
	@for i in 1 2 3 4 5; do \
		$(PYTHON) -c 'import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)'; \
	done | sort -g | sed -n 3p | xargs printf 'import repro: %.3f s (median of 5 fresh interpreters)\n'
	@$(PYTHON) -X importtime -c 'import repro' 2>&1 | grep -v '| imported package$$' | sort -t '|' -k 2 -g -r | head -n 10
