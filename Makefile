# Canonical developer commands for the reproduction.

PYTHON ?= python

.PHONY: install test test-fast verify-fuzz bench bench-kernels bench-incr bench-parallel bench-shards bench-obs bench-serve bench-check trace-smoke shard-smoke serve-smoke figures figure-parity report examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Skip fuzz- and hypothesis-heavy tests (marked `slow`) for a quick
# inner-loop signal; the full suite still runs in CI and `make test`.
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Deterministic verification fuzz pass: invariants, metamorphic
# relations, and differential oracles (docs/verification.md).
verify-fuzz:
	$(PYTHON) -m repro verify --fuzz --seed 0 --budget 200

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Scalar-vs-vectorized kernel timings; writes BENCH_core.json at the
# repo root (see the Performance section of README.md for the schema).
bench-kernels:
	$(PYTHON) benchmarks/bench_kernels.py

# Warm-start vs cold epoch re-allocation timings across drift rates;
# writes BENCH_incr.json at the repo root (schema in
# docs/observability.md).
bench-incr:
	$(PYTHON) benchmarks/bench_incremental.py

# Serial-vs-parallel sweep and engine-vs-batched simulation timings;
# writes BENCH_runner.json at the repo root (schema in README.md).
bench-parallel:
	$(PYTHON) benchmarks/bench_parallel.py

# Sharded-fabric timings: store append throughput, cells/sec per shard
# layout, and 90%-complete resume overhead; writes BENCH_shards.json at
# the repo root (schema in docs/sharding.md).
bench-shards:
	$(PYTHON) benchmarks/bench_shards.py

# Observability overhead (no-op span cost, traced-run cost); writes
# BENCH_obs.json at the repo root and fails over the 5% budget.
bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py

# Live-service ingestion throughput (epochs/s, requests/s) with the
# service's decayed-count estimator; writes BENCH_serve.json at the
# repo root (schema in docs/serving.md).
bench-serve:
	$(PYTHON) benchmarks/bench_serve.py

# Gate the repo-root BENCH_*.json payloads against the rolling
# benchmark history (benchmarks/results/history.jsonl): fails when a
# tracked metric regresses >10% vs the median of the last 5 matching
# runs, then records the new runs (docs/observability.md).
bench-check:
	$(PYTHON) -m repro bench-check --against history

# End-to-end observability smoke: run a tiny traced sweep with workers
# and live telemetry (OpenMetrics endpoint + sampling profiler),
# convert the trace to Chrome format, then validate every artifact
# against the documented schemas (docs/observability.md).
trace-smoke:
	$(PYTHON) -m repro sweep --figure 6 --replications 1 --workers 2 \
		--quiet --trace /tmp/repro-smoke.jsonl \
		--metrics /tmp/repro-smoke-metrics.json \
		--metrics-port 0 --profile /tmp/repro-smoke-profile.txt \
		> /dev/null
	$(PYTHON) -m repro trace-convert /tmp/repro-smoke.jsonl \
		/tmp/repro-smoke-chrome.json
	$(PYTHON) tests/trace_schema.py \
		--trace /tmp/repro-smoke.jsonl \
		--chrome /tmp/repro-smoke-chrome.json \
		--metrics /tmp/repro-smoke-metrics.json \
		--manifest /tmp/repro-smoke.manifest.json
	test -s /tmp/repro-smoke-profile.txt

# End-to-end live-service smoke: record a drifting request stream,
# replay it through `repro serve` with metrics enabled, and validate
# the emitted metrics snapshot + manifest against the documented
# schemas (docs/serving.md).
serve-smoke:
	$(PYTHON) -m repro serve --items 40 --channels 4 --epoch-seconds 5 \
		--max-epochs 3 --requests-per-epoch 200 \
		--record /tmp/repro-serve-smoke.jsonl > /dev/null
	$(PYTHON) -m repro serve --items 40 --channels 4 --epoch-seconds 5 \
		--max-epochs 3 --replay /tmp/repro-serve-smoke.jsonl \
		--metrics /tmp/repro-serve-metrics.json --metrics-port 0 \
		> /dev/null
	$(PYTHON) tests/trace_schema.py \
		--metrics /tmp/repro-serve-metrics.json \
		--manifest /tmp/repro-serve-metrics.manifest.json

# End-to-end shard fabric smoke: compile a small figure-2 manifest
# into 3 shards, run one, SIGKILL another mid-run (torn trailing
# record), resume it, finish the rest, and diff the merged rows against
# a serial run (docs/sharding.md).
shard-smoke:
	rm -rf /tmp/repro-shard-smoke && mkdir -p /tmp/repro-shard-smoke
	$(PYTHON) -m repro shard compile --figure 2 --replications 1 \
		--shards 3 --output /tmp/repro-shard-smoke/manifest.json
	$(PYTHON) -m repro shard run /tmp/repro-shard-smoke/manifest.json \
		--shard 0 --results-dir /tmp/repro-shard-smoke/results --quiet
	REPRO_SHARD_KILL_AFTER=2 $(PYTHON) -m repro shard run \
		/tmp/repro-shard-smoke/manifest.json --shard 1 \
		--results-dir /tmp/repro-shard-smoke/results --quiet; \
		test $$? -eq 137
	$(PYTHON) -m repro shard run /tmp/repro-shard-smoke/manifest.json \
		--shard 1 --results-dir /tmp/repro-shard-smoke/results --quiet
	$(PYTHON) -m repro shard run /tmp/repro-shard-smoke/manifest.json \
		--shard 2 --workers 2 \
		--results-dir /tmp/repro-shard-smoke/results --quiet
	$(PYTHON) -m repro shard merge /tmp/repro-shard-smoke/manifest.json \
		--results-dir /tmp/repro-shard-smoke/results --diff-serial --quiet

figures:
	for fig in figure2 figure3 figure4 figure5 figure6 figure7; do \
		$(PYTHON) -m repro figure $$fig --quiet --csv benchmarks/results/$$fig.csv; \
	done

# Regenerate Figures 2-5 into a temporary directory and require every
# non-timing column (sweep value, algorithm, mean/std cost, mean/std
# wait, replications) to match the committed CSVs byte for byte: the
# allocators' outputs must not drift.
figure-parity:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for fig in figure2 figure3 figure4 figure5; do \
		$(PYTHON) -m repro figure $$fig --quiet --csv $$tmp/$$fig.csv \
			> /dev/null || exit 1; \
		cut -d, -f1-6,9 benchmarks/results/$$fig.csv > $$tmp/want.csv; \
		cut -d, -f1-6,9 $$tmp/$$fig.csv > $$tmp/got.csv; \
		diff $$tmp/want.csv $$tmp/got.csv > /dev/null \
			|| { echo "$$fig: rows differ from benchmarks/results/$$fig.csv"; \
			     diff $$tmp/want.csv $$tmp/got.csv | head -20; exit 1; }; \
		echo "$$fig: $$(($$(wc -l < $$tmp/got.csv) - 1)) rows match"; \
	done

report:
	$(PYTHON) -m repro report --output report.md

# Run every example script; stops at the first one that fails.
examples:
	for f in examples/*.py; do $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
