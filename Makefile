.PHONY: all build test bench bench-smoke perfbench-smoke crash-smoke serve-smoke trace-smoke lint legality-smoke check clean

all: build

build:
	dune build

test: build
	dune runtest

# Full benchmark sweep (figures 8-14, table 1, ablations and the search
# infrastructure sections). TIR_JOBS controls the evaluation pool size
# (default: all cores).
bench: build
	dune exec bench/main.exe

# Fast bench run (truncated workload set and trial budgets), then the
# row-by-row gate against the committed baseline: each row of
# BENCH_results.json declares its gate (exact, floor or ceiling), and no
# row may appear, vanish, change its gate or be null. The last leg is the
# gate's self-test: with every row pushed past its gate it must fail.
bench-smoke: build
	BENCH_FAST=1 dune exec bench/main.exe
	dune exec tools/bench_check.exe -- BENCH_results.json BENCH_check_baseline.json
	! dune exec tools/bench_check.exe -- BENCH_results.json \
	  BENCH_check_baseline.json --inject-regression 2>/dev/null

# Two full-scale units of the repo benchmark (perfbench/), untraced, each
# with its whole output check: a serve-mixed run of two job queues, and a
# zoo-compile run of Fig 12's 50 GPU tasks (database round trip, trace
# replay, validator and analyzer on every delivered best, the interpreter
# on small instances). Then one traced run of each workload, whose result
# line must be correct and carry every per-layer metric BENCHMARK.json
# declares, each finite. Exits non-zero when the build or any check fails.
perfbench-smoke: build
	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 12 --trace 0
	python3 perfbench/run.py --workload zoo-compile --seed 1 --seconds 12 --trace 0
	python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 12 --trace 1 \
	  | python3 tools/perfbench_layers.py BENCHMARK.json
	python3 perfbench/run.py --workload zoo-compile --seed 1 --seconds 12 --trace 1 \
	  | python3 tools/perfbench_layers.py BENCHMARK.json

# Kill-and-resume smoke test of the session layer through the CLI: a tune
# halted after one committed generation must exit 8, report as resumable,
# finish under --resume, and then report as completed; a tune under
# injected faults (TIR_FAULTS) must still complete.
crash-smoke: build
	rm -f /tmp/tir_crash_smoke.wal
	dune exec bin/tensorir_cli.exe -- tune GMM --trials 16 \
	  --session /tmp/tir_crash_smoke.wal --halt-after 1; test $$? -eq 8
	dune exec bin/tensorir_cli.exe -- session status /tmp/tir_crash_smoke.wal \
	  | grep -q resumable
	dune exec bin/tensorir_cli.exe -- tune GMM \
	  --session /tmp/tir_crash_smoke.wal --resume
	dune exec bin/tensorir_cli.exe -- session status /tmp/tir_crash_smoke.wal \
	  | grep -q completed
	rm -f /tmp/tir_crash_smoke.wal
	TIR_FAULTS=0.2:42 dune exec bin/tensorir_cli.exe -- tune GMM --trials 16

# Multi-tenant server smoke test through the CLI: three jobs with mixed
# priorities are submitted to a queue directory; a serve killed at a step
# budget must exit 8 and leave resumable work in running/; a second serve
# must drain the queue; a re-submitted workload must complete via a
# cross-tenant database replay; and a malformed job must dead-letter to
# failed/ with a diagnostic rather than wedge the server.
serve-smoke: build
	rm -rf /tmp/tir_serve_smoke
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  GMM --trials 16 --seed 3 --priority 2
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  C2D --trials 16 --seed 5
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  C1D --trials 16 --seed 7
	printf 'workload=GMM\nbogus=key\n' > /tmp/tir_serve_smoke/pending/broken.job
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --max-steps 4 --metrics-out /tmp/tir_serve_smoke/metrics.json; \
	  test $$? -eq 8
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q running
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --metrics-out /tmp/tir_serve_smoke/metrics.json
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q "broken.*failed"
	test $$(dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -c done) -eq 3
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_serve_smoke \
	  GMM --trials 16 --seed 9 --name gmm-replay
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_serve_smoke \
	  --drain --metrics-out /tmp/tir_serve_smoke/metrics.json
	grep -q '"db.replayed":[1-9]' /tmp/tir_serve_smoke/metrics.json
	dune exec bin/tensorir_cli.exe -- jobs --queue /tmp/tir_serve_smoke \
	  | grep -q "gmm-replay.*done"
	rm -rf /tmp/tir_serve_smoke

# Observability smoke test: a short serve run with tracing and telemetry
# enabled must produce a validating Chrome trace (well-formed JSON,
# monotone timestamps, tenant/job context on every event) that
# `tensorir report` can summarize, and a telemetry snapshot that
# `tensorir top` can render. A traced tune must produce a validating
# trace whose report shows a non-empty, monotone search summary.
trace-smoke: build
	rm -rf /tmp/tir_trace_smoke
	dune exec bin/tensorir_cli.exe -- submit --queue /tmp/tir_trace_smoke \
	  GMM --trials 16 --seed 11
	dune exec bin/tensorir_cli.exe -- serve --queue /tmp/tir_trace_smoke \
	  --drain --trace-out /tmp/tir_trace_smoke/trace.json \
	  --telemetry-out /tmp/tir_trace_smoke/telemetry.prom
	dune exec tools/validate_trace.exe /tmp/tir_trace_smoke/trace.json
	dune exec bin/tensorir_cli.exe -- report /tmp/tir_trace_smoke/trace.json \
	  | grep -q "^summary: [1-9][0-9]* generation"
	dune exec bin/tensorir_cli.exe -- top /tmp/tir_trace_smoke/telemetry.prom \
	  | grep -q "queue:"
	dune exec bin/tensorir_cli.exe -- tune GMM --trials 16 \
	  --trace-out /tmp/tir_trace_smoke/tune.json
	dune exec tools/validate_trace.exe /tmp/tir_trace_smoke/tune.json
	dune exec bin/tensorir_cli.exe -- report /tmp/tir_trace_smoke/tune.json \
	  > /tmp/tir_trace_smoke/report.txt
	grep -q "^summary: [1-9][0-9]* generation" /tmp/tir_trace_smoke/report.txt
	grep -q "best-so-far monotone: true" /tmp/tir_trace_smoke/report.txt
	rm -rf /tmp/tir_trace_smoke

# Semantic static analysis (data races, region soundness, bounds) over
# every seed workload and the example scripts; non-zero exit on findings.
lint: build
	dune exec bin/tensorir_cli.exe -- lint --all examples/*.tir

# Legality prover smoke test through the lint JSON interface: the example
# scripts must produce a clean machine-readable report (no error
# diagnostics, no non-advisory illegal item), also for a script whose
# file name holds a tab (the report must stay valid JSON), and the
# known-illegal fixture (parallel reduction race + loop-reversing
# dependence) must exit non-zero with an illegal parallel item and an
# illegal reorder advisory, each naming its loop and block.
legality-smoke: build
	dune exec bin/tensorir_cli.exe -- lint --json examples/*.tir \
	  > /tmp/tir_lint_clean.json
	dune exec tools/validate_lint.exe -- --clean /tmp/tir_lint_clean.json
	rm -rf /tmp/tir_lint_tab && mkdir -p /tmp/tir_lint_tab
	tab="$$(printf '/tmp/tir_lint_tab/tab\tname.tir')" && \
	  cp examples/gmm.tir "$$tab" && \
	  dune exec bin/tensorir_cli.exe -- lint --json "$$tab" \
	  > /tmp/tir_lint_tab/report.json
	dune exec tools/validate_lint.exe -- --clean /tmp/tir_lint_tab/report.json
	! dune exec bin/tensorir_cli.exe -- lint --json \
	  test/fixtures/illegal_mix.tir > /tmp/tir_lint_illegal.json
	dune exec tools/validate_lint.exe -- --expect-illegal \
	  /tmp/tir_lint_illegal.json
	rm -rf /tmp/tir_lint_clean.json /tmp/tir_lint_illegal.json /tmp/tir_lint_tab

# The full pre-merge gate: build, unit + property tests, lint, bench smoke
# run (gated row by row against the committed baseline), two full-scale
# perfbench units and two traced perfbench runs, kill-and-resume smoke
# run, multi-tenant serve smoke run, and the tracing/telemetry smoke run.
check: build
	dune runtest
	$(MAKE) lint
	$(MAKE) legality-smoke
	$(MAKE) bench-smoke
	$(MAKE) perfbench-smoke
	$(MAKE) crash-smoke
	$(MAKE) serve-smoke
	$(MAKE) trace-smoke

clean:
	dune clean
