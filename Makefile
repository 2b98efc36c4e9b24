PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test lint-tools self-check lint-concurrency examples \
	sanitize benchmarks bench-ladder bench-store bench-loadgen \
	bench-write-path bench-read-path bench-e2e-selftest bench-compare \
	slo-smoke

## The CI gate: tier-1 tests + static analysis + the repo's own lint +
## the examples.
check: test lint-tools self-check lint-concurrency examples

test:
	$(PYTHON) -m pytest -x -q

## ruff/mypy run when installed (the `lint` extra); skipped with a
## notice otherwise so `make check` works in minimal containers.
lint-tools:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/repro; \
	else \
		echo "ruff not installed — skipping (pip install -e '.[lint]')"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed — skipping (pip install -e '.[lint]')"; \
	fi

self-check:
	$(PYTHON) -m repro lint --self-check
	$(PYTHON) -m repro lint examples/ benchmarks/

## CC-rule lock-discipline lint over the package's own source.
lint-concurrency:
	$(PYTHON) -m repro lint --concurrency

## Run every script under examples/ and fail on the first non-zero
## exit (~2.5 s); their output is not checked.
examples:
	@set -e; for script in examples/*.py; do \
		echo "$$script"; $(PYTHON) "$$script" > /dev/null; \
	done

## Run the gold batch workload under the runtime lock sanitizer.
sanitize:
	$(PYTHON) -m repro sanitize --contents 60 --workers 4

benchmarks:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

## The corpus-size ladder (100 / 1 000 / 10 000 contents), counts not
## timings: Q1, Q2, Q3 and M1 filter evaluations and index lookups (on
## the first ask after a commit), and upload -> queryable lookups, grow
## with exponent <= 0.33; a second ask on the same generation makes 0
## evaluations (Q1-Q3 and M1; context segment reads and the first
## ask's time printed); Q2/Q3 <= 60
## and M1 <= 80 lookups / <= 70 evaluations per query at 10 000; 12
## fresh M1 texts and 20 fresh Q2 texts, each after a commit, are parsed
## and planned once (1 / 1 each); Q3 as lowered >= 10x the planned
## lookups; the search index build reads exactly the label triples, an
## interface on the head after an upload reads 0 (its commit carried the
## index, re-indexing 1 label triple at every size) and a warm suggest
## looks up 0 (candidates per prefix and build/suggest times printed
## ungated); an upload is 1 generation of 3 contributions, reads the
## Geonames graph 0 times and probes the carried statistics at most
## once per distinct (s, p) / (p, o) pair of its delta (LOD reads and
## resolver time printed ungated); an idle evaluator() looks up,
## contributes and commits nothing; batch annotation is 1 annotate call
## per item; a fully-bound lookup finds 1 triple; a checkpoint of a
## durable copy of the store after 100 commits of 8 quads serializes no
## more quads than those 800 ops; attach_store on a freshly populated
## platform (a child process per size) makes 1 term-resolver evaluation
## per distinct (word, language), 1 annotator stage-1 evaluation per
## distinct (title, language) and 1 filter evaluation per distinct
## (word, candidates), and copies 0 triples into a graph before its
## commit. Rows, timings, the checkpoint's commit-lock hold, the
## attach's peak RSS and its memos' entries and tracemalloc bytes are
## printed ungated (~100 s, ~20 s of it building the three stacks,
## ~20 s the 10 000-content attach).
bench-ladder:
	$(PYTHON) -m pytest benchmarks/bench_ladder.py --benchmark-only -q -s

## Storage-engine guards: a snapshot restart replays 0 ops, a WAL-only
## one >= 10x the snapshot's quads; group commit must average >= 3
## submissions per group for 8 writers; an op-count checkpoint watermark
## must bound the WAL over 10k commits. Timings, and reader throughput
## under an active writer, are recorded ungated.
bench-store:
	$(PYTHON) -m pytest benchmarks/bench_store.py \
		benchmarks/bench_group_commit.py --benchmark-only -q

## Observability guards: the default traffic mix must meet the default
## SLO spec, and the sampling profiler must stay <= 1.10x overhead.
bench-loadgen:
	$(PYTHON) -m pytest benchmarks/bench_loadgen.py \
		--benchmark-only -q

## Write-path guard: an in-memory 8-quad commit into a ~1 000-op
## overlay <= 3x the same into a ~16-op one (the overlay is thawed, not
## copied); fold time at 2 000 / 20 000 base quads is recorded ungated.
## Upload -> queryable is a rung of bench-ladder.
bench-write-path:
	$(PYTHON) -m pytest benchmarks/bench_write_path.py \
		--benchmark-only -q

## Read-path guards, counts not timings: a commit rewrites no more grid
## cells than its delta has geometry triples, a repeated query plans and
## parses 0 times; one-scan latency is recorded ungated. How Q1-Q3 and
## M1 grow with the corpus is guarded by bench-ladder.
bench-read-path:
	$(PYTHON) -m pytest benchmarks/bench_read_path.py \
		--benchmark-only -q

## Self-test of the BENCHMARK.json driver (benchmarks/e2e): every
## workload at reduced op counts with its correctness oracles, every
## declared metric printed with a unit, exact counters repeatable.
bench-e2e-selftest:
	$(PYTHON) -m pytest benchmarks/e2e

## The working tree against BASE (a git ref, default HEAD) on the
## end-to-end benchmark: PAIRS pairs of runs of WORKLOAD (empty = every
## workload) at seed 7 for 10 s, the side that runs first alternating
## from pair to pair, then run.py --compare prints ok / worse /
## unresolved per metric. BASE is exported with git archive into a
## temporary directory, removed on exit; the run records stay in
## bench-results/compare-*.jsonl. Both sides compile from source: no
## bytecode is written, and each side reads compiled modules from its
## own empty PYTHONPYCACHEPREFIX, never from a __pycache__ the working
## tree holds.
BASE ?= HEAD
WORKLOAD ?=
PAIRS ?= 10
bench-compare:
	@set -e; base=$$(mktemp -d); caches=$$(mktemp -d); \
	trap 'rm -rf "$$base" "$$caches"' EXIT; \
	mkdir "$$caches/base" "$$caches/head"; \
	git archive "$(BASE)" | tar -x -C "$$base"; \
	out="$(CURDIR)/bench-results/compare-$(or $(WORKLOAD),all)"; \
	mkdir -p bench-results; rm -f "$$out-base.jsonl" "$$out-head.jsonl"; \
	run="benchmarks/e2e/run.py $(if $(WORKLOAD),--workload $(WORKLOAD)) \
		--seed 7 --seconds 10 --trace 0"; \
	for pair in $$(seq $(PAIRS)); do \
		for side in $$(if [ $$((pair % 2)) = 1 ]; then echo base head; \
				else echo head base; fi); do \
			echo "pair $$pair/$(PAIRS): $$side"; \
			if [ $$side = base ]; then dir="$$base"; else dir=.; fi; \
			(cd "$$dir" && PYTHONPATH= PYTHONDONTWRITEBYTECODE=1 \
				PYTHONPYCACHEPREFIX="$$caches/$$side" $(PYTHON) $$run \
				--out "$$out-$$side.jsonl" >/dev/null); \
		done; \
	done; \
	$(PYTHON) benchmarks/e2e/run.py --compare \
		"$$out-base.jsonl" "$$out-head.jsonl"

## One small SLO-checked load run straight through the CLI — the same
## invocation the slo-smoke CI job gates on — then `repro obs slo
## --input` re-judges the run's saved report and its --save-metrics
## bundle: each verdict table must equal the run's own.
SLO_TABLE = awk '/^SLO report: /{on=1} on && !/^(SLO report: |  )/{on=0} on'
slo-smoke:
	@set -e; out=slo-artifacts; mkdir -p $$out; status=0; \
	$(PYTHON) -m repro obs loadgen --mix default --seed 7 \
		--ops 48 --workers 4 --slo --report $$out/load-report.json \
		--save-metrics $$out/loadgen-metrics.json \
		> $$out/loadgen-output.txt || status=$$?; \
	cat $$out/loadgen-output.txt; \
	[ $$status = 0 ] || exit $$status; \
	$(SLO_TABLE) $$out/loadgen-output.txt > $$out/verdict.txt; \
	[ -s $$out/verdict.txt ]; \
	for input in load-report.json loadgen-metrics.json; do \
		$(PYTHON) -m repro obs slo --input $$out/$$input \
			| $(SLO_TABLE) | diff $$out/verdict.txt -; \
	done; \
	echo "obs slo --input: same verdict on the saved report and bundle"
