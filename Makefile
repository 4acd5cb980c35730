PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit gates bench bench-quick perf-smoke e2e e2e-quick figures-smoke

test:            ## tier-1 suite (unit + integration + benchmarks)
	$(PYTHON) -m pytest -x -q

test-unit:       ## fast unit tests only
	$(PYTHON) -m pytest -x -q tests/unit

gates:           ## exact count gates: dispatches, WQEs, doorbells, chain ops, garbage per op (~20 s)
	$(PYTHON) -m pytest -q tests/unit/test_txn_cost_gate.py tests/unit/test_txn_scan_gate.py \
		tests/unit/test_wal_group_commit.py::TestBatchShape tests/unit/test_hot_path_budget.py

bench:           ## full perf suite; appends an entry to BENCH_kernel.json
	$(PYTHON) -m repro.bench.perfsuite --label "$(or $(LABEL),local)"

bench-quick:     ## CI-sized perf suite; prints the entry, writes nothing
	$(PYTHON) -m repro.bench.perfsuite --quick --output -

perf-smoke:      ## perf benchmarks as tests (fails on errors, not timing)
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_kernel.py

e2e:             ## end-to-end benchmark (BENCHMARK.json): 5 workloads, ~95 s
	$(PYTHON) benchmarks/e2e/run.py --seed 7

e2e-quick:       ## the same at 1/20 size: checks the plumbing, not the numbers
	$(PYTHON) benchmarks/e2e/run.py --quick

figures-smoke:   ## Fig 11 / Fig 12 shape assertions (simulated, exact; ~15 s)
	$(PYTHON) -m pytest -q benchmarks/test_fig11_rocksdb.py benchmarks/test_fig12_mongodb.py
