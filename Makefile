PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit gates pins perf-smoke e2e e2e-quick figures-smoke outputs

test:            ## tier-1 suite (unit + integration + benchmarks)
	$(PYTHON) -m pytest -x -q

test-unit:       ## fast unit tests only
	$(PYTHON) -m pytest -x -q tests/unit

gates:           ## exact count gates: dispatches, WQEs, doorbells, chain ops, garbage per op, chains built, txn state flat in run length, per-op cost ledger, the pin table's consistency (~25 s)
	$(PYTHON) -m pytest -q tests/unit/test_txn_cost_gate.py tests/unit/test_txn_scan_gate.py \
		tests/unit/test_wal_group_commit.py::TestBatchShape tests/unit/test_hot_path_budget.py \
		tests/unit/test_group_lazy_chains.py tests/unit/test_txn_bounded_state.py \
		tests/unit/test_cost_ledger.py tests/unit/test_pins.py

pins:            ## re-measure every pin of tests/pins.json (NAMES="a b" for some); prints old -> new, writes nothing if a gate fails (~40 s)
	$(PYTHON) -m tests.pins $(NAMES)

perf-smoke:      ## kernel and NIC microbenchmarks as tests (fails on errors, not timing)
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_kernel.py

e2e:             ## end-to-end benchmark (BENCHMARK.json): 5 workloads, ~95 s
	$(PYTHON) benchmarks/e2e/run.py --seed 7

e2e-quick:       ## the same at 1/20 size: checks the plumbing, not the numbers
	$(PYTHON) benchmarks/e2e/run.py --quick

figures-smoke:   ## Fig 11 / Fig 12 shape assertions (simulated, exact; ~15 s)
	$(PYTHON) -m pytest -q benchmarks/test_fig11_rocksdb.py benchmarks/test_fig12_mongodb.py

OUT ?= outputs
outputs:         ## every pinned CLI report, one file each, into OUT=<dir> (~25 s); diff -r two trees' OUT dirs
	mkdir -p $(OUT)
	$(PYTHON) -m repro latency --ops 60 --seed 11 > $(OUT)/latency.txt
	$(PYTHON) -m repro latency --ops 60 --seed 11 --primitive gcas > $(OUT)/latency-gcas.txt
	$(PYTHON) -m repro txn --seed 7 > $(OUT)/txn.txt
	$(PYTHON) -m repro txn --seed 7 --mode si > $(OUT)/txn-si.txt
	$(PYTHON) -m repro txn --seed 7 --retry backoff > $(OUT)/txn-backoff.txt
	$(PYTHON) -m repro txn --ycsb --mixes A,B,C,D,E,F --seed 7 > $(OUT)/txn-ycsb.txt
	$(PYTHON) -m repro chaos --seed 1 > $(OUT)/chaos-1.txt
	$(PYTHON) -m repro chaos --seed 7 > $(OUT)/chaos-7.txt
	$(PYTHON) -m repro chaos --seed 42 > $(OUT)/chaos.txt
	$(PYTHON) -m repro chaos --sweep 4 --seed 42 --workers 1 > $(OUT)/chaos-sweep.txt
	$(PYTHON) -m repro fig2 > $(OUT)/fig2.txt
	$(PYTHON) -m repro fig11 > $(OUT)/fig11.txt
	$(PYTHON) -m repro fig12 > $(OUT)/fig12.txt
	$(PYTHON) -m repro sweep > $(OUT)/sweep.txt
