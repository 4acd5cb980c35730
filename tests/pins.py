"""The pin table: every measured value a gate compares exactly.

A *pin* is a value that a legitimate change to the simulated schedule
moves — a dispatch count, a report digest, a recorded verdict — and
that a gate compares for equality. All of them live in
``tests/pins.json``, one entry per gate::

    "txn-cost-gate": {
      "gate": "tests.unit.test_txn_cost_gate:measure_ycsb_a",
      "why": "...",
      "value": {"kernel_dispatches": ..., "cpu_dispatches": ...}
    }

``gate`` names the gate's fixture-free measurement function: it runs
the gate's own checks (the run repeats, every transaction committed,
the report passed, ...) and returns the measured value; the gate's
test compares it through :func:`assert_pinned`. Bounds (at most, less
than, flat in run length) and closed forms stay in the tests: they are
what a gate is for, and no schedule change may move them.

Re-measure with ``python -m tests.pins [NAME ...]`` (``make pins``):
it calls the named gates' functions (every gate without names). If
any of them fails its own checks it writes nothing; otherwise it prints
the old -> new table of every moved field (for CHANGES.md) and rewrites
the file. The history of each pin is in ``docs/perf-log.md``, *Pin
history*.
"""

import enum
import importlib
import json
import sys
import traceback
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")
COMMAND = "python -m tests.pins"
WIDTH = 88  # a container whose one-line form fits stays on one line


def load():
    """The table, ``{name: {"gate", "why", "value"}}``, in file order."""
    return json.loads(PINS_PATH.read_text())


def pinned(name):
    """The pinned value of entry ``name``."""
    return load()[name]["value"]


def normal(value):
    """``value`` in the table's JSON-normal form: tuples as lists, bytes
    as hex, enums by name, dict keys as strings."""
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, dict):
        return {str(key): normal(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [normal(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"no JSON-normal form for {type(value).__name__}: {value!r}")


def moved(old, new, path=""):
    """``[(path, old, new)]``: every leaf where ``new`` differs from
    ``old``. Strings of one length longer than a digest (the verdict
    digit strings) are compared character by character."""
    if isinstance(old, dict) and isinstance(new, dict):
        rows = []
        for key in {**old, **new}:
            rows += moved(old.get(key), new.get(key), f"{path}.{key}" if path else key)
        return rows
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        rows = []
        for index, (before, after) in enumerate(zip(old, new)):
            rows += moved(before, after, f"{path}[{index}]")
        return rows
    if isinstance(old, str) and isinstance(new, str) and len(old) == len(new) > 64:
        return [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new)) if a != b]
    return [] if old == new else [(path, old, new)]


def assert_pinned(name, measured, key=None):
    """Fail unless ``measured`` equals the pin ``name`` (its ``key``
    field, for a gate parametrized over the entry's fields), listing
    each moved field old -> new and the command that re-measures it."""
    value = pinned(name)
    label = name if key is None else f"{name}[{key}]"
    if key is not None:
        if key not in value:
            raise AssertionError(f"no pin {label}: record it with {COMMAND} {name}")
        value = value[key]
    rows = moved(value, normal(measured))
    if rows:
        lines = "\n".join(f"  {path or '(value)'}: {old!r} -> {new!r}" for path, old, new in rows)
        raise AssertionError(
            f"pin {label} moved:\n{lines}\nif the move is meant, re-measure: {COMMAND} {name}"
        )


def dump(value, indent=0):
    """The table's one text form: a container that fits on one line of
    ``WIDTH`` stays there, a longer one puts an item on each line."""
    flat = json.dumps(value, ensure_ascii=False)
    if not isinstance(value, (dict, list)) or not value or indent + len(flat) <= WIDTH:
        return flat
    pad = " " * (indent + 2)
    if isinstance(value, dict):
        items = [
            f"{pad}{json.dumps(key)}: {dump(item, indent + 2)}" for key, item in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    items = [pad + dump(item, indent + 2) for item in value]
    return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"


def gate(entry):
    """The measurement function an entry's ``gate`` names."""
    module, _, function = entry["gate"].partition(":")
    return getattr(importlib.import_module(module), function)


def remeasure(names=None):
    """Call the named gates' functions (all without names); returns
    ``(table with the new values, moved rows, failures)``."""
    table = load()
    unknown = [name for name in names or () if name not in table]
    if unknown:
        raise SystemExit(f"no such pin: {', '.join(unknown)} (known: {', '.join(table)})")
    rows, failures = [], []
    for name in names or list(table):
        try:
            value = normal(gate(table[name])())
        except Exception:  # the gate's own checks: record nothing
            failures.append((name, traceback.format_exc(limit=4)))
            continue
        rows += [(name, *row) for row in moved(table[name]["value"], value)]
        table[name] = {**table[name], "value": value}
    return table, rows, failures


def main(argv):
    if not __debug__:
        raise SystemExit("run without -O: the gates' own checks are asserts")
    table, rows, failures = remeasure(argv)
    if failures:
        for name, trace in failures:
            print(f"gate {name} failed its own checks:\n{trace}", file=sys.stderr)
        print(f"{len(failures)} gate(s) failed; {PINS_PATH.name} left as it was", file=sys.stderr)
        return 1
    if not rows:
        print(f"every pin repeats; {PINS_PATH.name} left as it was")
        return 0
    print("| pin | field | old | new |\n|---|---|---|---|")
    for name, path, old, new in rows:
        print(f"| {name} | {path or '(value)'} | {json.dumps(old)} | {json.dumps(new)} |")
    PINS_PATH.write_text(dump(table) + "\n")
    print(f"{len(rows)} field(s) moved; {PINS_PATH.name} rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
