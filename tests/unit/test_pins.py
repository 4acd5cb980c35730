"""The pin table's own consistency (``tests/pins.json``, ``tests/pins.py``).

Read statically, without running a gate: every entry is compared by
exactly one ``assert_pinned`` call, in the module its ``gate`` names,
and that module defines the gate as a fixture-free function; the file
is in the one text form the re-measure command writes, every value in
JSON-normal form; and no entry is a bound — bounds stay in the tests,
where no re-measure can move them.
"""

import ast
import enum
import re
from collections import defaultdict
from pathlib import Path

import pytest

from tests import pins

TESTS = Path(pins.__file__).parent
TABLE = pins.load()
BOUND = re.compile(
    r"\b(at most|at least|no more than|fewer than|less than|more than|bound|limit|max|min)\b"
    r"|[<>≤≥]",
    re.IGNORECASE,
)


def _module_name(path):
    return ".".join(path.relative_to(TESTS.parent).with_suffix("").parts)


def _readers():
    """``{entry: [module, ...]}``: which gate modules call
    ``assert_pinned`` on what (this file's own check of the helper is
    no gate). A call whose name is not a string literal maps to
    ``None``."""
    readers = defaultdict(list)
    for path in sorted(TESTS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called != "assert_pinned" or path.name in ("pins.py", "test_pins.py"):
                continue
            first = node.args[0] if node.args else None
            name = first.value if isinstance(first, ast.Constant) else None
            readers[name].append(_module_name(path))
    return readers


def _functions(module):
    """``{name: argument count}`` of a module's top-level functions."""
    path = TESTS.parent.joinpath(*module.split(".")).with_suffix(".py")
    tree = ast.parse(path.read_text())
    return {
        node.name: len(node.args.args) + len(node.args.kwonlyargs)
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _leaves(value, path=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def test_every_entry_is_read_by_exactly_one_gate_and_every_gate_has_its_entry():
    readers = _readers()
    assert None not in readers, "assert_pinned takes its entry's name as a literal"
    assert set(readers) == set(TABLE)
    for name, entry in TABLE.items():
        module, _, function = entry["gate"].partition(":")
        assert readers[name] == [module], (name, readers[name])
        assert _functions(module).get(function) == 0, f"{entry['gate']}: no fixture-free gate"


@pytest.mark.parametrize("name", list(TABLE))
def test_an_entry_is_in_json_normal_form(name):
    entry = TABLE[name]
    assert list(entry) == ["gate", "why", "value"]
    assert re.fullmatch(r"[\w.]+:\w+", entry["gate"])
    assert entry["why"].strip() and "\n" not in entry["why"]
    assert pins.normal(entry["value"]) == entry["value"]
    for path, leaf in _leaves(entry["value"]):
        assert leaf is None or isinstance(leaf, (bool, int, float, str)), path


def test_the_file_is_in_the_form_the_command_writes():
    assert pins.PINS_PATH.read_text() == pins.dump(TABLE) + "\n"


@pytest.mark.parametrize("name", list(TABLE))
def test_no_entry_is_a_bound(name):
    entry = TABLE[name]
    assert not BOUND.search(name) and not BOUND.search(entry["why"]), entry["why"]
    fields = [path for path, _ in _leaves(entry["value"])]
    assert not [field for field in fields if BOUND.search(field.replace("_", " "))], fields


def test_a_mismatch_names_each_moved_field_and_the_command():
    pinned = pins.pinned("txn-cost-gate")
    moved = {**pinned, "cpu_dispatches": pinned["cpu_dispatches"] + 1}
    with pytest.raises(AssertionError) as raised:
        pins.assert_pinned("txn-cost-gate", moved)
    message = str(raised.value)
    assert f"cpu_dispatches: {pinned['cpu_dispatches']} -> {moved['cpu_dispatches']}" in message
    assert "kernel_dispatches" not in message
    assert "python -m tests.pins txn-cost-gate" in message


def test_normal_form_spells_bytes_as_hex_enums_by_name_and_tuples_as_lists():
    color = enum.Enum("Color", "RED")
    assert pins.normal({1: (b"\x07\x00", color.RED, None, [2.5])}) == {
        "1": ["0700", "RED", None, [2.5]]
    }
