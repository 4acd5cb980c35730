"""The certifier stays pure: ``txn/certify.py`` imports the standard
library and ``repro.txn.ssi``, nothing else — no simulator, hardware,
group or storage module can reach its decisions."""

import ast
import sys
from pathlib import Path

import repro.txn.certify as certify


def imported_modules(source, package):
    """Absolute names of every module a module of ``package`` with this
    source imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[: len(parts) - node.level + 1]
                names.append(".".join(base + ([node.module] if node.module else [])))
            else:
                names.append(node.module)
    return names


def test_certify_imports_only_the_stdlib_and_ssi():
    names = imported_modules(Path(certify.__file__).read_text(), "repro.txn")
    assert "repro.txn.ssi" in names
    foreign = [
        name
        for name in names
        if name != "repro.txn.ssi"
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_relative_imports_resolve_against_the_package():
    source = "from .ssi import x\nfrom ..sim import Event\nfrom . import mvcc\nimport heapq\n"
    names = imported_modules(source, "repro.txn")
    assert names == ["repro.txn.ssi", "repro.sim", "repro.txn", "heapq"]
