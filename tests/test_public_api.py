"""Every public function and method has a caller outside the tests.

A name counts as used when the library reads it outside its own `def` and
outside `__init__.py`, or when a demo or the benchmark's workloads read it.
The benchmark's tracer (perfbench/spans.py) wraps names without using them,
so it does not count.  Names are matched as written, so a read of any
attribute spelled like a method counts for that method.

A public function of a library module that is not exported stays only for
the tracer: it must be one of its spans and have no caller outside the
tests.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import makaro_zkp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(makaro_zkp.__file__).parent
CALLERS = [*(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
           *sorted((ROOT / "demos").glob("*.py")),
           ROOT / "perfbench" / "workloads.py"]
# public names that only the tests reach, each with the reason it stays
KEPT = {
    "CardMatrix.is_face_up": "the one public view of a card's face; the deck "
                             "tests read it to check reveals and turn-downs",
}
LIBRARY = ("deck", "protocol", "puzzle", "gridgen", "analysis")


class _Reads(ast.NodeVisitor):
    """Every name and attribute a module reads, except where a function
    reads its own name (a recursive call is not a caller)."""

    def __init__(self):
        self.names: set[str] = set()
        self._defs: list[str] = []

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    def visit_Name(self, node):
        if node.id not in self._defs:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self._defs:
            self.names.add(node.attr)
        self.generic_visit(node)


def read_names() -> set[str]:
    reads = _Reads()
    for path in CALLERS:
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
    return reads.names


def public_callables() -> dict[str, str]:
    """Qualified name -> the name a caller writes, for every exported
    function and every public method of an exported package class."""
    out = {}
    for name in makaro_zkp.__all__:
        value = getattr(makaro_zkp, name)
        if inspect.isfunction(value):
            out[name] = name
        elif inspect.isclass(value) and value.__module__.startswith(makaro_zkp.__name__):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (classmethod, staticmethod))):
                    out[f"{name}.{attr}"] = attr
    return out


def test_every_public_callable_has_a_caller_outside_the_tests():
    reads = read_names()
    unread = sorted(name for name, written in public_callables().items()
                    if written not in reads)
    assert unread == sorted(KEPT)


def traced_names() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return set(spans.SPANS)


def test_a_function_left_out_of_the_exports_is_kept_for_the_tracer_alone():
    reads, traced, exported = read_names(), traced_names(), set(makaro_zkp.__all__)
    unexported = {(layer, name)
                  for layer in LIBRARY
                  for name, value in vars(importlib.import_module(f"makaro_zkp.{layer}")).items()
                  if inspect.isfunction(value) and not name.startswith("_")
                  and value.__module__ == f"makaro_zkp.{layer}" and name not in exported}
    assert sorted(unexported - traced) == []
    assert sorted(name for _, name in unexported if name in reads) == []
    # the entries that run one check, and deck's one-card reveal
    assert unexported == {("deck", "reveal"), ("protocol", "convert_cell"),
                          ("protocol", "verify_arrow"), ("protocol", "verify_neighbor"),
                          ("protocol", "verify_room")}
