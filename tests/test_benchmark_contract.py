"""What the benchmark relies on in the package.

perfbench/workloads.py reaches the library only through `api.<name>`
attributes of the package.  perfbench/spans.py lists the functions, methods and constructors it traces
as (layer, name) pairs and rebinds every module-level copy of them, which
includes `stats` in protocol and analysis.  Afterwards it checks that every
module attribute is back to what it was, so the package itself must not
rebind module attributes while it runs.  A change that breaks one of these
should fail here, not only when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import makaro_zkp
from makaro_zkp import (
    FailedCheck,
    RandomSource,
    make_prover,
    protocol,
    puzzle,
    reveal_site_plan,
    run_full_protocol,
    simulate_transcript,
)

from conftest import load_grid, load_solution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = sorted(path for path in Path(makaro_zkp.__file__).parent.glob("*.py")
                 if path.stem != "__init__")
# the only bindings a module imports for the benchmark alone: spans.py traces
# protocol's `arrow_check_cells`, and perfbench/test_perfbench.py asserts
# that the traced run rebinds analysis's `stats`
TRACER_ONLY = {"protocol": ["arrow_check_cells"], "analysis": ["stats"]}
SPANS_FILE = PERFBENCH / "spans.py"
# every package attribute the workloads reach, as `api.<name>`
WORKLOAD_API = sorted(set(re.findall(r"\bapi\.(\w+)",
                                     (PERFBENCH / "workloads.py").read_text(encoding="utf-8"))))


def load_spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans_module()


@pytest.mark.parametrize("layer, name", spans.SPANS)
def test_every_traced_name_resolves(layer, name):
    target = importlib.import_module(f"{makaro_zkp.__name__}.{layer}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_the_workloads_reach_the_package_through_api_names():
    assert len(WORKLOAD_API) >= 14


@pytest.mark.parametrize("name", WORKLOAD_API)
def test_every_workload_name_resolves(name):
    assert callable(getattr(makaro_zkp, name))


@pytest.mark.parametrize("layer", ["protocol", "analysis"])
def test_stats_is_bound_where_the_tracer_rebinds_it(layer):
    module = importlib.import_module(f"{makaro_zkp.__name__}.{layer}")
    assert module.stats is puzzle.stats


def test_arrow_check_cells_is_bound_where_the_tracer_wraps_it():
    # the tracer wraps protocol's binding and every copy of it, so the span
    # counts the calls the grid's rule list makes in puzzle
    assert protocol.arrow_check_cells is puzzle.arrow_check_cells


def unused_imports(path: Path) -> list[str]:
    """The names a module imports, at any depth, that it never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_import_guard_sees_every_module():
    assert [path.stem for path in MODULES] == [
        "analysis", "cli", "deck", "gridgen", "protocol", "puzzle"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_a_module_reads_every_name_it_imports(path):
    # so no import stays behind for a tracer that no longer needs it
    assert unused_imports(path) == TRACER_ONLY.get(path.stem, [])


def test_runs_rebind_no_module_attribute():
    grid = load_grid("cross.makaro")  # a fresh grid object: nothing cached for it
    solution = load_solution("cross_solution.makaro")
    # room C holding two 2s is rejected at setup; room C swapped puts a 1
    # beside the clued 1 at (0,0), rejected at that neighbor check
    rejected = {FailedCheck("room", "C", at_setup=True): {**solution, (2, 0): 2},
                FailedCheck("neighbor", ((0, 0), (1, 0))): {**solution, (1, 0): 1, (2, 0): 2}}
    before = spans.snapshot()
    source = RandomSource.for_trial(0, 0)
    assert run_full_protocol(grid, make_prover(solution, source), source)[0].accepted
    for failed, filling in rejected.items():
        source = RandomSource.for_trial(0, 1)
        verdict, _ = run_full_protocol(grid, make_prover(filling, source), source)
        assert verdict.failing_check == failed
    simulate_transcript(grid, RandomSource.for_trial(0, 0))
    reveal_site_plan(grid)
    assert spans.unchanged(before, spans.snapshot())
