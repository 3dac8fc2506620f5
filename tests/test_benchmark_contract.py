"""What the benchmark relies on in the package.

perfbench/workloads.py reaches the library only through `api.<name>`
attributes of the package.  perfbench/spans.py lists the functions, methods and constructors it traces
as (layer, name) pairs and rebinds every module-level copy of them, which
includes `stats` in protocol and analysis.  Afterwards it checks that every
module attribute is back to what it was, so the package itself must not
rebind module attributes while it runs.  A change that breaks one of these
should fail here, not only when the benchmark runs.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import makaro_zkp
from makaro_zkp import (
    RandomSource,
    make_prover,
    puzzle,
    reveal_site_plan,
    run_full_protocol,
    simulate_transcript,
)

from conftest import load_grid, load_solution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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


def test_runs_rebind_no_module_attribute():
    grid = load_grid("cross.makaro")  # a fresh grid object: nothing cached for it
    solution = load_solution("cross_solution.makaro")
    before = spans.snapshot()
    source = RandomSource.for_trial(0, 0)
    assert run_full_protocol(grid, make_prover(solution, source), source)[0].accepted
    simulate_transcript(grid, RandomSource.for_trial(0, 0))
    reveal_site_plan(grid)
    assert spans.unchanged(before, spans.snapshot())
