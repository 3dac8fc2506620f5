"""Span tracing from outside the library, for the benchmark's traced run.

A Tracer replaces chosen public functions, methods and constructors of the
makaro_zkp modules with wrappers that record one span per call: name, start,
end, parent span and the workload op it ran in.  Spans are kept in flat
in-memory arrays while the run lasts and written out when it ends.  Every
replaced attribute is put back when tracing stops.

`from .x import f` copies a binding, so a function is replaced in every
makaro_zkp module (and the package itself) that holds it.  Methods and
constructors are replaced once, on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "makaro_zkp"
SETUP_OP = -1  # op id of spans recorded while the traced set-up runs

# Spans recorded in the traced run, as (layer, name); "Class.method" names a
# method, a bare class name its constructor.
SPANS = (
    ("puzzle", "parse_puzzle"),
    ("puzzle", "check_solution"),
    ("puzzle", "solve_brute_force"),
    ("puzzle", "stats"),
    ("puzzle", "white_neighbor_pairs"),
    ("gridgen", "enumerate_small_grids"),
    ("deck", "RandomSource.for_trial"),
    ("deck", "pile_scramble_shuffle"),
    ("deck", "pile_shifting_shuffle"),
    ("deck", "CardMatrix.permute_columns"),
    ("deck", "reveal"),
    ("deck", "Transcript.to_text"),
    ("deck", "Transcript.from_text"),
    ("protocol", "run_full_protocol_with_table"),
    ("protocol", "TableState"),
    ("protocol", "setup_placement"),
    ("protocol", "verify_room"),
    ("protocol", "convert_cell"),
    ("protocol", "verify_neighbor"),
    ("protocol", "verify_arrow"),
    ("protocol", "arrow_check_cells"),
    ("protocol", "simulate_transcript"),
    ("protocol", "reveal_site_plan"),
    ("analysis", "SiteHistograms"),
    ("analysis", "SiteHistograms.add_transcript"),
    ("analysis", "compare_collections"),
    ("analysis", "compare_histograms"),
)
LAYERS = ("puzzle", "gridgen", "deck", "protocol", "analysis")

# Spans of functions that the workloads call only while setting up; their
# figures are per set-up instead of per op.
SETUP_SPANS = frozenset({
    "puzzle.parse_puzzle",
    "gridgen.enumerate_small_grids",
    "deck.Transcript.to_text",
    "deck.Transcript.from_text",
})


def _count_protocol_run(result, counts: Counter) -> None:
    verdict, transcript, _ = result
    counts["protocol_runs"] += 1
    counts["events"] += len(transcript)
    if verdict.failing_check is not None and verdict.failing_check.at_setup:
        counts["setup_rejects"] += 1


def _count_solutions(result, counts: Counter) -> None:
    counts["solutions"] += len(result)


# Counts taken from a traced function's result, during ops only.
RESULT_COUNTS = {
    "protocol.run_full_protocol_with_table": _count_protocol_run,
    "puzzle.solve_brute_force": _count_solutions,
}


def package_modules() -> list:
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def snapshot() -> dict:
    """Every attribute of the package's modules and of the classes they
    define, keyed by where it lives."""
    out = {}
    for mod in package_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                for cls_attr, cls_value in vars(value).items():
                    out[(mod.__name__, attr, cls_attr)] = cls_value
    return out


def unchanged(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


class Tracer:
    """Records spans around the calls listed in SPANS while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op = SETUP_OP
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installing and restoring ------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            for layer, name in SPANS:
                self._install(layer, name)
            self._install_filling_count()
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)

    def _install(self, layer: str, name: str) -> None:
        span = f"{layer}.{name}"
        module = sys.modules[f"{PACKAGE}.{layer}"]
        if "." in name:
            cls_name, method = name.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[method]
            if isinstance(raw, classmethod):
                self._replace(cls, method, classmethod(self._wrap(raw.__func__, span)))
            else:
                self._replace(cls, method, self._wrap(raw, span))
            return
        target = getattr(module, name)
        if isinstance(target, type):
            self._replace(target, "__init__", self._wrap(target.__dict__["__init__"], span))
        else:
            self._replace_everywhere(target, self._wrap(target, span))

    def _install_filling_count(self) -> None:
        """all_value_assignments is a generator: count its fillings, no span."""
        original = sys.modules[f"{PACKAGE}.gridgen"].all_value_assignments
        tracer = self

        @functools.wraps(original)
        def counted(grid):
            for filling in original(grid):
                if tracer.op != SETUP_OP:
                    tracer.counts["fillings"] += 1
                yield filling

        self._replace_everywhere(original, counted)

    def _wrap(self, fn, span: str):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        on_result = RESULT_COUNTS.get(span)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t
                stack.pop()
            if on_result is not None and tracer.op != SETUP_OP:
                on_result(result, tracer.counts)
            return result

        return wrapper

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def write(self, path: Path) -> None:
        """Write every span (and the name table) as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures: per op over the measured ops, per set-up for
        SETUP_SPANS (the traced run sets up once)."""
        a = self.arrays()
        durations = a["end"] - a["start"]
        own = self_times(a["start"], a["end"], a["parent"])
        in_ops = a["op"] != SETUP_OP
        out: dict[str, tuple[float, str]] = {}
        for layer, name in SPANS:
            span = f"{layer}.{name}"
            per, unit = (1, "setup") if span in SETUP_SPANS else (ops, "op")
            if span in self.names:
                mask = a["name_id"] == self.names.index(span)
                mask &= ~in_ops if span in SETUP_SPANS else in_ops
            else:
                mask = np.zeros(len(durations), dtype=bool)
            out[f"{span}.calls"] = (int(mask.sum()) / per, f"calls/{unit}")
            out[f"{span}.total_ms"] = (float(durations[mask].sum()) * 1e3 / per, f"ms/{unit}")
            out[f"{span}.self_ms"] = (float(own[mask].sum()) * 1e3 / per, f"ms/{unit}")
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names) if n.startswith(layer + ".")]
            mask = np.isin(a["name_id"], ids) & in_ops
            out[f"{layer}.self_ms"] = (float(own[mask].sum()) * 1e3 / ops, "ms/op")

        candidates = 0
        if "puzzle.check_solution" in self.names and "puzzle.solve_brute_force" in self.names:
            check = a["name_id"] == self.names.index("puzzle.check_solution")
            check &= in_ops & (a["parent"] >= 0)
            solver = self.names.index("puzzle.solve_brute_force")
            candidates = int((a["name_id"][a["parent"][check]] == solver).sum())
        counts = self.counts
        runs = counts["protocol_runs"]
        out["puzzle.solve_brute_force.candidates"] = (candidates / ops, "count/op")
        out["puzzle.solve_brute_force.solutions_per_candidate"] = (
            counts["solutions"] / candidates if candidates else 0.0, "ratio")
        out["gridgen.fillings"] = (counts["fillings"] / ops, "count/op")
        out["deck.events_per_proof"] = (counts["events"] / runs if runs else 0.0, "count")
        out["protocol.setup_reject_ratio"] = (
            counts["setup_rejects"] / runs if runs else 0.0, "ratio")
        return out


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from calls nested on one thread, so the children of a span
    never overlap and the time they cover is the sum of their durations.
    """
    durations = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=durations[has_parent],
                          minlength=len(durations))
    return durations - covered
