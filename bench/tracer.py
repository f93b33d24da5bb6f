"""Spans and counts around calls into crosshom's public functions.

The wrappers live only in the benchmark. They are installed for the traced
pass and for the counted pass and removed afterwards, so the timed passes
never run through them. A listed name that no longer exists in its module is
reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import operator
import os
import sys
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

# The public functions wrapped, by the crosshom module (layer) defining them.
LAYERS = {
    "linalg": ("rank", "kernel_basis", "invert"),
    "liealg": (
        "check_lie_algebra",
        "check_action",
        "check_crossed_hom",
        "twist_iso_check",
        "solve_crossed_homs_grid",
    ),
    "witt": (
        "verify_witt_crossed_hom",
        "witt_bracket",
        "gl_bracket",
        "canonical_crossed_hom_W",
        "generalized_witt_setup",
    ),
    "rinehart": (
        "shen_larsson_apply",
        "check_module_axiom_window",
        "check_weak_compat_window",
        "check_lie_rinehart",
        "check_leibniz_pair",
        "check_weak_rep",
    ),
    "cohomology": (
        "differential_matrix",
        "cohomology_dims",
        "mc_residual",
        "check_nijenhuis",
        "nijenhuis_grid",
        "trivial_deformation_generator",
        "check_linear_deformation",
    ),
    "formats": ("load_file", "twisting_polynomials_from_file"),
    "cli": ("main", "render_report"),
}

# Inclusive time of the outermost call into any function of the group.
TIME_METRICS = {
    "linalg.rank_s": ("linalg.rank",),
    "linalg.kernel_basis_s": ("linalg.kernel_basis",),
    "linalg.invert_s": ("linalg.invert",),
    "cohomology.differential_matrix_s": ("cohomology.differential_matrix",),
    "cohomology.cohomology_dims_s": ("cohomology.cohomology_dims",),
    "cohomology.mc_residual_s": ("cohomology.mc_residual",),
    "cohomology.nijenhuis_s": ("cohomology.check_nijenhuis", "cohomology.nijenhuis_grid"),
    "witt.verify_witt_crossed_hom_s": ("witt.verify_witt_crossed_hom",),
    "rinehart.shen_larsson_apply_s": ("rinehart.shen_larsson_apply",),
    "rinehart.window_check_s": (
        "rinehart.check_module_axiom_window",
        "rinehart.check_weak_compat_window",
    ),
    "liealg.check_crossed_hom_s": ("liealg.check_crossed_hom",),
    "liealg.solve_crossed_homs_grid_s": ("liealg.solve_crossed_homs_grid",),
    "formats.load_file_s": ("formats.load_file", "formats.twisting_polynomials_from_file"),
    "cli.main_s": ("cli.main",),
    "cli.render_report_s": ("cli.render_report",),
}

CALL_METRICS = {
    "linalg.rank_calls": "linalg.rank",
    "witt.witt_bracket_calls": "witt.witt_bracket",
    "witt.gl_bracket_calls": "witt.gl_bracket",
    "witt.canonical_crossed_hom_W_calls": "witt.canonical_crossed_hom_W",
    "rinehart.shen_larsson_apply_calls": "rinehart.shen_larsson_apply",
}


# Counts computed from each call's arguments (and result), not measured
# inside the program. `args` are the bound positional arguments.


def _rank(c, args, result):
    m = args[0]
    c["linalg.entries_in"] += m.rows * m.cols
    c["linalg.nnz_in"] += sum(1 for x in m.data if x)


def _differential_matrix(c, args, result):
    s, k = args[0], args[1]
    c["cohomology.unit_cochains"] += math.comb(s.g.dim, k) * s.h.dim


def _verify_witt(c, args, result):
    n, family, window = args[0], args[1], args[2]
    witt = sys.modules["crosshom.witt"]
    if family == "sdiv":
        elems = len(witt.sdiv_window_basis(n, window.bound))
    elif family == "ham":
        elems = len(witt.ham_window_basis(n, window.bound))
    else:
        elems = n * (2 * window.bound + 1) ** n
    c["witt.pairs_checked"] += math.comb(elems, 2)


def _axiom_window(c, args, result):
    n, window, module = args[1], args[2], args[3]
    actors = n * (2 * window.bound + 1) ** n
    c["rinehart.identities_checked"] += math.comb(actors, 2) * len(module)
    c["rinehart.findings"] += len(result)


def _compat_window(c, args, result):
    n, window, module = args[1], args[2], args[3]
    monomials = (2 * window.bound + 1) ** n
    c["rinehart.identities_checked"] += n * monomials * monomials * len(module)
    c["rinehart.findings"] += len(result)


def _solve_grid(c, args, result):
    g, h, grid = args[0], args[1], args[3]
    c["liealg.grid_candidates"] += len(grid) ** (h.dim * g.dim)


def _check_crossed_hom(c, args, result):
    c["liealg.pairs_checked"] += math.comb(args[0].g.dim, 2)


def _file_bytes(c, args, result):
    c["formats.bytes_read"] += os.path.getsize(args[0])


def _render_report(c, args, result):
    if args[1]:
        c["cli.json_bytes"] += len(result.encode())


COUNTERS = {
    "linalg.rank": (_rank, ("linalg.entries_in", "linalg.nnz_in")),
    "cohomology.differential_matrix": (_differential_matrix, ("cohomology.unit_cochains",)),
    "witt.verify_witt_crossed_hom": (_verify_witt, ("witt.pairs_checked",)),
    "rinehart.check_module_axiom_window": (
        _axiom_window,
        ("rinehart.identities_checked", "rinehart.findings"),
    ),
    "rinehart.check_weak_compat_window": (
        _compat_window,
        ("rinehart.identities_checked", "rinehart.findings"),
    ),
    "liealg.solve_crossed_homs_grid": (_solve_grid, ("liealg.grid_candidates",)),
    "liealg.check_crossed_hom": (_check_crossed_hom, ("liealg.pairs_checked",)),
    "formats.load_file": (_file_bytes, ("formats.bytes_read",)),
    "formats.twisting_polynomials_from_file": (_file_bytes, ("formats.bytes_read",)),
    "cli.render_report": (_render_report, ("cli.json_bytes",)),
}
COMPUTED_METRICS = sorted({m for _, names in COUNTERS.values() for m in names})


class Patches:
    """Replace each listed function in every crosshom namespace that bound it."""

    def __init__(self):
        self.undo: list = []
        self.present: list[str] = []
        self.absent: list[str] = []

    def install(self, make_wrapper):
        for layer, names in LAYERS.items():
            try:
                mod = importlib.import_module(f"crosshom.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                fid = f"{layer}.{name}"
                orig = getattr(mod, name, None)
                if not callable(orig):
                    self.absent.append(fid)
                    continue
                self.present.append(fid)
                wrapper = make_wrapper(fid, orig)
                for m in list(sys.modules.values()):
                    mname = getattr(m, "__name__", "")
                    if mname != "crosshom" and not mname.startswith("crosshom."):
                        continue
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self.undo.append((m, attr, orig))

    def remove(self):
        for m, attr, orig in reversed(self.undo):
            setattr(m, attr, orig)
        self.undo.clear()


class Spans:
    """Spans kept in memory as parallel arrays: name, start, end, parent, job."""

    def __init__(self):
        self.fids: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_job = -1

    def wrap(self, fid: str, f):
        code = len(self.fids)
        self.fids.append(fid)
        name, parent, job, start, end, stack = (
            self.name, self.parent, self.job, self.start, self.end, self.stack
        )

        @functools.wraps(f)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(code)
            parent.append(stack[-1])
            job.append(self.current_job)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()

        return traced

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def write_tsv(self, path, job_names: list[str]):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.name)):
                job = job_names[self.job[i]] if self.job[i] >= 0 else ""
                fh.write(
                    f"{self.fids[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t"
                    f"{self.parent[i]}\t{job}\n"
                )


class Counts:
    """Call counts and computed counts from one pass, plus counters that broke.

    Fraction ops are not counted while a counter works out its numbers.
    """

    def __init__(self, ops: "FractionOps"):
        self.values: Counter = Counter()
        self.broken: set[str] = set()
        self.ops = ops

    def wrap(self, fid: str, f):
        counter, metrics = COUNTERS.get(fid, (None, ()))
        sig = inspect.signature(f) if counter else None
        values, ops = self.values, self.ops

        @functools.wraps(f)
        def counted(*args, **kwargs):
            values[fid] += 1
            result = f(*args, **kwargs)
            if counter is not None:
                was, ops.counting = ops.counting, False
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(values, bound.args, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError):
                    self.broken.update(metrics)
                finally:
                    ops.counting = was
            return result

        return counted


class FractionOps:
    """Counts calls of Fraction.__new__, _add, _sub, _mul and _div.

    While installed, the class's constructor and arithmetic operators are
    rebuilt around counting copies of those functions, the same way the
    fractions module builds them. Ops are counted only while `counting` is
    true, so the benchmark's own arithmetic can be left out.
    """

    OPERATORS = (
        ("_add", operator.add, "__add__", "__radd__"),
        ("_sub", operator.sub, "__sub__", "__rsub__"),
        ("_mul", operator.mul, "__mul__", "__rmul__"),
        ("_div", operator.truediv, "__truediv__", "__rtruediv__"),
    )

    def __init__(self):
        self.ops = 0
        self.counting = False
        self.saved: dict = {}
        self.present = hasattr(Fraction, "_operator_fallbacks") and all(
            callable(getattr(Fraction, name, None)) for name, *_ in self.OPERATORS
        )

    def _counted(self, fn):
        def counted(*args, **kwargs):
            if self.counting:
                self.ops += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        if not self.present:
            return
        names = ["__new__"] + [n for *_, fwd, rev in self.OPERATORS for n in (fwd, rev)]
        self.saved = {name: vars(Fraction)[name] for name in names}
        Fraction.__new__ = staticmethod(self._counted(Fraction.__new__))
        for name, fallback, fwd, rev in self.OPERATORS:
            f, r = Fraction._operator_fallbacks(self._counted(getattr(Fraction, name)), fallback)
            setattr(Fraction, fwd, f)
            setattr(Fraction, rev, r)

    def remove(self):
        for name, value in self.saved.items():
            setattr(Fraction, name, value)
        self.saved = {}
