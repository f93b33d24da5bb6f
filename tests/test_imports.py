"""Lazy loading: each process imports only the submodules it runs.

`crosshom` binds its names on first use (PEP 562), and each CLI handler
imports the submodules it calls beyond `errors`, `linalg`, `liealg`, `report`
and `formats`. In-process tests see every module already imported by other
tests, so the checks here run in fresh interpreters.
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys

import pytest

import crosshom
from crosshom import cli
from test_cli_golden import GOLDEN, ROOT

# The names `crosshom/__init__.py` imported from its submodules before they
# were loaded lazily.
PUBLIC_NAMES = {
    "AModuleStructure", "Cochain", "CohomologyReport", "CrossedHom", "DimensionMismatch",
    "FinCommAlgebra", "FinLieAlgebra", "GlLaurent", "GlnRep", "IndexOutOfRange", "InvalidPair",
    "InvariantError", "LaurentPoly", "LeibnizPair", "LieAction", "LieRinehart", "MalformedP",
    "Matrix", "NotAction", "NotCommuting", "NotCrossedHom", "NotDerivation", "NotNijenhuis",
    "ParseError", "Rational", "SearchSpaceTooLarge", "Setup", "ShapeError", "SingularMatrix",
    "ToolkitError", "VTensorA", "Vector", "Window", "WittElem", "abelian", "action_lie_rinehart",
    "adjoint_action", "adjoint_rep_gl", "boxplus_pullback", "canonical_crossed_hom_GW",
    "canonical_crossed_hom_W", "ce_differential", "check_action", "check_admissible_rep",
    "check_crossed_hom", "check_hom_pair", "check_leibniz_pair", "check_lie_algebra",
    "check_lie_rinehart", "check_linear_deformation", "check_module_axiom_window",
    "check_nijenhuis", "check_weak_compat_window", "check_weak_rep", "cochain_map_phi",
    "cohomology_dims", "crossed_hom_pq", "derived_bracket", "divergence", "generalized_witt",
    "generalized_witt_setup", "gl_algebra", "gl_tensor_algebra", "hamiltonian_field",
    "heisenberg", "induced_action", "invert", "kernel_basis", "kron", "lie_algebra",
    "mc_residual", "natural_rep_gl", "nijenhuis_grid", "plain_differential", "rank",
    "s_generator", "semidirect", "shen_larsson_apply", "sign_relation_check", "sl2",
    "solve_crossed_homs_grid", "tensor_rep", "trivial_deformation_generator", "trivial_rep",
    "truncated_polynomial_algebra", "twist_iso_check", "twisting_pq", "two_dim_nonabelian",
    "verify_witt_crossed_hom", "witt_bracket", "zero_action",
}  # fmt: skip

PATHS = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATHS))


def fresh(code: str):
    """Run code in a new interpreter from the repository root; returns what
    it prints as JSON on its last line."""
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=ENV, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


LOADED = "json.dumps(sorted(m[len('crosshom.'):] for m in sys.modules if m.startswith('crosshom.')))"


def loaded_after(statements: str) -> set[str]:
    """The crosshom submodules a fresh interpreter holds after statements."""
    return set(fresh(f"import json, sys\n{statements}\nprint({LOADED})"))


def loaded_by_main(*argv: str) -> set[str]:
    """The crosshom submodules a fresh interpreter holds after cli.main(argv),
    with the report kept off stdout."""
    return loaded_after(
        "import contextlib, io\nfrom crosshom import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({list(argv)!r})"
    )


CLI_BASE = {"errors", "linalg", "liealg", "report", "formats", "cli"}


def test_import_crosshom_loads_no_submodule():
    assert loaded_after("import crosshom") == set()


def test_import_cli_loads_only_its_base():
    assert loaded_after("import crosshom.cli") == CLI_BASE


def test_check_crossed_hom_loads_no_cohomology():
    assert loaded_by_main("check-crossed-hom", "fixtures/dim2_bad.setup.json") == CLI_BASE


def test_cohomology_subcommand_loads_cohomology():
    loaded = loaded_by_main("cohomology", "--max-degree", "2", "fixtures/sl2_adjoint.setup.json")
    assert loaded == CLI_BASE | {"cohomology"}


def test_import_witt_loads_no_rinehart_cohomology_or_formats():
    loaded = loaded_after("import crosshom.witt")
    assert "witt" in loaded
    assert loaded.isdisjoint({"rinehart", "cohomology", "formats"})


def test_public_names_are_the_eager_package_names():
    assert len(crosshom.__all__) == len(set(crosshom.__all__))
    assert set(crosshom.__all__) == PUBLIC_NAMES


def test_each_public_name_is_the_submodule_object():
    for name in sorted(PUBLIC_NAMES):
        defining = [
            sub
            for sub in ("errors", "linalg", "liealg", "witt", "rinehart", "cohomology")
            if name in vars(importlib.import_module(f"crosshom.{sub}"))
        ]
        assert defining, name
        for sub in defining:
            assert getattr(crosshom, name) is getattr(sys.modules[f"crosshom.{sub}"], name), name
    assert set(dir(crosshom)) >= PUBLIC_NAMES | {"witt", "cli", "formats"}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from crosshom import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(crosshom.__all__)


def test_submodule_resolves_from_a_bare_package_import():
    assert fresh(
        "import crosshom, json\n"
        "f = crosshom.witt.generalized_witt_setup\n"
        "print(json.dumps([f.__module__, crosshom.Matrix is crosshom.linalg.Matrix]))"
    ) == ["crosshom.witt", True]


def test_every_module_file_resolves_from_a_bare_package_import():
    names = sorted(p.stem for p in (ROOT / "src" / "crosshom").glob("*.py") if p.stem != "__init__")
    listed, resolved = fresh(
        f"import crosshom, json\nnames = {names!r}\n"
        "listed = [n for n in names if n in dir(crosshom)]\n"
        "print(json.dumps([listed, [getattr(crosshom, n).__name__ for n in names]]))"
    )
    assert listed == names
    assert resolved == [f"crosshom.{n}" for n in names]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        crosshom.no_such_name
    assert not hasattr(crosshom, "no_such_name")
    assert hasattr(crosshom, "cohomology_dims") and hasattr(crosshom, "formats")


# One golden row per subcommand, a row with each --rep, in a fresh process:
# a handler that lost an import fails here even after other tests imported
# every module.
FRESH_ROWS = (
    "check-lie fixtures/sl2.alg.json",
    "check-action fixtures/sl2_adjoint.setup.json",
    "check-crossed-hom fixtures/dim2_bad.setup.json",
    "cohomology --max-degree 2 fixtures/sl2_adjoint.setup.json",
    "mc-residual fixtures/dim2_case_ii.setup.json",
    "nijenhuis fixtures/heisenberg_adjoint.setup.json --grid=-1,0,1",
    "deform fixtures/dim2_case_ii.setup.json --element 1,1",
    "solve-grid fixtures/dim2_case_i.setup.json --grid=-1,0,1",
    "check-rinehart fixtures/derivations_trunc3.lr.json",
    "check-leibniz fixtures/derivations_trunc3.pair.json",
    "witt-verify --n 1 --family pq --window 2 --p-file fixtures/pq_example.p.json --q 1/2",
    "shen-larsson --n 1 --rep natural --window 1 --check",
    "shen-larsson --n 1 --rep trivial --window 1 --check",
    "shen-larsson --n 1 --rep adjoint --window 1 --check",
)
GOLDEN_BY_ARGV = {" ".join(e["argv"]): e for e in GOLDEN}


def test_fresh_rows_cover_every_subcommand():
    assert {row.split()[0] for row in FRESH_ROWS} == set(next(a for a in cli.build_parser()._actions if a.dest == "command").choices)


def test_no_subcommand_loads_dataclasses_or_inspect():
    # the value classes are plain classes: no handler pulls in `dataclasses`,
    # nor `inspect`, which it imports, at start-up or while it runs
    loaded = fresh(
        "import contextlib, io, json, sys\nfrom crosshom import cli\nloaded = {}\n"
        f"for row in {list(FRESH_ROWS)!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n        cli.main(row.split())\n"
        "    loaded[row] = sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "print(json.dumps(loaded))"
    )
    assert loaded == {row: [] for row in FRESH_ROWS}


@pytest.mark.parametrize("row", FRESH_ROWS)
def test_golden_row_in_a_fresh_process(row):
    entry = GOLDEN_BY_ARGV[f"{row} --json"]
    done = subprocess.run(
        [sys.executable, "-m", "crosshom.cli", *entry["argv"]], cwd=ROOT, env=ENV, capture_output=True
    )
    assert "Traceback" not in done.stderr.decode()
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest()) == (entry["code"], entry["sha256"])
