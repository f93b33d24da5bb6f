import argparse
import contextlib
import copy
import io
import json
import shutil
import time
import types
from collections.abc import Hashable
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crosshom import cli, formats
from crosshom.cohomology import cohomology_dims
from crosshom.errors import ParseError
from crosshom.liealg import CrossedHom, FinLieAlgebra, Setup, abelian, sl2, zero_action
from crosshom.linalg import Matrix
from conftest import FIXTURES as FIXTURES_DIR, generalized_witt_bounds, kernel_setups


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_check_lie_pass(capsys, fixtures_dir):
    code, body = run_json(capsys, "check-lie", str(fixtures_dir / "sl2.alg.json"))
    assert code == 0
    assert body["status"] == "pass"
    assert body["findings"] == []
    assert body["payload"]["dim"] == 3


def test_check_crossed_hom_bad_exit_one(capsys, fixtures_dir):
    code, body = run_json(capsys, "check-crossed-hom", str(fixtures_dir / "dim2_bad.setup.json"))
    assert code == 1
    assert body["status"] == "fail"
    assert body["findings"][0]["site"] == ["e1", "e2"]
    assert body["payload"]["twist_map_is_homomorphism"] is False


def test_check_crossed_hom_good(capsys, fixtures_dir):
    for name in ("dim2_case_i.setup.json", "dim2_case_ii.setup.json", "sl2_adjoint.setup.json"):
        code, body = run_json(capsys, "check-crossed-hom", str(fixtures_dir / name))
        assert code == 0
        assert body["payload"]["twist_map_is_homomorphism"] is True


def test_cohomology_sl2(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "cohomology", "--max-degree", "2", str(fixtures_dir / "sl2_adjoint.setup.json")
    )
    assert code == 0
    dims = [d["dim_H"] for d in body["payload"]["degrees"]]
    assert dims == [0, 0, 0]


def test_cohomology_rejects_bad_h(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "cohomology", "--max-degree", "1", str(fixtures_dir / "dim2_bad.setup.json")
    )
    assert code == 1
    assert body["findings"]


def test_mc_residual(capsys, fixtures_dir):
    code, body = run_json(capsys, "mc-residual", str(fixtures_dir / "dim2_case_ii.setup.json"))
    assert code == 0 and body["payload"]["residual"] == []
    code, body = run_json(capsys, "mc-residual", str(fixtures_dir / "dim2_bad.setup.json"))
    assert code == 1 and body["payload"]["residual"] != []


def test_nijenhuis_element_and_grid(capsys, fixtures_dir):
    code, body = run_json(
        capsys,
        "nijenhuis",
        str(fixtures_dir / "dim2_case_ii.setup.json"),
        "--element",
        "1,1",
    )
    assert code == 0
    assert all(v["status"] == "pass" for v in body["payload"]["conditions"].values())
    code, body = run_json(
        capsys,
        "nijenhuis",
        str(fixtures_dir / "heisenberg_adjoint.setup.json"),
        "--grid=-1,0,1",
    )
    assert code == 0
    assert body["payload"]["count"] == 27


def test_nijenhuis_failing_element(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "nijenhuis", str(fixtures_dir / "sl2_adjoint.setup.json"), "--element", "1,0,0"
    )
    assert code == 1
    assert body["payload"]["conditions"]["Nij1"]["status"] == "fail"


def test_deform(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "deform", str(fixtures_dir / "dim2_case_ii.setup.json"), "--element", "1,1"
    )
    assert code == 0
    assert body["payload"]["generator"] == [["0", "0"], ["0", "0"]]


def test_solve_grid(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "solve-grid", str(fixtures_dir / "dim2_case_i.setup.json"), "--grid=-1,0,1"
    )
    assert code == 0
    assert body["payload"]["count"] == 15


def test_witt_verify(capsys):
    code, body = run_json(capsys, "witt-verify", "--n", "1", "--family", "full", "--window", "1")
    assert code == 0
    code, body = run_json(capsys, "witt-verify", "--n", "1", "--family", "ham", "--window", "1")
    assert code == 0


def test_witt_verify_pq_with_file(capsys, fixtures_dir):
    code, body = run_json(
        capsys,
        "witt-verify",
        "--n",
        "1",
        "--family",
        "pq",
        "--window",
        "2",
        "--p-file",
        str(fixtures_dir / "pq_example.p.json"),
        "--q",
        "1/2",
    )
    assert code == 0


def test_shen_larsson_table(capsys):
    code, body = run_json(
        capsys, "shen-larsson", "--n", "1", "--rep", "natural", "--window", "1", "--check"
    )
    assert code == 0
    entries = body["payload"]["entries"]
    # 3 actors x 3 module elements
    assert len(entries) == 9
    by_key = {(e["actor"], e["on"]): e["result"] for e in entries}
    assert by_key[("x^(1) d_1", "v1 (x) x^(1)")] == {"v1 (x) x^(2)": "2"}


def test_shen_larsson_table_two_vars_format(capsys):
    # the emitted strings follow the documented convention exactly
    code, body = run_json(
        capsys, "shen-larsson", "--n", "2", "--rep", "natural", "--window", "1"
    )
    assert code == 0
    by_key = {(e["actor"], e["on"]): e["result"] for e in body["payload"]["entries"]}
    assert by_key[("x^(1,0) d_1", "v1 (x) x^(0,1)")] == {"v1 (x) x^(1,1)": "1"}


def test_shen_larsson_rep_choices():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    rep = next(a for a in sub.choices["shen-larsson"]._actions if a.dest == "rep")
    assert rep.choices == ["adjoint", "natural", "trivial"]


def test_each_subcommand_is_declared_once_with_its_handler():
    # build_parser is the one table of subcommands: each subparser carries its
    # handler, a function of crosshom.cli, as its `handler` default, and no
    # module-level container of cli lists a subcommand or a handler again
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    handlers = {name: p.get_default("handler") for name, p in sub.choices.items()}
    for name, handler in handlers.items():
        assert isinstance(handler, types.FunctionType), name
        assert handler.__module__ == cli.__name__ and getattr(cli, handler.__name__) is handler, name
    declared = set(handlers) | set(handlers.values())
    for attr, value in vars(cli).items():
        if not attr.startswith("__") and isinstance(value, (dict, list, tuple, set, frozenset)):
            members = [*value, *value.values()] if isinstance(value, dict) else list(value)
            assert not [m for m in members if isinstance(m, Hashable) and m in declared], attr


def test_setup_referencing_algebras_by_path(capsys, fixtures_dir):
    code, body = run_json(
        capsys, "check-crossed-hom", str(fixtures_dir / "sl2_adjoint_byref.setup.json")
    )
    assert code == 0
    assert body["payload"]["twist_map_is_homomorphism"] is True


def test_check_rinehart_and_leibniz(capsys, fixtures_dir):
    code, _ = run_json(capsys, "check-rinehart", str(fixtures_dir / "derivations_trunc3.lr.json"))
    assert code == 0
    code, _ = run_json(capsys, "check-leibniz", str(fixtures_dir / "derivations_trunc3.pair.json"))
    assert code == 0


def test_missing_file_exit_two(capsys):
    code, body = run_json(capsys, "check-lie", "no-such-file.json")
    assert code == 2
    assert body["status"] == "error"
    assert body["error"]["type"] == "ParseError"


def test_unknown_basis_name_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.alg.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "finite_lie",
                "basis": ["e1", "e2"],
                "brackets": [{"left": "e1", "right": "e2", "value": {"e9": "1"}}],
            }
        )
    )
    code, body = run_json(capsys, "check-lie", str(bad))
    assert code == 2
    assert "e9" in body["error"]["message"]


def test_wrong_action_shape_exit_two(capsys, tmp_path, fixtures_dir):
    body = json.loads((fixtures_dir / "dim2_case_i.setup.json").read_text())
    body["action"]["e1"] = [["0", "1", "0"], ["0", "0", "0"]]
    bad = tmp_path / "bad.setup.json"
    bad.write_text(json.dumps(body))
    code, out = run_json(capsys, "check-crossed-hom", str(bad))
    assert code == 2
    assert out["error"]["type"] == "ShapeError"
    assert "2x3" in out["error"]["message"] and "2x2" in out["error"]["message"]


def test_jacobi_violation_is_exit_one_not_two(capsys, tmp_path):
    bad = tmp_path / "nonjacobi.alg.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "finite_lie",
                "basis": ["e1", "e2", "e3"],
                "brackets": [
                    {"left": "e1", "right": "e2", "value": {"e3": "1"}},
                    {"left": "e1", "right": "e3", "value": {"e1": "1"}},
                ],
            }
        )
    )
    code, body = run_json(capsys, "check-lie", str(bad))
    assert code == 1
    assert body["findings"][0]["rule"] == "jacobi"


def test_certified_flag_raises_invariant_error(capsys, tmp_path):
    bad = tmp_path / "certified.alg.json"
    bad.write_text(
        json.dumps(
            {
                "kind": "finite_lie",
                "basis": ["e1", "e2", "e3"],
                "certified": True,
                "brackets": [
                    {"left": "e1", "right": "e2", "value": {"e3": "1"}},
                    {"left": "e1", "right": "e3", "value": {"e1": "1"}},
                ],
            }
        )
    )
    code, body = run_json(capsys, "check-lie", str(bad))
    assert code == 2
    assert body["error"]["type"] == "InvariantError"


def test_json_determinism(capsys, fixtures_dir):
    argv = ["cohomology", "--max-degree", "2", str(fixtures_dir / "sl2_adjoint.setup.json"), "--json"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_flag_writes_file(capsys, tmp_path, fixtures_dir):
    target = tmp_path / "report.json"
    code, out = run(
        capsys,
        "check-lie",
        str(fixtures_dir / "sl2.alg.json"),
        "--json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_out_flag_unwritable_path_exit_two(capsys, tmp_path, fixtures_dir):
    target = tmp_path / "missing" / "report.json"
    argv = ["check-lie", str(fixtures_dir / "sl2.alg.json"), "--json", "--out", str(target)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("crosshom: cannot write the report to ")
    assert captured.err.count("\n") == 1
    assert not target.exists()


def _set(path, value):
    def edit(body):
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


@pytest.mark.parametrize(
    "command, fixture, edit",
    [
        ("check-lie", "sl2.alg.json", _set(("brackets",), 1)),
        ("check-lie", "sl2.alg.json", _set(("brackets",), None)),
        ("check-rinehart", "derivations_trunc3.lr.json", _set(("A", "products"), {})),
        ("check-leibniz", "derivations_trunc3.pair.json", _set(("A", "products", 0), "x")),
        ("check-crossed-hom", "sl2_adjoint_byref.setup.json", _set(("g",), "sl2\u0000.alg.json")),
        ("check-rinehart", "derivations_trunc3.lr.json", _set(("module", "dim"), True)),
    ],
    ids=[
        "brackets-int",
        "brackets-null",
        "products-object",
        "product-entry-string",
        "path-with-nul",
        "module-dim-true",
    ],
)
def test_malformed_definition_file_exit_two(capsys, tmp_path, fixtures_dir, command, fixture, edit):
    body = json.loads((fixtures_dir / fixture).read_text())
    edit(body)
    bad = tmp_path / fixture
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, command, str(bad))
    assert code == 2
    assert out["error"]["type"] == "ParseError"


def test_fixture_round_trip(fixtures_dir):
    # every bundled file parses, and re-serialization parses to an equal object
    for path in sorted(fixtures_dir.iterdir()):
        if path.suffix != ".json" or path.name == "pq_example.p.json":
            continue
        obj = formats.load_file(str(path))
        if isinstance(obj, Setup):
            body = formats.setup_to_dict(obj)
            again = formats.setup_from_dict(body, fixtures_dir)
            assert again == obj
        elif isinstance(obj, tuple):
            pass  # lie_rinehart bundles carry a free-form module block
        elif isinstance(obj, FinLieAlgebra):
            body = formats.algebra_to_dict(obj)
            assert formats.algebra_from_dict(body) == obj


def test_saved_setup_loads_back(tmp_path):
    # setup_to_dict writes a matrix with no rows as [], also for dim h = 0, g = sl2
    empty, s3 = abelian(()), sl2()
    setups = kernel_setups() + [
        Setup(s3, empty, zero_action(s3, empty), CrossedHom(Matrix.zero(0, 3))),
        Setup(empty, s3, zero_action(empty, s3), CrossedHom(Matrix.zero(3, 0))),
        Setup(empty, empty, zero_action(empty, empty), CrossedHom(Matrix.zero(0, 0))),
    ]
    for k, s in enumerate(setups):
        path = tmp_path / f"saved{k}.setup.json"
        path.write_text(json.dumps(formats.setup_to_dict(s)))
        assert formats.load_file(str(path)) == s


def test_all_fixtures_mathematically_valid(capsys, fixtures_dir):
    commands = {
        ".alg.json": "check-lie",
        ".setup.json": "check-crossed-hom",
        ".lr.json": "check-rinehart",
        ".pair.json": "check-leibniz",
    }
    for path in sorted(fixtures_dir.iterdir()):
        for suffix, command in commands.items():
            if path.name.endswith(suffix):
                code, _ = run(capsys, command, str(path))
                expected = 1 if "bad" in path.name else 0
                assert code == expected, path.name


def _run_without_traceback(capsys, *argv):
    code = cli.main([*argv, "--json"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    return code, json.loads(captured.out)


@pytest.mark.parametrize(
    "argv",
    [
        ("witt-verify", "--n", "1", "--family", "pq", "--window", "1", "--q", "1/0"),
        ("nijenhuis", "fixtures/dim2_case_ii.setup.json", "--element", "1/0,1"),
        ("nijenhuis", "fixtures/heisenberg_adjoint.setup.json", "--grid=1/0,1"),
        ("solve-grid", "fixtures/dim2_case_i.setup.json", "--grid=0,1e3"),
    ],
)
def test_malformed_rational_arguments_exit_two(capsys, monkeypatch, fixtures_dir, argv):
    monkeypatch.chdir(fixtures_dir.parent)
    code, body = _run_without_traceback(capsys, *argv)
    assert code == 2
    assert body["status"] == "error"
    assert body["error"]["type"] == "ParseError"


def test_zero_denominator_in_setup_file_exit_two(capsys, tmp_path, fixtures_dir):
    body = json.loads((fixtures_dir / "dim2_case_i.setup.json").read_text())
    body["H"][0][0] = "1/0"
    bad = tmp_path / "zero_denominator.setup.json"
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, "check-crossed-hom", str(bad))
    assert code == 2
    assert out["error"]["type"] == "ParseError"
    assert out["error"]["message"].startswith(f"{bad}.H: cannot parse rational '1/0'")


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("witt-verify", "--family", "full", "--window", "1"),
        ("shen-larsson", "--rep", "natural", "--window", "1"),
    ],
)
def test_nonpositive_n_exit_two(capsys, argv, n):
    code, body = _run_without_traceback(capsys, *argv, "--n", n)
    assert code == 2
    assert body["error"] == {"type": "ParseError", "message": f"--n must be >= 1, got {n}"}


@pytest.mark.parametrize("window", ["0", "-1"])
@pytest.mark.parametrize("check", [(), ("--check",)])
def test_shen_larsson_nonpositive_window_exit_two(capsys, window, check):
    code, body = _run_without_traceback(
        capsys, "shen-larsson", "--n", "1", "--rep", "natural", "--window", window, *check
    )
    assert code == 2
    assert body["error"] == {"type": "DimensionMismatch", "message": "window bound must be >= 1"}


def test_boolean_coefficient_in_algebra_file_exit_two(capsys, tmp_path, fixtures_dir):
    body = json.loads((fixtures_dir / "sl2.alg.json").read_text())
    body["brackets"][0]["value"] = {"h": True}
    bad = tmp_path / "boolean.alg.json"
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, "check-lie", str(bad))
    assert code == 2
    assert out["error"]["type"] == "ParseError"


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None], ids=repr)
def test_non_bool_strict_flag_exit_two(capsys, tmp_path, fixtures_dir, value):
    # a truthy string once turned strict A-linearity on
    body = json.loads((fixtures_dir / "leibniz_bad.lr.json").read_text())
    body["module"]["strict"] = value
    bad = tmp_path / "strict.lr.json"
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, "check-rinehart", str(bad))
    assert (code, out["findings"]) == (2, [])
    message = f"{bad}.module: 'strict' must be true or false, got {value!r}"
    assert out["error"] == {"type": "ParseError", "message": message}


def test_malformed_module_block_reports_no_findings(capsys, tmp_path, fixtures_dir):
    # the module block is read before check_lie_rinehart adds its findings
    body = json.loads((fixtures_dir / "leibniz_bad.lr.json").read_text())
    body["module"]["rho"] = {}
    bad = tmp_path / "module.lr.json"
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, "check-rinehart", str(bad))
    assert (code, out["status"], out["findings"]) == (2, "error", [])
    assert out["error"]["type"] == "ParseError"


@pytest.mark.parametrize("grid", ["0,0", "0,0/1"])
@pytest.mark.parametrize(
    "command, fixture",
    [
        ("solve-grid", "trivial1.setup.json"),
        ("nijenhuis", "heisenberg_adjoint.setup.json"),
        ("solve-grid", "nonderivation_bad.setup.json"),
        ("nijenhuis", "dim2_bad.setup.json"),
    ],
)
def test_repeated_grid_value_exits_two(capsys, fixtures_dir, command, fixture, grid):
    # a repeated value once repeated every candidate and solution that holds
    # it; as a usage error it exits 2 whatever the file holds
    code, out = _run_without_traceback(capsys, command, str(fixtures_dir / fixture), f"--grid={grid}")
    assert (code, out["status"], out["findings"], out["payload"]) == (2, "error", [], {})
    assert out["error"] == {"type": "ParseError", "message": "grid value 0 is repeated"}


@pytest.mark.parametrize(
    "flags",
    [("--element", "1,1", "--grid=-1,0,1"), ()],
    ids=["both", "neither"],
)
@pytest.mark.parametrize("fixture", ["dim2_case_ii.setup.json", "dim2_bad.setup.json"])
def test_nijenhuis_needs_exactly_one_of_element_and_grid(capsys, fixtures_dir, fixture, flags):
    code, out = _run_without_traceback(capsys, "nijenhuis", str(fixtures_dir / fixture), *flags)
    assert (code, out["status"], out["findings"]) == (2, "error", [])
    message = "nijenhuis requires exactly one of --element and --grid"
    assert out["error"] == {"type": "ParseError", "message": message}


@pytest.mark.parametrize(
    "command, fixture, good, bad, message",
    [
        (
            "nijenhuis", "dim2_bad.setup.json", ("--element", "1,1"), ("--element", "1/0,1"),
            "--element: cannot parse rational '1/0': zero denominator",
        ),
        (
            "deform", "dim2_bad.setup.json", ("--element", "1,1"), (),
            "deform requires --element (the Nijenhuis witness)",
        ),
        (
            "solve-grid", "nonderivation_bad.setup.json", ("--grid=0",), ("--grid=1/0",),
            "--grid: cannot parse rational '1/0': zero denominator",
        ),
    ],
    ids=["nijenhuis", "deform", "solve-grid"],
)
def test_usage_error_exits_two_on_an_unsound_setup(capsys, fixtures_dir, command, fixture, good, bad, message):
    # the flags are parsed and checked before the file: with well-formed flags
    # the unsound setup exits 1 with findings, with a usage error it exits 2
    path = str(fixtures_dir / fixture)
    code, out = _run_without_traceback(capsys, command, path, *good)
    assert (code, out["status"]) == (1, "fail") and out["findings"]
    code, out = _run_without_traceback(capsys, command, path, *bad)
    assert (code, out["status"], out["findings"]) == (2, "error", [])
    assert out["error"] == {"type": "ParseError", "message": message}


@pytest.mark.parametrize("value", ["no", "false", 0, None], ids=repr)
@pytest.mark.parametrize(
    "command, fixture, where",
    [
        ("check-lie", "jacobi_bad.alg.json", ""),
        ("check-action", "sl2_adjoint.setup.json", ""),
        ("check-action", "sl2_adjoint.setup.json", ".g"),
    ],
    ids=["algebra", "setup", "inline-g"],
)
def test_non_bool_certified_flag_exit_two(capsys, tmp_path, fixtures_dir, command, fixture, where, value):
    # a truthy string once turned load-time certification on
    body = json.loads((fixtures_dir / fixture).read_text())
    (body["g"] if where else body)["certified"] = value
    bad = tmp_path / fixture
    bad.write_text(json.dumps(body))
    code, out = _run_without_traceback(capsys, command, str(bad))
    assert code == 2
    message = f"{bad}{where}: 'certified' must be true or false, got {value!r}"
    assert out["error"] == {"type": "ParseError", "message": message}


_PQ_ARGS = ("witt-verify", "--n", "1", "--family", "pq", "--window", "1", "--q", "1/2", "--p-file")


@pytest.mark.parametrize(
    "text",
    ['{"kind": "finite_lie", "basis": [], "dim": ' + "7" * 5000 + "}", "[" * 100_000],
    ids=["5000-digit-integer", "nested-100000-deep"],
)
@pytest.mark.parametrize("as_p_file", [False, True], ids=["algebra", "p-file"])
def test_undecodable_json_exit_two(capsys, tmp_path, text, as_p_file):
    bad = tmp_path / "undecodable.json"
    bad.write_text(text)
    argv = (*_PQ_ARGS, str(bad)) if as_p_file else ("check-lie", str(bad))
    code, out = _run_without_traceback(capsys, *argv)
    assert code == 2
    assert out["error"]["type"] == "ParseError"
    assert "invalid JSON" in out["error"]["message"]


def test_duplicate_basis_names_in_a_commutative_algebra_exit_two(capsys, tmp_path):
    pair = {
        "kind": "leibniz_pair",
        "A": {
            "kind": "finite_comm",
            "basis": ["1", "1"],
            "products": [{"left": "1", "right": "1", "value": {"1": "1"}}],
        },
        "S": {"kind": "finite_lie", "basis": ["e"], "brackets": []},
        "beta": {"e": [["0", "0"], ["0", "0"]]},
    }
    bad = tmp_path / "duplicate.pair.json"
    bad.write_text(json.dumps(pair))
    code, out = _run_without_traceback(capsys, "check-leibniz", str(bad))
    assert code == 2
    assert out["error"] == {"type": "ParseError", "message": f"{bad}.A: duplicate basis names"}


def test_repeated_p_file_variable_exit_two(capsys, tmp_path):
    bad = tmp_path / "repeated.p.json"
    bad.write_text('{"1": {"2": "1"}, "01": {"3": "5"}}')
    code, out = _run_without_traceback(capsys, *_PQ_ARGS, str(bad))
    assert code == 2
    assert out["error"] == {"type": "ParseError", "message": f"{bad}: variable index 1 is given twice"}
    with pytest.raises(ParseError, match="given twice"):
        formats.twisting_polynomials_from_file(str(bad), 1)


def test_repeated_p_file_exponent_exit_two(capsys, tmp_path):
    # "2" and "02" spell the same exponent; the monomials are not added
    bad = tmp_path / "repeated-exponent.p.json"
    bad.write_text('{"1": {"2": "1", "02": "3"}}')
    code, out = _run_without_traceback(capsys, *_PQ_ARGS, str(bad))
    assert code == 2
    assert out["error"] == {
        "type": "ParseError",
        "message": f"{bad}: exponent 2 of variable 1 is given twice",
    }
    with pytest.raises(ParseError, match="given twice"):
        formats.twisting_polynomials_from_file(str(bad), 1)


def test_cohomology_negative_max_degree_exit_two(capsys, fixtures_dir):
    code, body = _run_without_traceback(
        capsys, "cohomology", "--max-degree", "-1", str(fixtures_dir / "sl2_adjoint.setup.json")
    )
    assert code == 2
    assert body["error"]["type"] == "DimensionMismatch"
    assert body["payload"] == {}


def test_cohomology_large_generalized_witt_setup(capsys, tmp_path):
    s = generalized_witt_bounds((3, 3))
    path = tmp_path / "gw33.setup.json"
    path.write_text(json.dumps(formats.setup_to_dict(s)))
    t0 = time.monotonic()
    code, body = run_json(capsys, "cohomology", "--max-degree", "2", str(path))
    elapsed = time.monotonic() - t0
    assert code == 0
    assert body["payload"]["degrees"] == cohomology_dims(s, 2).to_json()["degrees"]
    assert [d["dim_H"] for d in body["payload"]["degrees"]] == [1, 5, 29]
    assert elapsed < 30.0


def test_cohomology_generalized_witt_33_third_degree_in_budget(capsys, tmp_path):
    path = tmp_path / "gw33.setup.json"
    path.write_text(json.dumps(formats.setup_to_dict(generalized_witt_bounds((3, 3)))))
    t0 = time.monotonic()
    code, body = run_json(capsys, "cohomology", "--max-degree", "3", str(path))
    elapsed = time.monotonic() - t0
    assert code == 0
    assert [d["dim_H"] for d in body["payload"]["degrees"]] == [1, 5, 29, 47]
    assert elapsed < 30.0


def test_cohomology_generalized_witt_222_setup_in_budget(capsys, tmp_path):
    # the budget covers the setup checks (Jacobi on g and h, the action, the
    # crossed-hom identity) on this 24 + 72 dimensional setup, not only H^<=2
    path = tmp_path / "gw222.setup.json"
    path.write_text(json.dumps(formats.setup_to_dict(generalized_witt_bounds((2, 2, 2)))))
    t0 = time.monotonic()
    code, body = run_json(capsys, "cohomology", "--max-degree", "2", str(path))
    elapsed = time.monotonic() - t0
    assert code == 0
    assert body["status"] == "pass"
    assert [d["dim_H"] for d in body["payload"]["degrees"]] == [1, 7, 84]
    assert elapsed < 30.0


def test_check_crossed_hom_generalized_witt_222_twist_in_budget(capsys, tmp_path):
    # the budget covers the setup checks and the twist-map check on this
    # 24 + 72 dimensional setup, for H as generated and with one entry moved
    body = formats.setup_to_dict(generalized_witt_bounds((2, 2, 2)))
    moved = copy.deepcopy(body)
    row = next(r for r in moved["H"] if any(e != "0" for e in r))
    k = next(k for k, e in enumerate(row) if e != "0")
    row[k] = str(Fraction(row[k]) + Fraction(1, 3))
    for name, setup, code_expected, twist in (("gw222", body, 0, True), ("gw222_moved", moved, 1, False)):
        path = tmp_path / f"{name}.setup.json"
        path.write_text(json.dumps(setup))
        t0 = time.monotonic()
        code, out = run_json(capsys, "check-crossed-hom", str(path))
        elapsed = time.monotonic() - t0
        assert code == code_expected
        assert out["payload"]["twist_map_is_homomorphism"] is twist
        assert bool(out["findings"]) is not twist
        assert elapsed < 5.0


@pytest.mark.parametrize(
    "setup",
    [
        {"g": {"kind": "finite_lie", "basis": []}, "h": {"kind": "finite_lie", "basis": ["b"]}, "action": {}, "H": [[]]},
        {"g": {"kind": "finite_lie", "basis": ["a"]}, "h": {"kind": "finite_lie", "basis": []}, "action": {"a": []}},
    ],
    ids=["empty-g", "empty-h"],
)
def test_check_crossed_hom_empty_g_or_h(capsys, tmp_path, setup):
    path = tmp_path / "empty.setup.json"
    path.write_text(json.dumps({"kind": "setup", **setup}))
    code, out = run_json(capsys, "check-crossed-hom", str(path))
    assert code == 0
    assert out["findings"] == []
    assert out["payload"] == {"twist_map_is_homomorphism": True}


def test_cohomology_too_many_cochains_exit_two(capsys, tmp_path):
    g, h = abelian([f"a{i}" for i in range(30)]), abelian(["b"])
    s = Setup(g, h, zero_action(g, h), CrossedHom(Matrix.zero(1, 30)))
    path = tmp_path / "abelian30.setup.json"
    path.write_text(json.dumps(formats.setup_to_dict(s)))
    t0 = time.monotonic()
    code, out = _run_without_traceback(capsys, "cohomology", "--max-degree", "10", str(path))
    assert code == 2
    assert out["error"]["type"] == "SearchSpaceTooLarge"
    assert time.monotonic() - t0 < 5.0


def test_cohomology_too_many_degrees_exit_two(capsys, fixtures_dir):
    # the degree count is guarded before the list of cochain dimensions is built
    t0 = time.monotonic()
    code, out = _run_without_traceback(
        capsys, "cohomology", "--max-degree", "100000000", str(fixtures_dir / "sl2_adjoint.setup.json")
    )
    assert code == 2
    assert out["error"]["type"] == "SearchSpaceTooLarge"
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize(
    "argv",
    [
        ("witt-verify", "--n", "30", "--family", "full", "--window", "1"),
        ("shen-larsson", "--n", "30", "--rep", "trivial", "--window", "1"),
        ("shen-larsson", "--n", "6", "--rep", "adjoint", "--window", "1"),
    ],
)
def test_oversized_window_refused_before_allocation(capsys, no_window_enumeration, argv):
    start = time.perf_counter()
    code, body = _run_without_traceback(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert body["status"] == "error"
    assert body["error"]["type"] == "SearchSpaceTooLarge"


FUZZ_N = st.one_of(st.sampled_from([-1, 0, 1, 2]), st.integers(20, 40))
FUZZ_BAD_Q = ("1/0", "x", "1e5")
FUZZ_Q = st.sampled_from([None, "0", "1/2", "-3", *FUZZ_BAD_Q])


@st.composite
def windowed_argv(draw):
    n = draw(FUZZ_N)
    window = draw(st.sampled_from([-1, 0, 1]))
    if draw(st.booleans()):
        family = draw(st.sampled_from(["full", "sdiv", "ham", "pq"]))
        argv = ["witt-verify", f"--n={n}", f"--family={family}", f"--window={window}"]
        q = draw(FUZZ_Q)
        if q is not None:
            argv.append(f"--q={q}")
    else:
        rep = draw(st.sampled_from(["trivial", "natural", "adjoint"]))
        argv = ["shen-larsson", f"--n={n}", f"--rep={rep}", f"--window={window}"]
        if draw(st.booleans()):
            argv.append("--check")
    return n, window, argv


@settings(max_examples=60, deadline=None, database=None)
@given(windowed_argv())
def test_fuzz_windowed_commands_exit_cleanly(case):
    n, window, argv = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    body = json.loads(out.getvalue())
    if n >= 20:
        assert code == 2
        bad_q = "--family=pq" in argv and any(f"--q={q}" in argv for q in FUZZ_BAD_Q)
        if window == 1 and not bad_q:
            assert body["error"]["type"] == "SearchSpaceTooLarge"


# --- mutated definition files through cli.main ------------------------------

FUZZ_FILES = {
    "sl2.alg.json": ("check-lie",),
    "dim2.alg.json": ("check-lie",),
    "dim2_case_ii.setup.json": ("check-action", "check-crossed-hom", "mc-residual"),
    "sl2_adjoint_byref.setup.json": ("check-crossed-hom", "cohomology"),
    "derivations_trunc3.lr.json": ("check-rinehart",),
    "derivations_trunc3.pair.json": ("check-leibniz",),
}
FUZZ_VALUES = (None, True, 1.5, "1/0", [], {}, "a\u0000b")
FUZZ_BODIES = {name: json.loads((FIXTURES_DIR / name).read_text()) for name in FUZZ_FILES}


def _paths(node, prefix=()):
    """Every (dict key or list index) path inside a JSON value."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_file(draw):
    name = draw(st.sampled_from(sorted(FUZZ_FILES)))
    body = copy.deepcopy(FUZZ_BODIES[name])
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(body))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(FUZZ_VALUES))
    return name, draw(st.sampled_from(FUZZ_FILES[name])), body


@settings(
    max_examples=100,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_file())
def test_fuzz_mutated_definition_files_exit_cleanly(tmp_path, case):
    name, command, body = case
    shutil.copy(FIXTURES_DIR / "sl2.alg.json", tmp_path / "sl2.alg.json")
    target = tmp_path / f"mutated.{name}"
    target.write_text(json.dumps(body))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, str(target), "--json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    json.loads(out.getvalue())
