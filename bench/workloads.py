"""The benchmark's three workloads: inputs, job lists and answer checks.

Every function of crosshom is reached through its module attribute at call
time (`witt.verify_witt_crossed_hom(...)`), so the tracer's wrappers see the
calls when they are installed. crosshom is imported inside `setup`, which is
what `setup_s` times.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the answer is right


@dataclass
class Workload:
    name: str
    passes_min: int  # measured passes, each giving every job one more sample
    setup: Callable[[int, Path], Any]
    jobs: Callable[[Any, Any], list[Job]]
    subprocess_jobs: bool = False
    known_defects: frozenset = field(default_factory=frozenset)


def _modules(*names):
    return [importlib.import_module(f"crosshom.{n}") for n in names]


def _no_findings(result) -> str | None:
    return None if result == [] else f"{len(result)} findings, expected none"


# ---------------------------------------------------------------------------
# witt-window: sparse element algebra and Fraction arithmetic, no elimination

NEGATIVE_CONTROL_FINDINGS = 1860


def witt_setup(seed: int, workdir: Path):
    formats, rinehart, witt = _modules("formats", "rinehart", "witt")
    reps = {
        "trivial": rinehart.trivial_rep,
        "natural": rinehart.natural_rep_gl,
        "adjoint": rinehart.adjoint_rep_gl,
    }
    modules = {}
    for n, bound in ((1, 2), (2, 1)):
        for rep in reps:
            theta = reps[rep](n)
            modules[(n, bound, rep)] = (
                theta,
                rinehart.shen_larsson_action(theta),
                rinehart.vtensor_window_basis(theta, n, bound),
            )
    p = formats.twisting_polynomials_from_file("fixtures/pq_example.p.json", 1)
    return {"p": p, "modules": modules}


def witt_jobs(inputs, runner=None) -> list[Job]:
    from fractions import Fraction

    rinehart, witt = _modules("rinehart", "witt")
    Window = witt.Window
    jobs = []

    def verify(n, family, bound, **kw):
        return lambda: witt.verify_witt_crossed_hom(n, family, Window(bound), **kw)

    for n, bound in ((1, 2), (2, 2), (3, 1)):
        jobs.append(Job(f"verify full n={n} w={bound}", verify(n, "full", bound), _no_findings))
    jobs.append(Job("verify sdiv n=2 w=2", verify(2, "sdiv", 2), _no_findings))
    jobs.append(Job("verify ham n=1 w=2", verify(1, "ham", 2), _no_findings))
    jobs.append(
        Job(
            "verify pq n=1 w=2 q=1/2",
            verify(1, "pq", 2, p=inputs["p"], q=Fraction(1, 2)),
            _no_findings,
        )
    )
    checks = {
        "module-axiom": "check_module_axiom_window",
        "weak-compat": "check_weak_compat_window",
    }
    for (n, bound, rep), (_, action, elems) in inputs["modules"].items():
        for label, fname in checks.items():

            def run(fname=fname, action=action, n=n, bound=bound, elems=elems):
                return getattr(rinehart, fname)(action, n, Window(bound), elems)

            jobs.append(Job(f"shen-larsson {label} n={n} {rep} w={bound}", run, _no_findings))

    theta, _, elems = inputs["modules"][(2, 1, "natural")]

    def doubled(w, t):
        return rinehart.shen_larsson_apply(theta, w, t).scale(2)

    def negative_control(result):
        rules = {f.rule for f in result}
        if len(result) == NEGATIVE_CONTROL_FINDINGS and rules == {"module-axiom"}:
            return None
        return f"{len(result)} findings with rules {sorted(rules)}, expected {NEGATIVE_CONTROL_FINDINGS}"

    jobs.append(
        Job(
            "negative control: natural n=2 action doubled, w=1",
            lambda: rinehart.check_module_axiom_window(doubled, 2, Window(1), elems),
            negative_control,
        )
    )
    return jobs


# ---------------------------------------------------------------------------
# gw-cohomology: differential_matrix + rank on small dense and one large
# sparse complex

# bounds -> top degree of the cohomology. [2,2] stops at H^1: its d_2
# (896x448) takes ~18 s, too long for a job that must repeat within a run.
GW_DEGREE = {(4,): 2, (5,): 2, (2, 2): 1}
# dims of H^0..H^degree, recorded at the commit that introduced this benchmark
GW_DIMS_H = {(4,): [1, 3, 2], (5,): [1, 3, 2], (2, 2): [1, 9]}


def gw_setup(seed: int, workdir: Path):
    (witt,) = _modules("witt")
    out = {}
    for bounds in GW_DEGREE:
        A = witt.truncated_polynomial_algebra(bounds)
        deltas = [witt.scaling_derivation(bounds, v) for v in range(len(bounds))]
        out[bounds] = (A, deltas, witt.generalized_witt_setup(A, deltas))
    return out


def gw_jobs(inputs, runner=None) -> list[Job]:
    """One job per bounds: the setup, its crossed-hom and Maurer-Cartan checks
    and its cohomology dimensions, the unit of work a user waits for."""
    cohomology, liealg, witt = _modules("cohomology", "liealg", "witt")

    def run(A, deltas, s, degree):
        built = witt.generalized_witt_setup(A, deltas)
        return (
            built,
            liealg.check_crossed_hom(s),
            cohomology.mc_residual(s).is_zero(),
            cohomology.cohomology_dims(s, degree),
        )

    def check(result, A, deltas, bounds):
        built, findings, mc_zero, report = result
        m, dim_a = len(deltas), A.dim
        if (built.g.dim, built.h.dim) != (m * dim_a, m * m * dim_a):
            return f"generalized_witt_setup: dim g, dim h = {built.g.dim}, {built.h.dim}"
        if findings:
            return f"check_crossed_hom: {len(findings)} findings, expected none"
        if mc_zero is not True:
            return "mc_residual is nonzero"
        if report.dims_H() != GW_DIMS_H[bounds]:
            return f"cohomology_dims: dims_H {report.dims_H()}, expected {GW_DIMS_H[bounds]}"
        return None

    return [
        Job(
            f"generalized Witt {list(bounds)}: setup, crossed hom, Maurer-Cartan, "
            f"H^<={GW_DEGREE[bounds]}",
            lambda A=A, deltas=deltas, s=s, d=GW_DEGREE[bounds]: run(A, deltas, s, d),
            lambda result, A=A, deltas=deltas, bounds=bounds: check(result, A, deltas, bounds),
        )
        for bounds, (A, deltas, s) in inputs.items()
    ]


# ---------------------------------------------------------------------------
# cli-fixtures: one `python -m crosshom.cli ... --json` per job

F = "fixtures/"
ALGEBRAS = ("abelian1", "dim2", "heisenberg", "sl2")
SETUPS = {  # setup fixture -> an element of g for nijenhuis/deform
    "dim2_bad": "1,1",
    "dim2_case_i": "1,1",
    "dim2_case_ii": "1,1",
    "heisenberg_adjoint": "0,0,1",
    "sl2_adjoint": "1,0,0",
    "sl2_adjoint_byref": "0,1,0",
    "trivial1": "1",
}
README_LINES = (
    "check-lie fixtures/sl2.alg.json",
    "check-action fixtures/sl2_adjoint.setup.json",
    "check-crossed-hom fixtures/dim2_bad.setup.json",
    "cohomology --max-degree 2 fixtures/sl2_adjoint.setup.json",
    "mc-residual fixtures/dim2_case_ii.setup.json",
    "nijenhuis fixtures/heisenberg_adjoint.setup.json --grid=-1,0,1",
    "nijenhuis fixtures/dim2_case_ii.setup.json --element 1,1",
    "deform fixtures/dim2_case_ii.setup.json --element 1,1",
    "solve-grid fixtures/dim2_case_i.setup.json --grid=-1,0,1",
    "witt-verify --n 2 --family full --window 2",
    "witt-verify --n 1 --family pq --window 2 --p-file fixtures/pq_example.p.json --q 1/2",
    "shen-larsson --n 1 --rep natural --window 1 --check",
    "check-rinehart fixtures/derivations_trunc3.lr.json",
    "check-leibniz fixtures/derivations_trunc3.pair.json",
)
GENERATED_SETUPS = 6
# Inputs that exit 1 with a ZeroDivisionError traceback instead of exit 2 at
# the commit that introduced this benchmark. They are run and counted as
# failures; `correct` stays true while they are the only failures.
Q_ZERO_DENOMINATOR = "malformed: witt-verify --q 1/0"
ELEMENT_ZERO_DENOMINATOR = "malformed: nijenhuis --element 1/0,1"
CLI_KNOWN_DEFECTS = frozenset({Q_ZERO_DENOMINATOR, ELEMENT_ZERO_DENOMINATOR})
INPUT_ERROR = {"code": 2, "status": "error"}


def fixture_argvs() -> list[tuple[str, list[str]]]:
    """(job name, argv) for every fixture through each subcommand taking it,
    then each README command line that no fixture job already runs."""
    out = [(f"check-lie {a}", ["check-lie", f"{F}{a}.alg.json"]) for a in ALGEBRAS]
    for name, element in SETUPS.items():
        path = f"{F}{name}.setup.json"
        for argv in (
            ["check-action", path],
            ["check-crossed-hom", path],
            ["cohomology", "--max-degree", "2", path],
            ["mc-residual", path],
            ["nijenhuis", path, "--grid=-1,0,1"],
            ["nijenhuis", path, "--element", element],
            ["deform", path, "--element", element],
            ["solve-grid", path, "--grid=0,1"],
        ):
            out.append((" ".join(argv), argv))
    out.append(("check-rinehart", ["check-rinehart", f"{F}derivations_trunc3.lr.json"]))
    out.append(("check-leibniz", ["check-leibniz", f"{F}derivations_trunc3.pair.json"]))
    covered = {tuple(argv) for _, argv in out}
    out += [
        (f"readme: {line}", line.split())
        for line in README_LINES
        if tuple(line.split()) not in covered
    ]
    return out


def dim2_crossed_hom_oracle(H) -> bool:
    """Criterion 01's closed form for the dim-2 adjoint setup."""
    (a11, _), (a21, a22) = H
    return a21 == 0 and (1 + a11) * a22 == 0


def _dim2_setup_body(H_rows) -> dict:
    g = {
        "kind": "finite_lie",
        "basis": ["e1", "e2"],
        "brackets": [{"left": "e1", "right": "e2", "value": {"e1": "1"}}],
    }
    return {
        "kind": "setup",
        "g": g,
        "h": g,
        "action": {"e1": [["0", "1"], ["0", "0"]], "e2": [["-1", "0"], ["0", "0"]]},
        "H": [[str(x) for x in row] for row in H_rows],
    }


def cli_setup(seed: int, workdir: Path):
    """Import the CLI, write the seed's generated inputs, and list every job."""
    importlib.import_module("crosshom.cli")
    expected = json.loads((HERE / "cli_expected.json").read_text())
    rng = random.Random(f"cli-fixtures:{seed}")
    jobs = [(name, argv, expected[name]) for name, argv in fixture_argvs()]
    for i in range(GENERATED_SETUPS):
        H = [[rng.choice((-1, 0, 1)) for _ in range(2)] for _ in range(2)]
        path = workdir / f"generated{i}.setup.json"
        path.write_text(json.dumps(_dim2_setup_body(H), indent=2))
        ok = dim2_crossed_hom_oracle(H)
        verdict = {"code": 0 if ok else 1, "status": "pass" if ok else "fail"}
        jobs.append(
            (
                f"generated{i} H={H}: check-crossed-hom",
                ["check-crossed-hom", str(path)],
                dict(verdict, payload={"twist_map_is_homomorphism": ok}),
            )
        )
        residual = {"payload": {"residual": []}} if ok else {"nonempty": ["residual"]}
        jobs.append(
            (f"generated{i} H={H}: mc-residual", ["mc-residual", str(path)], dict(verdict, **residual))
        )
    bad = _dim2_setup_body([[1, 2], [0, 0]])
    bad["H"][0][0] = "1/x"
    (workdir / "bad_rational.setup.json").write_text(json.dumps(bad))
    jobs += [
        ("malformed: missing file", ["check-lie", str(workdir / "missing.alg.json")], INPUT_ERROR),
        (
            "malformed: bad rational",
            ["check-crossed-hom", str(workdir / "bad_rational.setup.json")],
            INPUT_ERROR,
        ),
        (
            Q_ZERO_DENOMINATOR,
            ["witt-verify", "--n", "1", "--family", "pq", "--window", "1", "--q", "1/0"],
            INPUT_ERROR,
        ),
        (
            ELEMENT_ZERO_DENOMINATOR,
            ["nijenhuis", f"{F}dim2_case_ii.setup.json", "--element", "1/0,1"],
            INPUT_ERROR,
        ),
    ]
    return {"jobs": [(name, argv + ["--json"], exp) for name, argv, exp in jobs], "seen": {}}


def subset_mismatch(expected, actual, where="payload") -> str | None:
    """First place where actual lacks or differs from expected; extra keys are allowed."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return f"{where} is not an object"
        for key, value in expected.items():
            if key not in actual:
                return f"{where}.{key} is missing"
            bad = subset_mismatch(value, actual[key], f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return f"{where} has the wrong length"
        for i, (e, a) in enumerate(zip(expected, actual)):
            bad = subset_mismatch(e, a, f"{where}[{i}]")
            if bad:
                return bad
        return None
    return None if expected == actual else f"{where} is {actual!r}, expected {expected!r}"


def check_cli(expected: dict, argv: list[str], seen: dict, result) -> str | None:
    code, out, err = result[0], result[1], result[2]
    if b"Traceback" in err:
        return f"exit {code} with a traceback on stderr"
    if code != expected["code"]:
        return f"exit {code}, expected {expected['code']}"
    key = tuple(argv)
    if seen.setdefault(key, out) != out:
        return "stdout differs from an earlier run of the same argv"
    try:
        body = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if body.get("status") != expected["status"]:
        return f"status {body.get('status')!r}, expected {expected['status']!r}"
    if "findings" in expected and len(body.get("findings", [])) != expected["findings"]:
        return f"{len(body.get('findings', []))} findings, expected {expected['findings']}"
    if "error" in expected and (body.get("error") or {}).get("type") != expected["error"]:
        return f"error {body.get('error')!r}, expected type {expected['error']}"
    for key in expected.get("nonempty", ()):
        if not body.get("payload", {}).get(key):
            return f"payload.{key} is empty"
    return subset_mismatch(expected.get("payload", {}), body.get("payload"))


def cli_jobs(inputs, runner) -> list[Job]:
    """runner(argv) -> (exit code, stdout bytes, stderr bytes, ...)."""
    seen = inputs["seen"]
    return [
        Job(
            name,
            lambda argv=argv: runner(argv),
            lambda result, exp=exp, argv=argv: check_cli(exp, argv, seen, result),
        )
        for name, argv, exp in inputs["jobs"]
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("witt-window", 4, witt_setup, witt_jobs),
        Workload("gw-cohomology", 4, gw_setup, gw_jobs),
        Workload(
            "cli-fixtures",
            2,
            cli_setup,
            cli_jobs,
            subprocess_jobs=True,
            known_defects=CLI_KNOWN_DEFECTS,
        ),
    )
}
