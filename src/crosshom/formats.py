"""JSON definition files for algebras, setups, and Lie-Rinehart bundles.

Rationals appear everywhere as strings ("2", "-3/7").  Omitted brackets and
products are zero.  A file may carry "certified": true, in which case the
structural invariants (Jacobi, action laws, the crossed-homomorphism
identity) are verified at load time and a failure raises InvariantError;
without the flag only shapes and name references are validated, leaving the
mathematical checks to the subcommands.  A flag ("certified", a module
block's "strict") is a JSON bool; any other value is a ParseError.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import InvariantError, ParseError, ShapeError
from .liealg import (
    CrossedHom,
    FinLieAlgebra,
    LieAction,
    Setup,
    check_action,
    check_crossed_hom,
    check_lie_algebra,
)
from .linalg import Matrix, Vector, is_zero_vector, rational

# The builders of `witt` and `rinehart` types import those modules when
# called, so loading an algebra or a setup file loads neither.
if TYPE_CHECKING:
    from .rinehart import AModuleStructure, LeibnizPair, LieRinehart
    from .witt import FinCommAlgebra, LaurentPoly


def _name_index(names: Sequence[str], name: str, where: str) -> int:
    try:
        return names.index(name)
    except ValueError:
        raise ParseError(f"{where}: unknown basis name {name!r}") from None


def _value_vector(value: dict, names: Sequence[str], where: str) -> Vector:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: 'value' must be an object mapping names to rationals")
    out = [Fraction(0)] * len(names)
    for name, coeff in value.items():
        out[_name_index(names, name, where)] = rational(coeff, where)
    return tuple(out)


def _matrix_from_rows(rows, expected: tuple[int, int], where: str) -> Matrix:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError(f"{where}: expected a list of rows")
    # a matrix with no rows is written as [], whatever its column count
    got = (len(rows), len(rows[0]) if rows else expected[1])
    if any(len(r) != got[1] for r in rows):
        raise ShapeError(f"{where}: ragged matrix rows")
    if got != expected:
        raise ShapeError(f"{where}: matrix is {got[0]}x{got[1]}, expected {expected[0]}x{expected[1]}")
    parse = functools.cache(lambda e: rational(e, where))  # once per distinct string
    data = tuple(parse(e) if isinstance(e, str) else rational(e, where) for r in rows for e in r)
    return Matrix(got[0], got[1], data)


def _entries(body: dict, key: str, where: str) -> list:
    entries = body.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}: '{key}' must be a list")
    return entries


def _load_json(path: Path) -> dict:
    try:
        body = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # past the interpreter's digit limit; RecursionError, nesting too deep
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(body, dict):
        raise ParseError(f"{path}: top level must be an object")
    return body


def _basis_names(body: dict, where: str) -> list[str]:
    names = body.get("basis")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ParseError(f"{where}: 'basis' must be a list of names")
    if len(set(names)) != len(names):
        raise ParseError(f"{where}: duplicate basis names")
    return names


def bool_flag(body: dict, key: str, where: str) -> bool:
    """An optional flag, False when absent; a value other than a JSON bool
    raises ParseError, as `rational` refuses a bool for a number."""
    value = body.get(key, False)
    if type(value) is not bool:
        raise ParseError(f"{where}: '{key}' must be true or false, got {value!r}")
    return value


def _structure_from_dict(body: dict, kind: str, word: str, where: str):
    """(names, structure) of a `kind` file whose `word`s ("bracket" or
    "product") are entries {"left", "right", "value"}, each pair stored once
    as i <= j.  A bracket is antisymmetric: one given as (j, i) is stored
    negated, and one of a basis vector with itself is refused."""
    if body.get("kind") != kind:
        raise ParseError(f"{where}: expected kind '{kind}', got {body.get('kind')!r}")
    names = _basis_names(body, where)
    lie = word == "bracket"
    structure: dict[tuple[int, int], Vector] = {}
    for k, entry in enumerate(_entries(body, f"{word}s", where)):
        wh = f"{where}.{word}s[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{wh}: expected an object")
        i = _name_index(names, entry.get("left", ""), wh)
        j = _name_index(names, entry.get("right", ""), wh)
        if lie and i == j:
            raise ParseError(f"{wh}: bracket of a basis vector with itself must be omitted")
        vec = _value_vector(entry.get("value", {}), names, wh)
        if i > j:
            i, j = j, i
            vec = tuple(-c for c in vec) if lie else vec
        if (i, j) in structure:
            raise ParseError(f"{wh}: duplicate {word} for this pair")
        if not is_zero_vector(vec):
            structure[(i, j)] = vec
    return tuple(names), structure


def algebra_from_dict(body: dict, where: str = "algebra") -> FinLieAlgebra:
    alg = FinLieAlgebra(*_structure_from_dict(body, "finite_lie", "bracket", where))
    if bool_flag(body, "certified", where):
        bad = check_lie_algebra(alg)
        if bad:
            raise InvariantError(f"{where}: certified algebra fails Jacobi: {bad[0]}")
    return alg


def algebra_to_dict(L: FinLieAlgebra) -> dict:
    brackets = []
    for (i, j), v in sorted(L.structure.items()):
        value = {
            L.basis_names[k]: str(c) for k, c in enumerate(v) if c
        }
        brackets.append(
            {"left": L.basis_names[i], "right": L.basis_names[j], "value": value}
        )
    return {"kind": "finite_lie", "basis": list(L.basis_names), "brackets": brackets}


def comm_algebra_from_dict(body: dict, where: str = "algebra") -> FinCommAlgebra:
    from .witt import FinCommAlgebra

    names, structure = _structure_from_dict(body, "finite_comm", "product", where)
    unit = None
    if "unit" in body:
        unit = _value_vector(body["unit"], names, f"{where}.unit")
    return FinCommAlgebra(names, structure, unit)


def _resolve(node, base: Path, loader, where: str):
    """A sub-object may be inlined or given as a relative path string."""
    if isinstance(node, str):
        if "\0" in node:
            raise ParseError(f"{where}: path string contains a NUL byte")
        return loader(_load_json(base / node), where)
    if isinstance(node, dict):
        return loader(node, where)
    raise ParseError(f"{where}: expected an inline object or a path string")


def setup_from_dict(body: dict, base: Path, where: str = "setup") -> Setup:
    if body.get("kind") != "setup":
        raise ParseError(f"{where}: expected kind 'setup', got {body.get('kind')!r}")
    g = _resolve(body.get("g"), base, algebra_from_dict, f"{where}.g")
    h = _resolve(body.get("h"), base, algebra_from_dict, f"{where}.h")
    action = _matrix_table(body.get("action"), g.basis_names, (h.dim, h.dim), f"{where}.action")
    rho = LieAction(g, h, action)
    if "H" in body:
        H = CrossedHom(_matrix_from_rows(body["H"], (h.dim, g.dim), f"{where}.H"))
    else:
        H = CrossedHom(Matrix.zero(h.dim, g.dim))
    s = Setup(g, h, rho, H)
    if bool_flag(body, "certified", where):
        bad = check_lie_algebra(g) + check_lie_algebra(h) + check_action(rho)
        bad += check_crossed_hom(s)
        if bad:
            raise InvariantError(f"{where}: certified setup fails: {bad[0]}")
    return s


def setup_to_dict(s: Setup) -> dict:
    return {
        "kind": "setup",
        "g": algebra_to_dict(s.g),
        "h": algebra_to_dict(s.h),
        "action": {
            name: s.rho.matrices[i].render_rows()
            for i, name in enumerate(s.g.basis_names)
        },
        "H": s.H.matrix.render_rows(),
    }


def _matrix_table(body: dict, names: tuple[str, ...], shape: tuple[int, int], where: str):
    if not isinstance(body, dict):
        raise ParseError(f"{where}: expected an object mapping names to matrices")
    extra = set(body) - set(names)
    if extra:
        raise ParseError(f"{where}: unknown basis name {sorted(extra)[0]!r}")
    mats = []
    for name in names:
        if name not in body:
            raise ParseError(f"{where}: missing matrix for {name!r}")
        mats.append(_matrix_from_rows(body[name], shape, f"{where}[{name}]"))
    return tuple(mats)


def lie_rinehart_from_dict(body: dict, base: Path, where: str = "bundle") -> tuple[LieRinehart, dict]:
    """Returns the Lie-Rinehart algebra and any optional module block."""
    from .rinehart import LieRinehart

    if body.get("kind") != "lie_rinehart":
        raise ParseError(f"{where}: expected kind 'lie_rinehart', got {body.get('kind')!r}")
    A = _resolve(body.get("A"), base, comm_algebra_from_dict, f"{where}.A")
    L = _resolve(body.get("L"), base, algebra_from_dict, f"{where}.L")
    a_action = _matrix_table(
        body.get("a_action", {}), A.basis_names, (L.dim, L.dim), f"{where}.a_action"
    )
    anchor = _matrix_table(
        body.get("anchor", {}), L.basis_names, (A.dim, A.dim), f"{where}.anchor"
    )
    lr = LieRinehart(A, L, a_action, anchor)
    module = body.get("module", {})
    if module and not isinstance(module, dict):
        raise ParseError(f"{where}.module: expected an object")
    return lr, module


def leibniz_pair_from_dict(body: dict, base: Path, where: str = "pair") -> LeibnizPair:
    from .rinehart import LeibnizPair

    if body.get("kind") != "leibniz_pair":
        raise ParseError(f"{where}: expected kind 'leibniz_pair', got {body.get('kind')!r}")
    A = _resolve(body.get("A"), base, comm_algebra_from_dict, f"{where}.A")
    S = _resolve(body.get("S"), base, algebra_from_dict, f"{where}.S")
    beta = _matrix_table(
        body.get("beta", {}), S.basis_names, (A.dim, A.dim), f"{where}.beta"
    )
    return LeibnizPair(A, S, beta)


def module_from_dict(
    A: FinCommAlgebra, lie_names: tuple[str, ...], body: dict, where: str
) -> tuple[AModuleStructure, tuple[Matrix, ...]]:
    """Optional module block: dimension, A-action, and representation matrices
    keyed by the Lie basis names."""
    from .rinehart import AModuleStructure

    dim = body.get("dim")
    if type(dim) is not int or dim < 1:
        raise ParseError(f"{where}: 'dim' must be a positive integer")
    action = _matrix_table(
        body.get("action", {}), A.basis_names, (dim, dim), f"{where}.action"
    )
    mod = AModuleStructure(A, dim, action)
    rho = _matrix_table(body.get("rho", {}), lie_names, (dim, dim), f"{where}.rho")
    return mod, rho


def load_file(path_str: str):
    """Dispatch on the file's 'kind'; returns a typed object."""
    path = Path(path_str)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    body = _load_json(path)
    kind = body.get("kind")
    base = path.parent
    if kind == "finite_lie":
        return algebra_from_dict(body, str(path))
    if kind == "finite_comm":
        return comm_algebra_from_dict(body, str(path))
    if kind == "setup":
        return setup_from_dict(body, base, str(path))
    if kind == "lie_rinehart":
        return lie_rinehart_from_dict(body, base, str(path))
    if kind == "leibniz_pair":
        return leibniz_pair_from_dict(body, base, str(path))
    raise ParseError(f"{path}: unknown kind {kind!r}")


def twisting_polynomials_from_file(path_str: str, n: int) -> list[LaurentPoly]:
    """p-file: maps 1-based variable indices to {exponent: coefficient}."""
    from .witt import LaurentPoly

    path = Path(path_str)
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    body = _load_json(path)
    polys = [LaurentPoly.zero(n) for _ in range(n)]
    seen = set()
    for key, table in body.items():
        try:
            var = int(key)
        except ValueError:
            raise ParseError(f"{path}: variable index {key!r} is not an integer") from None
        if not 1 <= var <= n:
            raise ParseError(f"{path}: variable index {var} outside 1..{n}")
        if var in seen:
            raise ParseError(f"{path}: variable index {var} is given twice")
        seen.add(var)
        if not isinstance(table, dict):
            raise ParseError(f"{path}: entry for variable {var} must be an object")
        poly, exponents = LaurentPoly.zero(n), set()
        for exp_str, coeff in table.items():
            try:
                e = int(exp_str)
            except ValueError:
                raise ParseError(f"{path}: exponent {exp_str!r} is not an integer") from None
            if e in exponents:
                raise ParseError(f"{path}: exponent {e} of variable {var} is given twice")
            exponents.add(e)
            r = tuple(e if k == var - 1 else 0 for k in range(n))
            poly = poly + LaurentPoly.monomial(n, r, rational(coeff, str(path)))
        polys[var - 1] = poly
    return polys
