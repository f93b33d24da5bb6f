import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import crosshom.rinehart
import crosshom.witt
from crosshom.cohomology import Cochain
from crosshom.liealg import (
    CrossedHom,
    Setup,
    abelian,
    adjoint_action,
    heisenberg,
    sl2,
    two_dim_nonabelian,
    zero_action,
)
from crosshom.linalg import Matrix

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def no_window_enumeration(monkeypatch):
    """Make every window enumeration fail, for tests of the size guards."""

    def refuse(n, bound):
        raise AssertionError(f"window of {n} variables, bound {bound}, was enumerated")

    monkeypatch.setattr(crosshom.witt, "window_exponents", refuse)
    monkeypatch.setattr(crosshom.rinehart, "window_exponents", refuse)


def frac_matrix(rows) -> Matrix:
    return Matrix.from_rows(rows)


def dim2_setup(h_rows) -> Setup:
    g = two_dim_nonabelian()
    return Setup(g, g, adjoint_action(g), CrossedHom(frac_matrix(h_rows)))


def sl2_setup(h_rows=None) -> Setup:
    g = sl2()
    H = frac_matrix(h_rows) if h_rows is not None else Matrix.zero(3, 3)
    return Setup(g, g, adjoint_action(g), CrossedHom(H))


def heisenberg_setup(h_rows=None) -> Setup:
    g = heisenberg()
    H = frac_matrix(h_rows) if h_rows is not None else Matrix.zero(3, 3)
    return Setup(g, g, adjoint_action(g), CrossedHom(H))


def random_cochain(rng: random.Random, k: int, g_dim: int, h_dim: int) -> Cochain:
    values = {}
    for T in itertools.combinations(range(g_dim), k):
        v = tuple(Fraction(rng.randint(-2, 2)) for _ in range(h_dim))
        if any(v):
            values[T] = v
    return Cochain(k, g_dim, h_dim, values)


def action_library():
    """Valid (g, h, rho) triples used to randomize H in property tests."""
    triples = []
    for build in (two_dim_nonabelian, heisenberg, sl2):
        g = build()
        triples.append((g, g, adjoint_action(g)))
        triples.append((g, g, zero_action(g, g)))
    a2 = abelian(("a1", "a2"))
    g2 = two_dim_nonabelian()
    triples.append((g2, a2, zero_action(g2, a2)))
    # 1-dim g acting on 1-dim h by scaling: rho(d) = identity
    g1 = abelian(("d",))
    h1 = abelian(("a",))
    triples.append((g1, h1, __import__("crosshom").liealg.LieAction(g1, h1, (Matrix.identity(1),))))
    return triples


# --- helpers for comparing the sparse kernels with Fraction-only references ---

ORACLE_COEFFS = (-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3))


def ref_add_term(terms: dict, key, coeff):
    """The Fraction-only accumulation: every sum starts from Fraction(0)."""
    c = terms.get(key, Fraction(0)) + coeff
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def random_exponent(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(-2, 2) for _ in range(n))


def random_sparse_sum(rng: random.Random, make, integral: bool):
    """Sum of 1..3 elements make(c), c drawn from ORACLE_COEFFS (ints only if integral)."""
    coeffs = [c for c in ORACLE_COEFFS if isinstance(c, int)] if integral else ORACLE_COEFFS
    terms = [make(rng.choice(coeffs)) for _ in range(rng.randint(1, 3))]
    return sum(terms[1:], terms[0])


def assert_exact_terms(elem, integral: bool):
    """Every value is a nonzero int or Fraction; integral inputs give ints only."""
    for v in elem.terms.values():
        assert type(v) in ((int,) if integral else (int, Fraction)), v
        assert v != 0


# --- dense references for the sparse Matrix and bracket kernels ---


def ref_apply(m: Matrix, v) -> tuple:
    """The dense matrix-vector product: every entry of each row times v."""
    return tuple(
        sum((m.data[i * m.cols + j] * v[j] for j in range(m.cols)), Fraction(0))
        for i in range(m.rows)
    )


def ref_bracket(L, x, y) -> tuple:
    """The dense bracket: a loop over every stored structure constant."""
    out = [Fraction(0)] * L.dim
    for (i, j), v in L.structure.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, vk in enumerate(v):
                if vk:
                    out[k] += c * vk
    return tuple(out)


def ref_multiply(A, a, b) -> tuple:
    """The dense product in a commutative algebra: every pair of coordinates."""
    out = [Fraction(0)] * A.dim
    for i, j in itertools.product(range(A.dim), repeat=2):
        for k, c in enumerate(A.structure.get((min(i, j), max(i, j)), ())):
            out[k] += a[i] * b[j] * c
    return tuple(out)


def ref_action_bracket(A, S, beta) -> dict:
    """The structure constants of S (x) A, basis a_s x_i at i * dim A + s, from
    dense products: [a_s x_i, a_t x_j] = [x_i, x_j] (x) a_s a_t
    + a_s beta_i(a_t) x_j - a_t beta_j(a_s) x_i."""
    n, dim = A.dim, S.dim * A.dim
    unit = [tuple(Fraction(int(k == s)) for k in range(n)) for s in range(n)]
    out = {}
    for p, q in itertools.combinations(range(dim), 2):
        (i, s), (j, t) = divmod(p, n), divmod(q, n)
        vec = [Fraction(0)] * dim
        prod = ref_multiply(A, unit[s], unit[t])
        for k, ck in enumerate(S.bracket_basis(i, j)):
            for u, cu in enumerate(prod):
                vec[k * n + u] += ck * cu
        for u, c in enumerate(ref_multiply(A, unit[s], beta[i].col(t))):
            vec[j * n + u] += c
        for u, c in enumerate(ref_multiply(A, unit[t], beta[j].col(s))):
            vec[i * n + u] -= c
        if any(vec):
            out[p, q] = tuple(vec)
    return out


def random_fraction_vector(rng: random.Random, n: int) -> tuple:
    """Length-n Fractions, dense, sparse or zero by a random density."""
    density = rng.choice((0.0, 0.1, 0.4, 1.0))
    return tuple(
        Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)) if rng.random() < density else Fraction(0)
        for _ in range(n)
    )


def generalized_witt_bounds(bounds) -> Setup:
    """The generalized Witt setup on the truncated algebra with scaling derivations."""
    A = crosshom.witt.truncated_polynomial_algebra(bounds)
    deltas = [crosshom.witt.scaling_derivation(bounds, v) for v in range(len(bounds))]
    return crosshom.witt.generalized_witt_setup(A, deltas)


def kernel_setups() -> list[Setup]:
    """Every setup fixture, then generalized Witt [2,2] and [3,2]."""
    from crosshom import formats

    setups = [formats.load_file(str(p)) for p in sorted(FIXTURES.glob("*.setup.json"))]
    return setups + [generalized_witt_bounds(b) for b in ((2, 2), (3, 2))]
