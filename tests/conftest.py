import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import crosshom.rinehart
import crosshom.witt
from crosshom.cohomology import (
    Cochain,
    CohomologyReport,
    DegreeDims,
    _cells,
    _induced_tables,
    _require_crossed_hom,
    ce_differential,
    cochain_from_matrix,
    eval_basis,
)
from crosshom.liealg import (
    CrossedHom,
    FinLieAlgebra,
    Setup,
    abelian,
    adjoint_action,
    check_lie_algebra,
    heisenberg,
    homomorphism_violations,
    sl2,
    two_dim_nonabelian,
    zero_action,
)
from crosshom.errors import DimensionMismatch
from crosshom.linalg import Matrix, Vector, _echelon, exact_coeff, is_zero_vector, lincomb, rational
from crosshom.poly import Poly
from crosshom.report import Finding
from crosshom.rinehart import regular_module
from crosshom.witt import check_comm_algebra, derivation_violations

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


def vadd(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    if len(a) != len(b):
        raise DimensionMismatch(f"vector lengths {len(a)} != {len(b)}")
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Vector) -> Vector:
    c = rational(c)
    return tuple(c * x for x in a)


def cochain(k: int, g_dim: int, h_dim: int, values) -> Cochain:
    """The Cochain with the dense values {T: vector}, in the sparse format:
    zero vectors and zero coordinates left out, integral coordinates ints."""
    sparse = {}
    for T, v in values.items():
        if len(v) != h_dim:
            raise DimensionMismatch(f"value at {T} has length {len(v)}, not {h_dim}")
        nonzeros = {u: exact_coeff(c) for u, c in enumerate(v) if c}
        if nonzeros:
            sparse[T] = nonzeros
    return Cochain(k, g_dim, h_dim, sparse)


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
    return cochain(k, g_dim, h_dim, values)


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


def poly_at(x, point: dict):
    """A `Poly` at the integer point {variable name: value}, summed term by
    term from `terms`, independently of the ring operations; an int or
    Fraction is returned as it is."""
    if type(x) is not Poly:
        return x
    total = Fraction(0)
    for m, c in x.terms.items():
        for v, e in m:
            c = c * point[v] ** e
        total += c
    return total


def evaluated(terms, point):
    """Sparse terms with Poly exponents and coefficients at {variable name:
    int}, keys that coincide there added up."""
    out: dict = {}
    for (p, r), c in terms.items():
        ref_add_term(out, (p, tuple(poly_at(x, point) for x in r)), poly_at(c, point))
    return out


def instance(kinds, elem, name):
    """The symbolic kind of elem and the point {name<k>: exponent} at which
    it evaluates to elem."""
    for kind in kinds:
        for _, r in elem.terms:
            point = {f"{name}{k + 1}": e for k, e in enumerate(r)}
            if evaluated(kind.terms, point) == elem.terms:
                return kind, point
    raise AssertionError(f"no symbolic kind evaluates to {elem}")


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


def vzero(n: int) -> tuple:
    return (Fraction(0),) * n


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, tuple(m.entry(i, j) for j in range(m.cols) for i in range(m.rows)))


def from_columns(cols) -> Matrix:
    """The matrix whose columns are the given vectors, all of one length."""
    rows = len(cols[0]) if cols else 0
    return Matrix(rows, len(cols), tuple(c[i] for i in range(rows) for c in cols))


def row_lists(m: Matrix) -> list[list[Fraction]]:
    return [list(m.row(i)) for i in range(m.rows)]


def bracket_basis(L, i, j) -> tuple:
    """[e_i, e_j] as a dense vector, read from the stored structure constants:
    the stored vector for i < j, its negative for i > j, zero for i == j."""
    if i < j:
        return L.structure.get((i, j), vzero(L.dim))
    v = L.structure.get((j, i)) if i > j else None
    return vzero(L.dim) if v is None else tuple(-c for c in v)


def coefficient_matrices(e) -> dict:
    """{r: M} for an element e of gl_n (x) A_n: the dense matrix of Fractions
    attached to each monomial x^r, in the order of r."""
    buckets: dict = {}
    for (p, r), c in e.terms.items():
        buckets.setdefault(r, {})[p] = c
    return {
        r: Matrix(e.n, e.n, tuple(Fraction(buckets[r].get(p, 0)) for p in range(e.n * e.n)))
        for r in sorted(buckets)
    }


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
        for k, ck in enumerate(bracket_basis(S, i, j)):
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


def full_complex_rows(tables, g_dim: int, h_dim: int, k: int) -> dict[int, dict[int, object]]:
    """The nonzero rows {row: {column: value}} of the degree-k coboundary
    matrix on the lexicographic tuple basis: column (T, u) is the image
    `_cells` gives the unit cochain under the trivial weights, times
    (-1)^(k+1), and row (S, w) is numbered S-major like the columns."""
    row_of = {S: p * h_dim for p, S in enumerate(itertools.combinations(range(g_dim), k + 1))}
    flip = k % 2 == 0
    rows: list[dict | None] = [None] * (len(row_of) * h_dim)
    for col, image in enumerate(_cells(tables, ([()] * g_dim, [()] * h_dim), k)):
        for (S, w), c in image.items():
            r = row_of[S] + w
            if rows[r] is None:
                rows[r] = {}
            rows[r][col] = -c if flip else c
    return {r: row for r, row in enumerate(rows) if row}


def ref_cohomology_dims(s: Setup, k_max: int) -> CohomologyReport:
    """The full complex: every coordinate of each d_k assembled by
    `full_complex_rows` and ranked, with no weight split."""
    g_dim, h_dim = s.g.dim, s.h.dim
    dims_C = [comb(g_dim, k) * h_dim for k in range(k_max + 1)]
    _require_crossed_hom(s)
    tables = _induced_tables(s)
    ranks = [
        len(_echelon(list(full_complex_rows(tables, g_dim, h_dim, k).values()), dims_C[k])[1])
        for k in range(k_max + 1)
    ]
    degrees = []
    for k in range(k_max + 1):
        z = dims_C[k] - ranks[k]
        b = ranks[k - 1] if k > 0 else 0
        degrees.append(DegreeDims(k, dims_C[k], z, b, z - b))
    return CohomologyReport(tuple(degrees))


# --- dense oracles for the first-order rule and the gl_n relations ---


def ref_first_order_findings(mod, D, sigma, rule, site=()) -> list:
    """The dense first-order rule: D*A_s - A_s*D - sigma(a_s) for each a_s."""
    A = mod.algebra
    findings = []
    for s in range(A.dim):
        diff = D * mod.action[s] - mod.action[s] * D - mod.of(sigma.col(s))
        if not diff.is_zero():
            findings.append(Finding(rule, site + (A.basis_names[s],), diff))
    return findings


def ref_leibniz_findings(lr) -> list:
    """[x, a y] = a [x, y] + anchor(x)(a) y by a dense loop over every
    (x_i, a_s, y_j), with the bracket of whole vectors."""
    A, L = lr.algebra, lr.lie
    findings = []
    for i in range(L.dim):
        ei = L.basis_vector(i)
        for s in range(A.dim):
            for j in range(L.dim):
                lhs = L.bracket(ei, lr.a_action[s].col(j))
                rhs = lr.a_action[s].apply(bracket_basis(L, i, j))
                for t, c in enumerate(lr.anchor[i].col(s)):
                    if c:
                        rhs = tuple(p + c * q for p, q in zip(rhs, lr.a_action[t].col(j)))
                diff = tuple(p - q for p, q in zip(lhs, rhs))
                if any(diff):
                    site = (L.basis_names[i], A.basis_names[s], L.basis_names[j])
                    findings.append(Finding("leibniz", site, diff))
    return findings


def _ref_resited(A, names, ders, rule) -> list:
    findings = []
    for name, D in zip(names, ders):
        for f in derivation_violations(A, D):
            findings.append(Finding(rule, (name,) + f.site, f.residual))
    return findings


def ref_lie_rinehart_findings(lr) -> list:
    """Every Lie-Rinehart law in the report order, Leibniz by the dense loop."""
    A, L = lr.algebra, lr.lie
    findings = check_comm_algebra(A) + check_lie_algebra(L) + ref_check_a_module(lr.l_module())
    findings += _ref_resited(A, L.basis_names, lr.anchor, "anchor-derivation")
    findings += homomorphism_violations(L, lr.anchor, "anchor-lie-hom")
    findings += ref_a_linear_violations(lr, regular_module(A), lr.anchor, "anchor-a-linear")
    return findings + ref_leibniz_findings(lr)


def ref_leibniz_pair_findings(p) -> list:
    A, S = p.algebra, p.lie
    findings = check_comm_algebra(A) + check_lie_algebra(S)
    findings += _ref_resited(A, S.basis_names, p.beta, "beta-derivation")
    return findings + homomorphism_violations(S, p.beta, "beta-lie-hom")


def ref_rep_findings(lie, mod, rho, ders, rule) -> list:
    """The weak or admissible law: the Lie-homomorphism law, then the dense
    first-order rule of each rho(x_i) with symbol ders[i]."""
    findings = homomorphism_violations(lie, rho, "lie-hom")
    for name, D, sigma in zip(lie.basis_names, rho, ders):
        findings += ref_first_order_findings(mod, D, sigma, rule, (name,))
    return findings


def ref_gl_tensor_algebra(m: int, A) -> FinLieAlgebra:
    """gl_m (x) A from [E_ij a_s, E_kl a_t] = (d_jk E_il - d_li E_kj) (x) a_s a_t,
    looped over every pair of basis vectors."""
    dimA = A.dim
    dim = m * m * dimA

    def idx(i, j, s):
        return (i * m + j) * dimA + s

    units = list(itertools.product(range(m), range(m), range(dimA)))
    names = tuple(f"E{i + 1}{j + 1}({A.basis_names[s]})" for i, j, s in units)
    products = {
        (s, t): ref_multiply(A, A.basis_vector(s), A.basis_vector(t))
        for s, t in itertools.product(range(dimA), repeat=2)
    }
    structure = {}
    for p, q in itertools.combinations(range(dim), 2):
        (i, j, s), (k, l, t) = units[p], units[q]
        vec = [Fraction(0)] * dim
        for u, c in enumerate(products[s, t]):
            if j == k:
                vec[idx(i, l, u)] += c
            if l == i:
                vec[idx(k, j, u)] -= c
        if any(vec):
            structure[p, q] = tuple(vec)
    return FinLieAlgebra(names, structure)


def ref_adjoint_rep_gl(n: int) -> tuple:
    """theta(E_ij) E_kl = d_jk E_il - d_li E_kj as dense matrices, E_kl at k*n + l,
    one per E_ij in row-major order."""
    dim = n * n
    theta = []
    for i, j in itertools.product(range(n), repeat=2):
        data = [Fraction(0)] * (dim * dim)
        for k, l in itertools.product(range(n), repeat=2):
            col = k * n + l
            if j == k:
                data[(i * n + l) * dim + col] += 1
            if l == i:
                data[(k * n + j) * dim + col] -= 1
        theta.append(Matrix(dim, dim, tuple(data)))
    return tuple(theta)


def ref_natural_rep_gl(n: int) -> tuple:
    """theta(E_ij) = E_ij, the dense matrix unit, in row-major order of (i, j)."""
    return tuple(
        Matrix(n, n, tuple(Fraction(int((r, c) == (i, j))) for r in range(n) for c in range(n)))
        for i, j in itertools.product(range(n), repeat=2)
    )


# --- dense oracles for the A-module laws ---


def ref_check_a_module(mod) -> list:
    """a(b m) = (ab) m and 1 m = m by dense matrix products and sums."""
    A = mod.algebra
    findings = []
    for s in range(A.dim):
        for t in range(A.dim):
            lhs = mod.action[s] * mod.action[t]
            rhs = mod.of(ref_multiply(A, A.basis_vector(s), A.basis_vector(t)))
            diff = lhs - rhs
            if not diff.is_zero():
                findings.append(Finding("module-assoc", (A.basis_names[s], A.basis_names[t]), diff))
    if A.unit is not None:
        diff = mod.of(A.unit) - Matrix.identity(mod.dim_m)
        if not diff.is_zero():
            findings.append(Finding("module-unit", ("1",), diff))
    return findings


def ref_a_linear_violations(lr, mod, mats, rule) -> list:
    """rho(a_s x_i) - a_s rho(x_i) on mod by dense lincomb and products."""
    A, L = lr.algebra, lr.lie
    findings = []
    for s in range(A.dim):
        for i in range(L.dim):
            diff = lincomb(mats, lr.a_action[s].col(i)) - mod.action[s] * mats[i]
            if not diff.is_zero():
                findings.append(Finding(rule, (A.basis_names[s], L.basis_names[i]), diff))
    return findings


# --- dense oracles for the Nijenhuis conditions and linear deformations ---


def ref_nij1(s, x) -> list:
    """[[x, e_j], [x, e_k]] for each j < k, by brackets of whole vectors."""
    g = s.g
    out = []
    for j, k in itertools.combinations(range(g.dim), 2):
        res = g.bracket(g.bracket(x, g.basis_vector(j)), g.bracket(x, g.basis_vector(k)))
        if not is_zero_vector(res):
            out.append(Finding("Nij1", (g.basis_names[j], g.basis_names[k]), res))
    return out


def ref_nij2(s, rx) -> list:
    """[rho(x) e_u, rho(x) e_v] for each u < v in h."""
    h = s.h
    out = []
    for u, v in itertools.combinations(range(h.dim), 2):
        res = h.bracket(rx.col(u), rx.col(v))
        if not is_zero_vector(res):
            out.append(Finding("Nij2", (h.basis_names[u], h.basis_names[v]), res))
    return out


def ref_nij3(s, x, rx) -> list:
    """rho([x, e_j]) rho(x) for each j, as dense matrices."""
    g = s.g
    out = []
    for j in range(g.dim):
        m = s.rho.of(g.bracket(x, g.basis_vector(j))) * rx
        if not m.is_zero():
            out.append(Finding("Nij3", (g.basis_names[j],), m))
    return out


def ref_twisted_images(s, x) -> Matrix:
    """Column i is rho_H(e_i)(Hx) = rho(e_i)(Hx) + [He_i, Hx], from dense rho and H."""
    Hx = s.H.apply(x)
    cols = [
        vadd(s.rho.matrices[i].apply(Hx), s.h.bracket(s.H.column(i), Hx))
        for i in range(s.g.dim)
    ]
    return from_columns(cols) if cols else Matrix.zero(s.h.dim, 0)


def ref_nij4(s, x, rx) -> list:
    """rho(x) rho_H(e_j)(Hx) for each j."""
    images = ref_twisted_images(s, x)
    out = []
    for j in range(s.g.dim):
        res = rx.apply(images.col(j))
        if not is_zero_vector(res):
            out.append(Finding("Nij4", (s.g.basis_names[j],), res))
    return out


def ref_nijenhuis_findings(s, x) -> list:
    rx = s.rho.of(x)
    return ref_nij1(s, x) + ref_nij2(s, rx) + ref_nij3(s, x, rx) + ref_nij4(s, x, rx)


def ref_check_linear_deformation(s, frkH) -> list:
    """The twisted coboundary of frkH, then [frkH e_i, frkH e_j] for i < j."""
    d = ce_differential(s, cochain_from_matrix(frkH))
    findings = [
        Finding("deformation-cocycle", tuple(s.g.basis_names[t] for t in S), eval_basis(d, S))
        for S in sorted(d.values)
    ]
    for i, j in itertools.combinations(range(s.g.dim), 2):
        w = s.h.bracket(frkH.col(i), frkH.col(j))
        if not is_zero_vector(w):
            findings.append(Finding("deformation-commute", (s.g.basis_names[i], s.g.basis_names[j]), w))
    return findings


def ref_check_deformation_equivalence(s, frkH1, frkH2, x) -> list:
    """deforiso-1 and deforiso-2 by dense sums, then Nij1 to Nij3."""
    findings = []
    diff = (frkH2 - frkH1) + ref_twisted_images(s, x)
    if not diff.is_zero():
        findings.append(Finding("deforiso-1", ("frkH2 - frkH1",), diff))
    rx = s.rho.of(x)
    for j in range(s.g.dim):
        d = vsub(frkH1.apply(s.g.bracket(x, s.g.basis_vector(j))), rx.apply(frkH2.col(j)))
        if not is_zero_vector(d):
            findings.append(Finding("deforiso-2", (s.g.basis_names[j],), d))
    return findings + ref_nij1(s, x) + ref_nij2(s, rx) + ref_nij3(s, x, rx)


def nijenhuis_setups() -> list:
    """Every setup fixture whose H is a crossed homomorphism, then generalized
    Witt [3] and [2,2]."""
    from crosshom import formats
    from crosshom.liealg import check_crossed_hom

    setups = [formats.load_file(str(p)) for p in sorted(FIXTURES.glob("*.setup.json"))]
    setups = [s for s in setups if not check_crossed_hom(s)]
    return setups + [generalized_witt_bounds(b) for b in ((3,), (2, 2))]
