import functools
import itertools
import random
import types
from fractions import Fraction

import pytest

import crosshom.rinehart
import crosshom.witt
from crosshom.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MalformedP,
    NotCommuting,
    NotDerivation,
    ParseError,
    SearchSpaceTooLarge,
)
from crosshom import formats
from crosshom.liealg import abelian, check_action, check_crossed_hom, check_lie_algebra, gl_algebra
from crosshom.linalg import Matrix, rational
from crosshom.poly import Poly
from crosshom.report import Finding
from crosshom.witt import (
    FinCommAlgebra,
    block_diagonal,
    GlLaurent,
    LaurentPoly,
    VTensorA,
    Window,
    WittElem,
    canonical_crossed_hom_GW,
    MAX_WINDOW_COUNT,
    canonical_crossed_hom_W,
    check_comm_algebra,
    crossed_hom_pq,
    derivation_violations,
    divergence,
    generalized_witt,
    generalized_witt_setup,
    gl_bracket,
    gl_tensor_algebra,
    hamiltonian_bracket_coefficient,
    hamiltonian_field,
    ham_window_basis,
    s_generator,
    scaling_derivation,
    sdiv_window_basis,
    symplectic_form,
    truncated_polynomial_algebra,
    verify_witt_crossed_hom,
    window_exponents,
    window_size,
    witt_bracket,
    witt_window_basis,
)
from conftest import (
    assert_exact_terms,
    bracket_basis,
    coefficient_matrices,
    evaluated,
    from_columns,
    instance,
    poly_at,
    random_exponent,
    random_fraction_vector,
    random_sparse_sum,
    ref_action_bracket,
    ref_add_term,
    ref_gl_tensor_algebra,
    ref_multiply,
    transpose,
)


def w(n, r, i, c=1):
    return WittElem.basis(n, r, i, c)


def test_witt_bracket_one_var():
    assert witt_bracket(w(1, (1,), 0), w(1, (2,), 0)) == w(1, (3,), 0)


def test_witt_bracket_two_var():
    got = witt_bracket(w(2, (1, 1), 0), w(2, (2, 0), 1))
    expected = w(2, (3, 1), 1, 2) - w(2, (3, 1), 0)
    assert got == expected


def test_witt_bracket_antisymmetry():
    rng = random.Random(4)
    for _ in range(20):
        elem = WittElem.zero(2)
        for _ in range(3):
            r = (rng.randint(-2, 2), rng.randint(-2, 2))
            elem = elem + w(2, r, rng.randint(0, 1), rng.randint(-2, 2))
        assert witt_bracket(elem, elem).is_zero()


def test_witt_bracket_jacobi_sampled():
    rng = random.Random(8)
    basis = witt_window_basis(2, 1)
    for _ in range(60):
        a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
        jac = (
            witt_bracket(a, witt_bracket(b, c))
            + witt_bracket(b, witt_bracket(c, a))
            + witt_bracket(c, witt_bracket(a, b))
        )
        assert jac.is_zero()


# strings of the elements the CLI renders, each with one exponent, recorded
# when WittElem was keyed (exponent, direction): with a single exponent the
# direction-major order of the (direction, exponent) keys is the same
WITT_STRINGS = {
    "x^(1,-1) d_2": lambda: w(2, (1, -1), 1),
    "d_3": lambda: w(3, (0, 0, 0), 2),
    "-3/2*x^(0,2) d_1": lambda: w(2, (0, 2), 0, Fraction(-3, 2)),
    "-x^(2,-1) d_1 + -2*x^(2,-1) d_2": lambda: s_generator(2, 0, 1, (2, -1)),
    "2*x^(1,0,-2) d_1 + x^(1,0,-2) d_3": lambda: s_generator(3, 2, 0, (1, 0, -2)),
    "2*x^(1,2) d_1 + -x^(1,2) d_2": lambda: hamiltonian_field(1, (1, 2)),
    "-x^(1,0,-1,2) d_1 + 2*x^(1,0,-1,2) d_2 + -x^(1,0,-1,2) d_3": lambda: hamiltonian_field(2, (1, 0, -1, 2)),
}


@pytest.mark.parametrize("expected", WITT_STRINGS)
def test_witt_strings_keep_their_bytes(expected):
    assert str(WITT_STRINGS[expected]()) == expected


def test_witt_elements_with_several_exponents_render_direction_major():
    assert str(w(2, (0, 1), 1) + w(2, (1, 0), 0)) == "x^(1,0) d_1 + x^(0,1) d_2"


def test_divergence_formula():
    assert divergence(w(2, (2, 3), 0)) == LaurentPoly.monomial(2, (2, 3), 2)
    assert divergence(w(2, (0, 0), 0)).is_zero()
    assert divergence(w(2, (0, 0), 1)).is_zero()


def test_divergence_of_generators_vanishes():
    for r in window_exponents(2, 2):
        assert divergence(s_generator(2, 0, 1, r)).is_zero()
    for r in window_exponents(2, 1):
        assert divergence(hamiltonian_field(1, r)).is_zero()


def test_divergence_closure_on_window():
    elems = sdiv_window_basis(2, 1)
    for a, b in itertools.combinations(elems, 2):
        assert divergence(witt_bracket(a, b)).is_zero()


def test_s_generator():
    got = s_generator(2, 0, 1, (1, 1))
    assert got == w(2, (1, 1), 0) - w(2, (1, 1), 1)
    assert s_generator(2, 0, 0, (3, 1)).is_zero()
    assert s_generator(2, 0, 1, (0, 0)).is_zero()
    with pytest.raises(IndexOutOfRange):
        s_generator(2, 0, 2, (1, 1))


def test_s_generator_bracket_with_degree_zero():
    # [d_k, d_ij(r)] = r_k d_ij(r)
    for k in range(2):
        for r in window_exponents(2, 2):
            lhs = witt_bracket(w(2, (0, 0), k), s_generator(2, 0, 1, r))
            rhs = s_generator(2, 0, 1, r).scale(r[k])
            assert lhs == rhs


def test_s_generator_bracket_formula():
    # [d_ij(r), d_pq(s)] expands into four shifted generators
    n = 3
    rng = random.Random(13)
    for _ in range(40):
        i, j, p, q = (rng.randrange(n) for _ in range(4))
        r = tuple(rng.randint(-2, 2) for _ in range(n))
        s = tuple(rng.randint(-2, 2) for _ in range(n))
        lhs = witt_bracket(s_generator(n, i, j, r), s_generator(n, p, q, s))
        t = tuple(a + b for a, b in zip(r, s))
        rhs = (
            s_generator(n, i, q, t).scale(r[j] * s[p])
            - s_generator(n, i, p, t).scale(r[j] * s[q])
            - s_generator(n, j, q, t).scale(r[i] * s[p])
            + s_generator(n, j, p, t).scale(r[i] * s[q])
        )
        assert lhs == rhs


def test_hamiltonian_field_examples():
    assert hamiltonian_field(1, (1, 0)) == w(2, (1, 0), 1, -1)
    assert hamiltonian_field(1, (0, 0)).is_zero()
    with pytest.raises(DimensionMismatch):
        hamiltonian_field(1, (1, 0, 0))


def test_hamiltonian_bracket_closure():
    # [h(r), h(s)] = (sum r_{n+i} s_i - s_{n+i} r_i) h(r+s) on the window
    for n in (1, 2):
        for r in window_exponents(2 * n, 1):
            for s in window_exponents(2 * n, 1):
                lhs = witt_bracket(hamiltonian_field(n, r), hamiltonian_field(n, s))
                coeff = hamiltonian_bracket_coefficient(n, r, s)
                t = tuple(a + b for a, b in zip(r, s))
                assert lhs == hamiltonian_field(n, t).scale(coeff)


def test_hamiltonian_specific_bracket():
    lhs = witt_bracket(hamiltonian_field(1, (1, 0)), hamiltonian_field(1, (0, 1)))
    assert lhs == hamiltonian_field(1, (1, 1)).scale(-1)


def test_canonical_crossed_hom_values():
    got = canonical_crossed_hom_W(w(2, (1, 2), 0))
    expected = GlLaurent.basis(2, 0, 0, (1, 2)) + GlLaurent.basis(2, 1, 0, (1, 2), 2)
    assert got == expected
    for i in range(2):
        assert canonical_crossed_hom_W(w(2, (0, 0), i)).is_zero()


def test_canonical_crossed_hom_of_hamiltonian_matrix():
    # the quadratic coefficient matrix of h((1,1)) is [[1, -1], [1, -1]]
    He = canonical_crossed_hom_W(hamiltonian_field(1, (1, 1)))
    mats = coefficient_matrices(He)
    assert list(mats) == [(1, 1)]
    assert mats[(1, 1)] == Matrix.from_rows([[1, -1], [1, -1]])


def test_hamiltonian_matrix_is_outer_product_on_window():
    # H(h(r)) = M (x) x^r with M[k][i] = r_k r_{n+i}, M[k][n+i] = -r_k r_i
    n = 1
    for r in window_exponents(2, 2):
        He = canonical_crossed_hom_W(hamiltonian_field(n, r))
        if all(e == 0 for e in r):
            assert He.is_zero()
            continue
        mats = coefficient_matrices(He)
        expected = Matrix.from_rows(
            [[r[k] * r[n + i] for i in range(n)] + [-r[k] * r[i] for i in range(n)]
             for k in range(2 * n)]
        )
        if expected.is_zero():
            assert mats == {}
        else:
            assert mats == {tuple(r): expected}


def test_crossed_hom_pq_values():
    zero1 = LaurentPoly.zero(1)
    # p = 0, q = 1: x^(2) d -> 2 x^(2)
    assert crossed_hom_pq([zero1], 1, w(1, (2,), 0)) == LaurentPoly.monomial(1, (2,), 2)
    # p = 0, q = 0: everything dies
    assert crossed_hom_pq([zero1], 0, w(1, (3,), 0)).is_zero()
    # p_1 = x_1, q = 0: x^(3) d -> x^(4)
    p = [LaurentPoly.monomial(1, (1,))]
    assert crossed_hom_pq(p, 0, w(1, (3,), 0)) == LaurentPoly.monomial(1, (4,))


def test_crossed_hom_pq_malformed():
    # p_1 depends on x_2
    p = [LaurentPoly.monomial(2, (0, 1)), LaurentPoly.zero(2)]
    with pytest.raises(MalformedP):
        crossed_hom_pq(p, 0, w(2, (1, 0), 0))


def test_pq_derivation_identity_windowed():
    # abelian target: H[u,v] = u(Hv) - v(Hu) for mixed p and q
    p = [LaurentPoly.monomial(2, (2, 0), Fraction(1, 2)), LaurentPoly.monomial(2, (0, -1), 3)]
    q = Fraction(-2, 3)
    elems = witt_window_basis(2, 1)
    for a, b in itertools.combinations(elems, 2):
        lhs = crossed_hom_pq(p, q, witt_bracket(a, b))
        rhs = a.apply(crossed_hom_pq(p, q, b)) - b.apply(crossed_hom_pq(p, q, a))
        assert lhs == rhs


def test_verify_full_family_small():
    assert verify_witt_crossed_hom(1, "full", Window(2)) == []
    assert verify_witt_crossed_hom(2, "full", Window(1)) == []


def test_verify_sdiv_family():
    findings = verify_witt_crossed_hom(2, "sdiv", Window(1))
    assert findings == []


def test_verify_ham_family():
    assert verify_witt_crossed_hom(1, "ham", Window(1)) == []


def test_verify_pq_family():
    p = [LaurentPoly.monomial(1, (-1,), 2)]
    assert verify_witt_crossed_hom(1, "pq", Window(2), p=p, q=Fraction(5, 7)) == []


def test_sl_landing_trace_zero():
    for e in sdiv_window_basis(2, 2):
        He = canonical_crossed_hom_W(e)
        for _, M in coefficient_matrices(He).items():
            assert sum((M.entry(i, i) for i in range(M.rows)), Fraction(0)) == 0


def test_sp_landing():
    J = symplectic_form(1)
    for e in ham_window_basis(1, 2):
        He = canonical_crossed_hom_W(e)
        for _, M in coefficient_matrices(He).items():
            assert (transpose(M) * J + J * M).is_zero()


def test_gl_bracket_matrix_units():
    # [E_12 (x) x, E_21 (x) y] = (E_11 - E_22) (x) xy
    a = GlLaurent.basis(2, 0, 1, (1, 0))
    b = GlLaurent.basis(2, 1, 0, (0, 1))
    got = gl_bracket(a, b)
    expected = GlLaurent.basis(2, 0, 0, (1, 1)) - GlLaurent.basis(2, 1, 1, (1, 1))
    assert got == expected


# --- finite commutative algebras and the generalized Witt construction ----


def test_truncated_algebra_valid():
    A = truncated_polynomial_algebra([4])
    assert check_comm_algebra(A) == []
    assert A.basis_names == ("1", "x", "x^2", "x^3")


def test_truncated_two_variables():
    A = truncated_polynomial_algebra([2, 3])
    assert check_comm_algebra(A) == []
    assert A.dim == 6
    x1 = A.basis_vector(A.basis_names.index("x1"))
    x2 = A.basis_vector(A.basis_names.index("x2"))
    prod = A.mult_matrix(x1).apply(x2)
    assert prod == A.basis_vector(A.basis_names.index("x1*x2"))


def test_scaling_derivation_is_derivation():
    for bounds in ([3], [4], [2, 2]):
        for var in range(len(bounds)):
            assert derivation_violations(
                truncated_polynomial_algebra(bounds), scaling_derivation(bounds, var)
            ) == []


def test_scaling_derivation_is_the_dense_exponent_diagonal():
    for bounds in ([1], [3], [2, 2], [2, 3, 2]):
        exps = list(itertools.product(*(range(b) for b in bounds)))
        for var in range(len(bounds)):
            D = scaling_derivation(bounds, var)
            rows = [[e[var] if k == j else 0 for j in range(len(exps))] for k, e in enumerate(exps)]
            assert D == Matrix.from_rows(rows)
            assert all(type(x) is Fraction for x in D.data)


def test_scaling_derivation_refuses_what_the_truncated_algebra_refuses():
    for var in (2, -1, 5):
        with pytest.raises(IndexOutOfRange, match=f"variable {var} outside 0..1"):
            scaling_derivation([2, 2], var)
    # a bound < 1 is refused by both, with one message
    for bounds in ([0], [2, 0], [3, -1]):
        with pytest.raises(DimensionMismatch, match="each truncation bound must be >= 1"):
            truncated_polynomial_algebra(bounds)
        with pytest.raises(DimensionMismatch, match="each truncation bound must be >= 1"):
            scaling_derivation(bounds, 0)


def test_symplectic_form_is_the_dense_block_matrix():
    for n in range(4):
        zero, eye = [0] * n, [[int(i == j) for j in range(n)] for i in range(n)]
        rows = [zero + eye[i] for i in range(n)] + [[-x for x in eye[i]] + zero for i in range(n)]
        J = symplectic_form(n)
        assert J == Matrix.from_rows(rows)
        assert all(type(x) is Fraction for x in J.data)


def test_shift_operator_is_not_derivation():
    # d/dx on K[x]/(x^3) fails Leibniz on the top-degree pair (x, x^2)
    A = truncated_polynomial_algebra([3])
    shift = Matrix.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    bad = derivation_violations(A, shift)
    assert any(f.site == ("x", "x^2") for f in bad)
    with pytest.raises(NotDerivation):
        generalized_witt(A, [shift])


def test_generalized_witt_brackets():
    # A = K[x]/(x^3), delta = x d/dx: [1 d, x d] = x d, [1 d, x^2 d] = 2 x^2 d,
    # [x d, x^2 d] = (x * 2x^2 - x^2 * x) d = x^3 d = 0
    A = truncated_polynomial_algebra([3])
    gw = generalized_witt(A, [scaling_derivation([3], 0)])
    assert gw.dim == 3
    assert check_lie_algebra(gw) == []
    assert bracket_basis(gw, 0, 1) == (Fraction(0), Fraction(1), Fraction(0))
    assert bracket_basis(gw, 0, 2) == (Fraction(0), Fraction(0), Fraction(2))
    assert bracket_basis(gw, 1, 2) == (Fraction(0), Fraction(0), Fraction(0))


def test_generalized_witt_zero_derivation_abelian():
    A = truncated_polynomial_algebra([2])
    gw = generalized_witt(A, [Matrix.zero(2, 2)])
    assert gw.dim == 2
    assert gw.structure == {}


def test_generalized_witt_one_dimensional():
    A = truncated_polynomial_algebra([1])
    gw = generalized_witt(A, [Matrix.zero(1, 1)])
    assert gw.dim == 1
    assert gw.structure == {}


def test_generalized_witt_noncommuting_rejected():
    A = truncated_polynomial_algebra([3])
    d1 = scaling_derivation([3], 0)
    # x^2 d/dx: 1 -> 0, x -> x^2, x^2 -> 0 (in A); a genuine derivation
    d2 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert derivation_violations(A, d2) == []
    with pytest.raises(NotCommuting):
        generalized_witt(A, [d1, d2])


def test_generalized_witt_setup_certified():
    for bounds, deltas in (
        ([4], [scaling_derivation([4], 0)]),
        ([2, 2], [scaling_derivation([2, 2], 0), scaling_derivation([2, 2], 1)]),
    ):
        A = truncated_polynomial_algebra(bounds)
        s = generalized_witt_setup(A, deltas)
        assert check_lie_algebra(s.g) == []
        assert check_lie_algebra(s.h) == []
        assert check_crossed_hom(s) == []


def test_canonical_gw_values():
    # delta = x d/dx on K[x]/(x^3): H(x^2 delta) = E_11 (x) delta(x^2) = 2 E_11 (x) x^2
    A = truncated_polynomial_algebra([3])
    delta = scaling_derivation([3], 0)
    val = canonical_crossed_hom_GW(A, [delta], (Fraction(0), Fraction(0), Fraction(1)))
    assert val == (Fraction(0), Fraction(0), Fraction(2))
    # constants die
    val = canonical_crossed_hom_GW(A, [delta], (Fraction(5), Fraction(0), Fraction(0)))
    assert val == (Fraction(0),) * 3


def test_canonical_gw_matches_sparse_canonical_map():
    # On K[x]/(x^m) with the scaling derivation the finite map reproduces the
    # sparse one: H(x^a d) = a E (x) x^a for a = 0..m-1.
    m = 4
    A = truncated_polynomial_algebra([m])
    s = generalized_witt_setup(A, [scaling_derivation([m], 0)])
    for a in range(m):
        col = s.H.column(a)
        sparse = canonical_crossed_hom_W(w(1, (a,), 0))
        expected = [Fraction(0)] * m
        for (_, r), c in sparse.terms.items():
            expected[r[0]] = c
        assert list(col) == expected


# x^2 d/dx on K[x]/(x^3): 1 -> 0, x -> x^2, x^2 -> 0; a derivation that is not diagonal
X2_DX = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
SHIFT = Matrix.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]])  # d/dx, not a derivation mod x^3


def _golden_ratio_algebra() -> FinCommAlgebra:
    """K[x]/(x^2 - x - 1): a product with two nonzero coordinates."""
    one, zero = Fraction(1), Fraction(0)
    structure = {(0, 0): (one, zero), (0, 1): (zero, one), (1, 1): (one, one)}
    return FinCommAlgebra(("1", "x"), structure, (one, zero))


def _ref_truncated_structure(bounds) -> tuple[dict, tuple]:
    """The products a_i a_j, i <= j, and the unit of the monomial algebra
    truncated at bounds, as dense vectors over the lex-ordered exponents."""
    exps = list(itertools.product(*(range(b) for b in bounds)))
    products = {}
    for i, j in itertools.combinations_with_replacement(range(len(exps)), 2):
        prod = [a + b for a, b in zip(exps[i], exps[j])]
        if all(p < b for p, b in zip(prod, bounds)):
            products[i, j] = tuple(Fraction(int(list(e) == prod)) for e in exps)
    return products, tuple(Fraction(int(not any(e))) for e in exps)


def test_products_through_mult_matrix_match_dense_oracle(fixtures_dir):
    rng = random.Random(11)
    bounds_list = ([1], [4], [2, 3], [2, 2, 2])
    for bounds in bounds_list:
        A = truncated_polynomial_algebra(bounds)
        assert (dict(A.structure), A.unit) == _ref_truncated_structure(bounds)
        assert all(type(x) is Fraction for v in [*A.structure.values(), A.unit] for x in v)
    algebras = [truncated_polynomial_algebra(b) for b in bounds_list]
    algebras += [formats.load_file(str(fixtures_dir / "derivations_trunc3.pair.json")).algebra]
    algebras += [_golden_ratio_algebra()]
    for A in algebras:
        for _ in range(20):
            a = random_fraction_vector(rng, A.dim)
            b = random_fraction_vector(rng, A.dim)
            m = A.mult_matrix(a)
            cols = [ref_multiply(A, a, A.basis_vector(j)) for j in range(A.dim)]
            assert m == from_columns(cols)
            assert all(type(c) is Fraction for c in m.data)
            prod = m.apply(b)
            assert prod == ref_multiply(A, a, b)
            assert all(type(c) is Fraction for c in prod)


def test_check_comm_algebra_reports_each_failing_triple():
    # a b = a + 2b and b b = 3b with unit a + b is commutative but not associative
    f = Fraction
    A = FinCommAlgebra(("a", "b"), {(0, 1): (f(1), f(2)), (1, 1): (f(0), f(3))}, (f(1), f(1)))
    assert [str(x) for x in check_comm_algebra(A)] == [
        "associativity at (a, a, b): residual (-2, -4)",
        "associativity at (a, b, b): residual (-2, 2)",
        "associativity at (b, a, a): residual (2, 4)",
        "associativity at (b, b, a): residual (2, -2)",
        "unit at (1): residual [0, 1; 2, 4]",
    ]
    assert check_comm_algebra(_golden_ratio_algebra()) == []


def test_generalized_witt_non_diagonal_derivation():
    # x^2 d/dx on K[x]/(x^3) and K[x]/(x^4): [1 D, x D] = x^2 D, ...
    for m, D in ((3, X2_DX), (4, Matrix.from_rows([[0] * 4, [0] * 4, [0, 1, 0, 0], [0, 0, 2, 0]]))):
        A = truncated_polynomial_algebra([m])
        assert derivation_violations(A, D) == []
        gw = generalized_witt(A, [D])
        assert gw.structure == ref_action_bracket(A, abelian(("D1",)), [D])
        assert bracket_basis(gw, 0, 1) == (Fraction(0), Fraction(0), Fraction(1)) + (Fraction(0),) * (m - 3)
        s = generalized_witt_setup(A, [D])
        assert s.g == gw
        assert check_lie_algebra(s.g) == [] and check_action(s.rho) == []
        assert check_crossed_hom(s) == []


def test_generalized_witt_errors_keep_their_messages():
    A = truncated_polynomial_algebra([3])
    assert [str(f) for f in derivation_violations(A, SHIFT)] == [
        "leibniz at (x, x^2): residual (0, 0, -3)"
    ]
    with pytest.raises(NotDerivation) as err:
        generalized_witt(A, [SHIFT])
    assert str(err.value) == "Delta[0] violates the Leibniz rule: leibniz at (x, x^2): residual (0, 0, -3)"
    with pytest.raises(NotCommuting) as err:
        generalized_witt_setup(A, [scaling_derivation([3], 0), X2_DX])
    assert str(err.value) == "Delta[0] and Delta[1] do not commute"


def test_window_validation():
    with pytest.raises(DimensionMismatch):
        Window(0)


# One non-int value per constructor: each used to build a malformed element
# or algebra, or fail later with a bare TypeError.
NON_INT_PARAMETERS = {
    "Window": (lambda: Window(1.5), DimensionMismatch, "window bound: 1.5"),
    "Window-bool": (lambda: Window(True), DimensionMismatch, "window bound: True"),
    "WittElem.basis": (lambda: WittElem.basis(2, (0, 0), 1.0), IndexOutOfRange, "direction: 1.0"),
    "GlLaurent.basis": (lambda: GlLaurent.basis(2, 1.0, 0, (0, 0)), IndexOutOfRange, "matrix position: 1.0"),
    "VTensorA.basis": (lambda: VTensorA.basis(1, 2, True, (0,)), DimensionMismatch, "component: True"),
    "s_generator": (lambda: s_generator(2, 0.0, 1, (1, 1)), IndexOutOfRange, "directions: 0.0"),
    "scaling_derivation": (lambda: scaling_derivation([3], 0.0), IndexOutOfRange, "variable: 0.0"),
    "truncated_polynomial_algebra": (
        lambda: truncated_polynomial_algebra([2.7]), DimensionMismatch, "truncation bound: 2.7"
    ),
}


@pytest.mark.parametrize("case", NON_INT_PARAMETERS.values(), ids=NON_INT_PARAMETERS)
def test_integer_parameters_refuse_other_values(case):
    build, error, what = case
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == f"{what} is not an integer"


def test_window_guard_refuses_before_enumerating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the window was enumerated")

    assert window_size(3, 1) == 27
    assert window_size(14, 1) == 3**14 <= MAX_WINDOW_COUNT
    # 3^15 exceeds the cap; n = 10^9 must be refused without computing 3^n
    for n in (15, 24, 10**9):
        with pytest.raises(SearchSpaceTooLarge):
            window_size(n, 1)
    monkeypatch.setattr(itertools, "product", refuse)
    with pytest.raises(SearchSpaceTooLarge):
        window_exponents(15, 1)


def test_a_negative_n_is_refused_and_n_zero_has_nothing_to_check():
    # window_size refuses n < 0 with DimensionMismatch, for every family, both
    # Shen-Larsson checks (built-in action or not) and the three window
    # bases; n = 0 has no windowed element, and every check of it passes
    rinehart = crosshom.rinehart
    action = rinehart.shen_larsson_action(rinehart.trivial_rep(1))
    wrapped = lambda w, t: action(w, t)  # noqa: E731
    with pytest.raises(DimensionMismatch, match="negative"):
        window_size(-1, 1)
    for family in crosshom.witt.FAMILIES:
        with pytest.raises(DimensionMismatch):
            verify_witt_crossed_hom(-1, family, Window(1), p=[], q=0)
        assert verify_witt_crossed_hom(0, family, Window(1), p=[], q=0) == []
    for basis in (witt_window_basis, sdiv_window_basis, ham_window_basis):
        with pytest.raises(DimensionMismatch):
            basis(-1, 1)
        assert basis(0, 1) == []
    checks = (rinehart.check_module_axiom_window, rinehart.check_weak_compat_window)
    for check, act in itertools.product(checks, (action, wrapped)):
        with pytest.raises(DimensionMismatch):
            check(act, -1, Window(1), [rinehart.VTensorA.basis(1, 1, 0, (1,))])
        assert check(act, 0, Window(1), [rinehart.VTensorA.basis(0, 1, 0, ())]) == []


def test_verify_refuses_too_many_pairs(no_window_enumeration):
    # 5 * 5^5 elements give about 1.2e8 pairs, although 5^5 exponents are few
    with pytest.raises(SearchSpaceTooLarge, match="windowed pairs"):
        verify_witt_crossed_hom(5, "full", Window(2))
    with pytest.raises(SearchSpaceTooLarge):
        verify_witt_crossed_hom(8, "ham", Window(1))


# --- the int coefficient path against the Fraction-only kernels -----------
#
# The reference kernels below are the Fraction-only versions the int path
# replaced: every coefficient is turned into a Fraction and every sum starts
# from Fraction(0).  Elements are built with the class constructor so the
# reference results keep their Fraction values.

ORACLE_PAIRS_PER_N = 160


def _fractions(elem):
    return [(k, Fraction(v)) for k, v in elem.terms.items()]


def ref_witt_bracket(a, b):
    out = {}
    for (i, r), ca in _fractions(a):
        for (j, s), cb in _fractions(b):
            c = ca * cb
            key_exp = tuple(p + q for p, q in zip(r, s))
            if s[i]:
                ref_add_term(out, (j, key_exp), c * s[i])
            if r[j]:
                ref_add_term(out, (i, key_exp), -c * r[j])
    return WittElem(a.n, out)


def ref_gl_bracket(a, b):
    """[E_ij, E_kl] = d_jk E_il - d_li E_kj written out, E_ij keyed i * n + j."""
    n, out = a.n, {}
    for (ij, r), ca in _fractions(a):
        i, j = divmod(ij, n)
        for (kl, s), cb in _fractions(b):
            k, l = divmod(kl, n)
            c = ca * cb
            key_exp = tuple(p + q for p, q in zip(r, s))
            if j == k:
                ref_add_term(out, (i * n + l, key_exp), c)
            if l == i:
                ref_add_term(out, (k * n + j, key_exp), -c)
    return GlLaurent(a.n, out)


def ref_canonical_crossed_hom_W(wv):
    out = {}
    for (j, r), c in _fractions(wv):
        for i, ri in enumerate(r):
            if ri:
                ref_add_term(out, (i * wv.n + j, r), c * ri)
    return GlLaurent(wv.n, out)


def ref_apply(wv, m):
    """The coefficientwise action on a LaurentPoly or a GlLaurent m."""
    out = {}
    for (i, r), cw in _fractions(wv):
        for (p, s), cm in _fractions(m):
            if s[i]:
                ref_add_term(out, (p, tuple(a + b for a, b in zip(r, s))), cw * cm * s[i])
    return type(m)(wv.n, out)


def ref_laurent_mul(a, b):
    out = {}
    for (_, r), cr in _fractions(a):
        for (_, s), cs in _fractions(b):
            ref_add_term(out, (0, tuple(x + y for x, y in zip(r, s))), cr * cs)
    return LaurentPoly(a.n, out)


def _witt(rng, n):
    return lambda c: WittElem.basis(n, random_exponent(rng, n), rng.randrange(n), c)


def _gl(rng, n):
    return lambda c: GlLaurent.basis(
        n, rng.randrange(n), rng.randrange(n), random_exponent(rng, n), c
    )


def _laurent(rng, n):
    return lambda c: LaurentPoly.monomial(n, random_exponent(rng, n), c)


ORACLE_CASES = [
    ("witt_bracket", _witt, _witt, witt_bracket, ref_witt_bracket),
    ("gl_bracket", _gl, _gl, gl_bracket, ref_gl_bracket),
    ("apply_gl", _witt, _gl, WittElem.apply, ref_apply),
    ("apply", _witt, _laurent, WittElem.apply, ref_apply),
    ("laurent_mul", _laurent, _laurent, LaurentPoly.poly_scale, ref_laurent_mul),
]


@pytest.mark.parametrize("name, left, right, kernel, reference", ORACLE_CASES)
def test_int_kernels_match_fraction_reference(name, left, right, kernel, reference):
    rng = random.Random(name)
    pairs = 0
    for n in (1, 2):
        for k in range(ORACLE_PAIRS_PER_N):
            integral = k % 2 == 0
            a = random_sparse_sum(rng, left(rng, n), integral)
            b = random_sparse_sum(rng, right(rng, n), integral)
            for x in (a, b):
                assert_exact_terms(x, integral)
            got = kernel(a, b)
            assert got == reference(a, b)
            assert_exact_terms(got, integral)
            pairs += 1
    assert pairs >= 300


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gl_bracket_is_the_sum_of_dense_commutators(n):
    # an oracle apart from gl_algebra and ref_gl_bracket: the matrix of
    # [a, b] at x^t is the sum over r + s = t of the commutators [A_r, B_s]
    rng = random.Random(f"gl-commutators-{n}")
    nonzero = 0
    for k in range(60):
        integral = k % 2 == 0
        a = random_sparse_sum(rng, _gl(rng, n), integral)
        b = random_sparse_sum(rng, _gl(rng, n), integral)
        expected = {}
        for (r, A), (s, B) in itertools.product(
            coefficient_matrices(a).items(), coefficient_matrices(b).items()
        ):
            t = tuple(x + y for x, y in zip(r, s))
            C = A * B - B * A
            expected[t] = expected[t] + C if t in expected else C
        got = coefficient_matrices(gl_bracket(a, b))
        assert got == {t: M for t, M in sorted(expected.items()) if not M.is_zero()}
        nonzero += bool(got)
    assert nonzero >= (0 if n == 1 else 30)


def test_poly_scale_multiplies_the_coefficient_by_a_laurent_polynomial():
    a = LaurentPoly.monomial(2, (1, 0), 2)
    elems = {
        "2*x^(1,1)": LaurentPoly.monomial(2, (0, 1)),
        "2*E_12 (x) x^(1,1)": GlLaurent.basis(2, 0, 1, (0, 1)),
        "2*v3 (x) x^(1,1)": crosshom.witt.VTensorA.basis(2, 3, 2, (0, 1)),
    }
    for expected, m in elems.items():
        assert str(m.poly_scale(a)) == expected
        with pytest.raises(DimensionMismatch, match="only by a LaurentPoly"):
            m.poly_scale(GlLaurent.basis(2, 0, 0, (1, 0)))
        with pytest.raises(DimensionMismatch, match="variable counts differ"):
            m.poly_scale(LaurentPoly.monomial(1, (1,)))


def test_canonical_map_int_path_and_dense_boundary():
    rng = random.Random(11)
    for n in (1, 2):
        for k in range(ORACLE_PAIRS_PER_N):
            integral = k % 2 == 0
            a = random_sparse_sum(rng, _witt(rng, n), integral)
            got = canonical_crossed_hom_W(a)
            assert got == ref_canonical_crossed_hom_W(a)
            assert_exact_terms(got, integral)
            # dense matrices keep Fraction entries, integral or not
            for M in coefficient_matrices(got).values():
                assert all(type(e) is Fraction for e in M.data)


def test_constructors_and_scale_store_integral_values_as_int():
    assert type(WittElem.basis(1, (1,), 0, Fraction(4, 2)).terms[(0, (1,))]) is int
    assert type(LaurentPoly.monomial(1, (0,), "3").terms[(0, (0,))]) is int
    assert type(GlLaurent.basis(1, 0, 0, (0,), "1/2").terms[(0, (0,))]) is Fraction
    half = w(1, (1,), 0, 2).scale(Fraction(1, 2))
    assert half == w(1, (1,), 0) and type(half.terms[(0, (1,))]) is int
    assert w(1, (1,), 0, 3).scale(0).is_zero()
    with pytest.raises(ParseError):
        w(1, (1,), 0, True)


def test_scale_keeps_int_products_and_normalises_the_others():
    # an int times an int stays as it is; an int times a Fraction that comes
    # out integral is stored as its int, and a Poly passes through
    orig = w(2, (1, -1), 0, 3) + w(2, (0, 2), 1, -4) + w(2, (2, 0), 1, 6)
    half = orig.scale(Fraction(1, 2))
    assert {type(c) for c in half.terms.values()} == {Fraction, int}
    back = half.scale(2)
    assert back == orig and all(type(c) is int for c in back.terms.values())
    assert orig.scale(Fraction(0)).is_zero() and orig.scale(0) == WittElem.zero(2)
    (r1,) = Poly.variables("r", 1)
    assert w(1, (1,), 0, 3).scale(r1).terms == {(0, (1,)): 3 * r1}


# every constructor that takes an exponent tuple, at length 2
EXPONENT_CONSTRUCTORS = {
    "monomial": lambda r: LaurentPoly.monomial(2, r),
    "witt": lambda r: WittElem.basis(2, r, 0),
    "s_generator": lambda r: s_generator(2, 0, 1, r),
    "hamiltonian": lambda r: hamiltonian_field(1, r),
    "gl": lambda r: GlLaurent.basis(2, 0, 1, r),
    "v_tensor_a": lambda r: crosshom.rinehart.VTensorA.basis(2, 1, 0, r),
}
exponent_constructors = pytest.mark.parametrize("make", EXPONENT_CONSTRUCTORS.values(), ids=EXPONENT_CONSTRUCTORS)


@exponent_constructors
def test_exponents_keep_ints_and_store_integral_fractions_as_int(make):
    def leaves(key):
        return [x for part in key for x in (leaves(part) if type(part) is tuple else [part])]

    elem = make((Fraction(4, 2), -1))
    assert elem == make((2, -1)) and not elem.is_zero()
    assert all(type(x) is int for key in elem.terms for x in leaves(key))


@exponent_constructors
def test_exponents_pass_a_polynomial_through(make):
    r1, r2 = Poly.variables("r", 2)
    elem = make((r1 + 1, Fraction(-4, 2)))
    assert not elem.is_zero()
    exps = {r for _, r in elem.terms}
    assert exps == {(r1 + 1, -2)} and all(type(r[1]) is int for r in exps)
    # a polynomial that is constant finds the key of the plain number
    assert make((r1 - r1 + 2, r2 - r2 - 1)) == make((2, -1))


@exponent_constructors
def test_exponent_float_is_refused(make):
    with pytest.raises(ParseError, match="exponent 1.5 is not an integer"):
        make((1.5, 0))
    with pytest.raises(ParseError):
        make((2.0, 0))


@exponent_constructors
def test_exponent_non_integral_fraction_is_refused(make):
    with pytest.raises(ParseError):
        make((Fraction(1, 2), 0))


@exponent_constructors
def test_exponent_bool_is_refused(make):
    with pytest.raises(ParseError):
        make((True, 0))


@exponent_constructors
def test_exponent_string_is_refused(make):
    with pytest.raises(ParseError):
        make(("3", 0))


@exponent_constructors
def test_exponent_wrong_length_is_refused(make):
    with pytest.raises(DimensionMismatch, match="exponent length 3 != 2"):
        make((1, 2, 3))


WINDOW_BASES = {
    "full": witt_window_basis,
    "sdiv": sdiv_window_basis,
    "ham": ham_window_basis,
    "pq": witt_window_basis,
}


def reference_findings(family, n, window, p=None, q=None):
    """The crossed-hom check as a loop of its own in element arithmetic,
    recomputing H for every pair; the map is read from `crosshom.witt` at
    call time, so a patched map is checked."""
    if family == "pq":
        H = functools.partial(crosshom.witt.crossed_hom_pq, p, q)
    else:
        H = crosshom.witt.canonical_crossed_hom_W
    findings = []
    for a, b in itertools.combinations(WINDOW_BASES[family](n, window.bound), 2):
        rhs = a.apply(H(b)) - b.apply(H(a))
        if family != "pq":
            rhs = rhs + gl_bracket(H(a), H(b))
        res = H(witt_bracket(a, b)) - rhs
        if not res.is_zero():
            findings.append(Finding("crossed-hom", (str(a), str(b)), res))
    return findings


def squared_twist(p, q, w):
    """A map that is no crossed hom: x^r d_i |-> (p_i + q r_i^2) x^r."""
    out = LaurentPoly.zero(w.n)
    for (i, r), c in w.terms.items():
        mono = LaurentPoly.monomial(w.n, r, c)
        out = out + mono.poly_scale(p[i]) + mono.scale(rational(q) * r[i] ** 2)
    return out


@pytest.mark.parametrize("n, bound", [(1, 2), (2, 1)])
@pytest.mark.parametrize("q", [1, Fraction(-1, 2)])
@pytest.mark.parametrize("broken", [False, True])
def test_pq_single_loop_matches_reference(monkeypatch, n, bound, q, broken):
    if broken:
        monkeypatch.setattr(crosshom.witt, "crossed_hom_pq", squared_twist)
    p = [LaurentPoly.monomial(n, tuple(2 if k == i else 0 for k in range(n)), 3) for i in range(n)]
    got = verify_witt_crossed_hom(n, "pq", Window(bound), p=p, q=q)
    assert got == reference_findings("pq", n, Window(bound), p, q)
    assert bool(got) == broken


def test_pair_loop_makes_no_element_sums(monkeypatch):
    def refuse(*args):
        raise AssertionError("element arithmetic in the crossed-hom check")

    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(crosshom.witt.TensorElem, name, refuse)
    monkeypatch.setattr(WittElem, "apply", refuse)
    p = [LaurentPoly.monomial(2, (2, 0), 3), LaurentPoly.monomial(2, (0, 1), -1)]
    for family in ("full", "sdiv", "ham", "pq"):
        assert verify_witt_crossed_hom(2, family, Window(1), p=p, q=Fraction(1, 2)) == []


def transposed_canonical(e):
    """A map that is no crossed hom: x^r d_j |-> sum_i r_i E_ji (x) x^r."""
    out = GlLaurent.zero(e.n)
    for (j, r), c in e.terms.items():
        for i, ri in enumerate(r):
            out = out + GlLaurent.basis(e.n, j, i, r, c * ri)
    return out


BROKEN_CANONICAL = {
    "transposed": transposed_canonical,
    "doubled": lambda e: canonical_crossed_hom_W(e).scale(2),
}


@pytest.mark.parametrize("family, n, mutant_findings", [("full", 2, 108), ("sdiv", 2, 24), ("ham", 1, 24)])
@pytest.mark.parametrize("broken", [None, "transposed", "doubled"])
def test_canonical_single_loop_matches_reference(monkeypatch, family, n, mutant_findings, broken):
    if broken:
        monkeypatch.setattr(crosshom.witt, "canonical_crossed_hom_W", BROKEN_CANONICAL[broken])
    got = verify_witt_crossed_hom(n, family, Window(1))
    assert got == reference_findings(family, n, Window(1))
    assert all(type(f.residual) is GlLaurent for f in got)
    assert len(got) == (mutant_findings if broken else 0)


# --- gl_m (x) A and the canonical map against the dense loops ---

GOLDEN_RATIO = FinCommAlgebra(  # K[x]/(x^2 - x - 1)
    ("1", "x"),
    {(0, 0): (Fraction(1), Fraction(0)), (0, 1): (Fraction(0), Fraction(1)), (1, 1): (Fraction(1), Fraction(1))},
    (Fraction(1), Fraction(0)),
)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gl_tensor_algebra_matches_the_dense_loop(m):
    algebras = [truncated_polynomial_algebra(b) for b in ((1,), (3,), (2, 2), (2, 2, 2))]
    for A in algebras + [GOLDEN_RATIO]:
        h = gl_tensor_algebra(m, A)
        assert h == ref_gl_tensor_algebra(m, A)
        assert all(type(x) is Fraction for v in h.structure.values() for x in v)
    assert check_lie_algebra(gl_tensor_algebra(m, GOLDEN_RATIO)) == []


def test_block_diagonal_is_the_dense_block_matrix():
    rng = random.Random(16)
    for d, copies in ((0, 3), (1, 1), (3, 1), (3, 2), (4, 4)):
        values = (1, -2, Fraction(1, 2), Fraction(-3, 4))
        columns = [
            tuple((u, rng.choice(values)) for u in sorted(rng.sample(range(d), rng.randint(0, d))))
            for _ in range(d)
        ]
        M = [[dict(columns[t]).get(u, 0) for t in range(d)] for u in range(d)]
        n = copies * d
        rows = [[M[r % d][c % d] if r // d == c // d else 0 for c in range(n)] for r in range(n)]
        got = block_diagonal(columns, copies)
        assert got == Matrix.from_rows(rows)
        assert all(type(x) is Fraction for x in got.data)


@pytest.mark.parametrize("bounds", [(3,), (2, 2), (3, 2)], ids=str)
def test_canonical_matrix_is_the_dense_formula(bounds):
    # H[E_ij (x) a_u, a_s D_j] = D_i[u, s], read from dense derivations,
    # one of them not diagonal
    A = truncated_polynomial_algebra(bounds)
    deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
    if bounds == (3,):
        deltas = [X2_DX]
    m, dimA = len(deltas), A.dim
    H = generalized_witt_setup(A, deltas).H.matrix
    expected = [[Fraction(0)] * (m * dimA) for _ in range(m * m * dimA)]
    for i, j, u, s in itertools.product(range(m), range(m), range(dimA), range(dimA)):
        expected[(i * m + j) * dimA + u][j * dimA + s] = deltas[i].entry(u, s)
    assert H == Matrix.from_rows(expected)
    assert all(type(x) is Fraction for x in H.data)


def test_gl_algebra_is_the_matrix_unit_algebra():
    for n in range(1, 4):
        gl = gl_algebra(n)
        assert gl.basis_names == tuple(f"E{i + 1}{j + 1}" for i in range(n) for j in range(n))
        assert check_lie_algebra(gl) == []
        # each bracket is the commutator of dense matrix units, flattened row-major
        units = [
            Matrix.from_rows([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
            for i in range(n)
            for j in range(n)
        ]
        for a, b in itertools.combinations(range(n * n), 2):
            comm = units[a] * units[b] - units[b] * units[a]
            assert gl.structure.get((a, b), (Fraction(0),) * (n * n)) == comm.data
        assert all(type(x) is Fraction for v in gl.structure.values() for x in v)
        # gl_n (x) K over the one-dimensional K has gl_n's indices
        assert gl.structure == ref_gl_tensor_algebra(n, truncated_polynomial_algebra([1])).structure


@pytest.mark.parametrize("bounds", [(3,), (2, 2), (2, 3)], ids=str)
def test_canonical_gw_is_the_setup_map(bounds):
    A = truncated_polynomial_algebra(bounds)
    deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
    H = generalized_witt_setup(A, deltas).H
    rng = random.Random(len(bounds))
    for _ in range(5):
        x = random_fraction_vector(rng, len(deltas) * A.dim)
        assert canonical_crossed_hom_GW(A, deltas, x) == H.apply(x)


def test_canonical_gw_validates_delta_and_builds_no_setup(monkeypatch):
    A = truncated_polynomial_algebra([3])
    d = scaling_derivation([3], 0)
    with pytest.raises(NotDerivation):
        canonical_crossed_hom_GW(A, [SHIFT], (Fraction(1),))
    with pytest.raises(NotCommuting):
        canonical_crossed_hom_GW(A, [d, X2_DX], (Fraction(1),))
    with pytest.raises(DimensionMismatch, match="element has length 2, expected 3"):
        canonical_crossed_hom_GW(A, [d], (Fraction(1), Fraction(0)))

    def refuse(*args):
        raise AssertionError("g, h or rho was built")

    for name in ("action_structure", "gl_tensor_algebra", "block_diagonal"):
        monkeypatch.setattr(crosshom.witt, name, refuse)
    assert canonical_crossed_hom_GW(A, [d], (0, 0, 1)) == (Fraction(0), Fraction(0), Fraction(2))


# --- the symbolic pair check ------------------------------------------------


def cubic_defect(e):
    """A map that is no crossed hom: the canonical map plus
    r_1 (r_1 - 1)(r_1 + 1) E_11 (x) x^r on x^r d_j, which vanishes for
    |r_1| <= 1."""
    out = canonical_crossed_hom_W(e)
    for (j, r), c in e.terms.items():
        out = out + GlLaurent.basis(e.n, 0, 0, r, c * r[0] * (r[0] - 1) * (r[0] + 1))
    return out


def symbolic_pair_defects(n, family, H):
    """The shared pair-residual generator of the check on every ordered pair
    of symbolic kinds, the first with exponents r1.., the second with s1..."""
    kinds = ([(e, H(e)) for e in crosshom.witt._symbolic_basis(n, family, x)] for x in "rs")
    return crosshom.witt._crossed_hom_defects(H, itertools.product(*kinds), family == "pq")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_symbolic_residuals_of_the_paper_maps_vanish(n):
    p = [LaurentPoly.monomial(n, tuple(2 if k == i else 0 for k in range(n)), 3) for i in range(n)]
    H = {
        "full": canonical_crossed_hom_W,
        "sdiv": canonical_crossed_hom_W,
        "ham": canonical_crossed_hom_W,
        "pq": functools.partial(crossed_hom_pq, p, Fraction(-1, 2)),
    }
    for family, Hf in H.items():
        assert not any(symbolic_pair_defects(n, family, Hf)), family
    # on W_1 the transpose is the map itself, and 2H is a crossed hom into
    # the abelian gl_1 (x) A_1
    for broken in (cubic_defect, *BROKEN_CANONICAL.values()) if n > 1 else (cubic_defect,):
        assert any(symbolic_pair_defects(n, "full", broken))
    assert any(symbolic_pair_defects(n, "pq", functools.partial(squared_twist, p, 1)))


def test_planted_cubic_defect_is_missed_by_window_one_only(monkeypatch):
    # window 1 cannot see the defect: r_1 + s_1 stays in {-1, 0, 1} for two
    # distinct elements of W_1; the symbolic residual is nonzero, so the
    # window pairs are enumerated, and window 2 finds it
    monkeypatch.setattr(crosshom.witt, "canonical_crossed_hom_W", cubic_defect)
    assert any(symbolic_pair_defects(1, "full", cubic_defect))
    assert verify_witt_crossed_hom(1, "full", Window(1)) == reference_findings("full", 1, Window(1)) == []
    got = verify_witt_crossed_hom(1, "full", Window(2))
    assert got == reference_findings("full", 1, Window(2))
    assert len(got) == 4 and all(type(f.residual) is GlLaurent for f in got)


def pair_residual(H, a, b):
    """The terms of the shared generator's residual on the one pair (a, b),
    {} when it is zero."""
    pairs = [((a, H(a)), (b, H(b)))]
    return next((res.terms for *_, res in crosshom.witt._crossed_hom_defects(H, pairs, False)), {})


@pytest.mark.parametrize("family, n", [("full", 2), ("sdiv", 2), ("ham", 1)])
@pytest.mark.parametrize("H", [canonical_crossed_hom_W, *BROKEN_CANONICAL.values(), cubic_defect])
def test_each_window_residual_is_an_evaluation_of_a_symbolic_one(family, n, H):
    kinds_r = crosshom.witt._symbolic_basis(n, family, "r")
    kinds_s = crosshom.witt._symbolic_basis(n, family, "s")
    pairs = list(itertools.product(WINDOW_BASES[family](n, 2), repeat=2))
    for a, b in random.Random(7).sample(pairs, 60):
        ka, point_a = instance(kinds_r, a, "r")
        kb, point_b = instance(kinds_s, b, "s")
        sym = pair_residual(H, ka, kb)
        assert evaluated(sym, point_a | point_b) == pair_residual(H, a, b)


def symbolic_maps(n, family):
    """The paper's map of family, then every mutant of this file that the
    family can take: the gl-valued ones for full, sdiv and ham, the squared
    twist for pq (p_i = 3 x_i^2)."""
    if family == "pq":
        p = [LaurentPoly.monomial(n, tuple(2 if k == i else 0 for k in range(n)), 3) for i in range(n)]
        return [functools.partial(crossed_hom_pq, p, Fraction(-1, 2)), functools.partial(squared_twist, p, 1)]
    off_diagonal = [quadratic_off_diagonal] if n > 1 or family == "ham" else []
    return [canonical_crossed_hom_W, *BROKEN_CANONICAL.values(), cubic_defect, off_the_subalgebra, *off_diagonal]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", crosshom.witt.FAMILIES)
def test_symbolic_pair_residuals_are_antisymmetric(n, family):
    # why the check may take each unordered pair of kinds once: on symbolic
    # kinds, in either order, the Witt and gl brackets are antisymmetric, so
    # the residual of (b, a) is minus that of (a, b), whatever the linear H
    kinds = [crosshom.witt._symbolic_basis(n, family, x) for x in "rs"]
    abelian_target = family == "pq"
    for H in symbolic_maps(n, family):

        def residual(x, y):
            pairs = [((x, H(x)), (y, H(y)))]
            return next((res.terms for *_, res in crosshom.witt._crossed_hom_defects(H, pairs, abelian_target)), {})

        for a, b in itertools.product(*kinds):
            assert (witt_bracket(a, b) + witt_bracket(b, a)).is_zero()
            if not abelian_target:
                Ha, Hb = H(a), H(b)
                assert (gl_bracket(Ha, Hb) + gl_bracket(Hb, Ha)).is_zero()
            assert residual(b, a) == {k: -c for k, c in residual(a, b).items()}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", crosshom.witt.FAMILIES)
def test_unordered_kind_pairs_give_the_ordered_verdict(n, family):
    # the failing unordered kind pairs are the ordered ones with i > j
    # folded onto (j, i), for the paper's maps and every mutant
    for number, H in enumerate(symbolic_maps(n, family)):
        kinds = [[(e, H(e)) for e in crosshom.witt._symbolic_basis(n, family, x)] for x in "rs"]
        elems = [[e for e, _ in side] for side in kinds]

        def positions(a, b):
            return elems[0].index(a), elems[1].index(b)

        pairs = list(crosshom.witt._unordered_kind_pairs(*kinds))
        k = len(elems[0])
        assert [positions(a, b) for (a, _), (b, _) in pairs] == [(i, j) for i in range(k) for j in range(i, k)]
        ordered = {tuple(sorted(positions(a, b))) for a, b, _ in symbolic_pair_defects(n, family, H)}
        unordered = {positions(a, b) for a, b, _ in crosshom.witt._crossed_hom_defects(H, pairs, family == "pq")}
        assert ordered == unordered
        if number == 0:
            assert not unordered, "the paper's map"


@pytest.mark.parametrize("family, n, bound", [("full", 2, 2), ("sdiv", 3, 1), ("ham", 1, 2), ("ham", 2, 1)])
def test_each_window_basis_is_its_symbolic_kinds_at_the_window_exponents(family, n, bound):
    # the window order: x^r d_i with r major; each d_k once, then each kind
    # d_ij(r) at every window r; h(r) at every window r; zero elements
    # dropped.  The order of the findings, and so the golden bytes, rest on it
    kinds = crosshom.witt._symbolic_basis(n, family, "r")
    exponents = window_exponents(2 * n if family == "ham" else n, bound)
    points = [{f"r{k + 1}": e for k, e in enumerate(r)} for r in exponents]

    def symbolic(kind):
        return any(type(e) is Poly for _, r in kind.terms for e in r)

    if family == "full":
        expected = [evaluated(k.terms, point) for point in points for k in kinds]
    else:
        expected = [k.terms for k in kinds if not symbolic(k)]
        expected += [evaluated(k.terms, point) for k in kinds if symbolic(k) for point in points]
    basis = WINDOW_BASES[family](n, bound)
    assert [e.terms for e in basis] == [t for t in expected if t]
    for e in basis:
        kind, point = instance(kinds, e, "r")
        assert evaluated(kind.terms, point) == e.terms


def test_passing_checks_enumerate_no_window_pair(monkeypatch):
    # every bracket the check takes is of two symbolic kinds, once per
    # unordered pair (k (k + 1) / 2 of k kinds: the residual is
    # antisymmetric), and the landing conditions of sdiv and ham are decided
    # on the symbolic kinds too: no family builds a window element
    def refuse(*args):
        raise AssertionError("a window pair loop ran")

    brackets = []

    def counted(a, b):
        brackets.append((a, b))
        return witt_bracket(a, b)

    monkeypatch.setattr(crosshom.witt, "witt_bracket", counted)
    p = [LaurentPoly.monomial(3, tuple(int(k == i) for k in range(3)), 1) for i in range(3)]
    kinds = {"full": 3, "pq": 3, "sdiv": 3 + 3, "ham": 1}
    for family, n, bound in (("full", 3, 2), ("pq", 3, 2), ("sdiv", 3, 1), ("ham", 1, 2)):
        brackets.clear()
        with monkeypatch.context() as m:
            m.setattr(crosshom.witt, "window_exponents", refuse)
            if family in ("full", "pq"):
                # sdiv's kinds pair the directions with `combinations`
                no_pairs = types.SimpleNamespace(**{**vars(itertools), "combinations": refuse})
                m.setattr(crosshom.witt, "itertools", no_pairs)
            assert verify_witt_crossed_hom(n, family, Window(bound), p=p, q=Fraction(1, 2)) == []
        k = kinds[family]
        assert len(brackets) == k * (k + 1) // 2, family


def reference_landing(family, n, window):
    """The landing findings of sdiv and ham from the dense coefficient
    matrices: trace M for sl_n, M^T J + J M for sp_2n."""
    findings = []
    for e in WINDOW_BASES[family](n, window.bound):
        for r, M in coefficient_matrices(crosshom.witt.canonical_crossed_hom_W(e)).items():
            if family == "sdiv":
                defect = sum((M.entry(i, i) for i in range(M.rows)), Fraction(0))
                if defect:
                    findings.append(Finding("sl-landing", (str(e), crosshom.witt._exp_str(r)), defect))
            else:
                J = symplectic_form(n)
                defect = transpose(M) * J + J * M
                if not defect.is_zero():
                    findings.append(Finding("sp-landing", (str(e), crosshom.witt._exp_str(r)), defect))
    return findings


def off_the_subalgebra(e):
    """A map that is no crossed hom and leaves sl and sp: the canonical map
    plus r_1 E_11 (x) x^r on x^r d_j."""
    out = canonical_crossed_hom_W(e)
    for (j, r), c in e.terms.items():
        out = out + GlLaurent.basis(e.n, 0, 0, r, c * r[0])
    return out


def quadratic_off_diagonal(e):
    """The canonical map plus r_1^2 E_12 (x) x^r on x^r d_j: its trace stays
    zero."""
    out = canonical_crossed_hom_W(e)
    for (j, r), c in e.terms.items():
        out = out + GlLaurent.basis(e.n, 0, 1, r, c * r[0] ** 2)
    return out


@pytest.mark.parametrize("family, n", [("sdiv", 2), ("sdiv", 3), ("ham", 1), ("ham", 2)])
@pytest.mark.parametrize("H", [canonical_crossed_hom_W, off_the_subalgebra, quadratic_off_diagonal, *BROKEN_CANONICAL.values()])
def test_landing_findings_match_the_dense_coefficient_matrices(monkeypatch, family, n, H):
    # the landing conditions are decided on the symbolic kinds, and only a
    # nonzero symbolic defect enumerates the window, with the findings of the
    # dense loop
    monkeypatch.setattr(crosshom.witt, "canonical_crossed_hom_W", H)
    window = Window(1)
    landing = [f for f in verify_witt_crossed_hom(n, family, window) if f.rule != "crossed-hom"]
    expected = reference_landing(family, n, window)
    assert landing == expected
    for f in landing:
        residual = f.residual.data if f.rule == "sp-landing" else (f.residual,)
        assert all(type(x) is Fraction for x in residual)
    assert [f.to_json() for f in landing] == [f.to_json() for f in expected]
    kinds = crosshom.witt._symbolic_basis(n, family, "r")
    lands = not any(crosshom.witt._landing_defects(family, H(e)) for e in kinds)
    assert lands is (not expected)
    # E_12 has trace 0 and lies in sp_2 = sl_2, but not in sp_4
    assert bool(expected) is (H is off_the_subalgebra or (H, family, n) == (quadratic_off_diagonal, "ham", 2))


def test_each_window_landing_defect_is_an_evaluation_of_a_symbolic_one():
    for family, n in (("sdiv", 2), ("ham", 1)):
        kinds = crosshom.witt._symbolic_basis(n, family, "r")
        for e in WINDOW_BASES[family](n, 2):
            kind, point = instance(kinds, e, "r")
            sym = crosshom.witt._landing_defects(family, off_the_subalgebra(kind))
            got = crosshom.witt._landing_defects(family, off_the_subalgebra(e))
            summed: dict = {}
            for r, defect in sym.items():
                r = tuple(poly_at(x, point) for x in r)
                if family == "sdiv":
                    ref_add_term(summed, r, poly_at(defect, point))
                else:
                    acc = summed.setdefault(r, {})
                    for k, c in defect.items():
                        ref_add_term(acc, k, poly_at(c, point))
            assert {r: d for r, d in summed.items() if d} == got


# --- rendering elements with symbolic exponents ------------------------------


def test_sorted_terms_keep_the_integer_order():
    n = 2
    elems = [
        WittElem.basis(n, (1, -1), 1) + WittElem.basis(n, (-1, 2), 0, 3) + WittElem.basis(n, (0, 0), 0),
        GlLaurent.basis(n, 1, 0, (2, 0)) + GlLaurent.basis(n, 0, 1, (-2, 1), Fraction(-1, 2)),
        LaurentPoly.monomial(n, (1, 1)) + LaurentPoly.monomial(n, (-1, 1), -1) + LaurentPoly.monomial(n, (0, 0), 2),
    ]
    for e in elems:
        assert e.sorted_terms() == sorted(e.terms.items())
    assert str(elems[0]) == "3*x^(-1,2) d_1 + d_1 + x^(1,-1) d_2"


def test_sorted_terms_order_symbolic_exponents():
    r1, r2 = Poly.variables("r", 2)
    s1, s2 = Poly.variables("s", 2)
    a = WittElem.basis(2, (r1, 0), 0) + WittElem.basis(2, (s1, 0), 0)
    b = WittElem.basis(2, (s1, 0), 0) + WittElem.basis(2, (r1, 0), 0)
    assert str(a) == str(b) == "x^(r1,0) d_1 + x^(s1,0) d_1"
    # a number before any non-constant Poly, a constant Poly as its number
    c = WittElem.basis(2, (r1, 1), 1) + WittElem.basis(2, (2, s2), 1) + WittElem.basis(2, (r1 - r1 + 1, 0), 1)
    assert [r for (_, r), _ in c.sorted_terms()] == [(1, 0), (2, s2), (r1, 1)]
    # a coefficient with more than one term is bracketed
    d = witt_bracket(WittElem.basis(2, (r1, r2), 0), WittElem.basis(2, (s1, s2), 0))
    assert str(d) == "(-r1 + s1)*x^(r1 + s1,r2 + s2) d_1"
