"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances: equality of Fractions); each criterion
also carries the stated wall-clock budget.  Run with `pytest -v` to get one
line per criterion, or `-s` to see the timing summary lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from crosshom.cohomology import (
    _coboundary_tables,
    _induced_tables,
    _weight_zero_rows,
    _weights,
    ce_differential,
    check_linear_deformation,
    check_nijenhuis,
    cohomology_dims,
    differential_matrix,
    mc_residual,
    nijenhuis_grid,
    sign_relation_check,
    trivial_deformation_generator,
)
from crosshom.liealg import (
    CrossedHom,
    Setup,
    _induced_action_unchecked,
    abelian,
    adjoint_action,
    check_crossed_hom,
    sl2,
    solve_crossed_homs_grid,
    twist_iso_check,
    two_dim_nonabelian,
    zero_action,
)
from crosshom.linalg import Matrix, kernel_basis
from crosshom.rinehart import (
    LieRinehart,
    adjoint_rep_gl,
    boxplus_pullback,
    check_module_axiom_window,
    check_weak_compat_window,
    natural_rep,
    natural_rep_gl,
    shen_larsson_action,
    tensor_rep,
    trivial_rep,
    vtensor_window_basis,
)
from crosshom.witt import (
    Window,
    canonical_crossed_hom_W,
    generalized_witt_setup,
    hamiltonian_bracket_coefficient,
    hamiltonian_field,
    ham_window_basis,
    scaling_derivation,
    sdiv_window_basis,
    symplectic_form,
    truncated_polynomial_algebra,
    verify_witt_crossed_hom,
    window_exponents,
    witt_bracket,
    witt_window_basis,
)

from conftest import (
    action_library,
    bracket_basis,
    coefficient_matrices,
    dim2_setup,
    from_columns,
    full_complex_rows,
    heisenberg_setup,
    random_cochain,
    row_lists,
    sl2_setup,
    transpose,
)


def _stamp(num: int, label: str, t0: float, budget: float):
    elapsed = time.monotonic() - t0
    print(f"[criterion {num:02d}] {label}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def _grid_candidates():
    g = two_dim_nonabelian()
    rho = adjoint_action(g)
    for combo in itertools.product((-1, 0, 1), repeat=4):
        H = CrossedHom(Matrix.from_rows([[combo[0], combo[1]], [combo[2], combo[3]]]))
        yield Setup(g, g, rho, H)


def test_criterion_01_grid_classification():
    t0 = time.monotonic()
    g = two_dim_nonabelian()
    sols = solve_crossed_homs_grid(g, g, adjoint_action(g), [-1, 0, 1])
    assert len(sols) == 15
    found = set()
    for H in sols:
        m = H.matrix
        a11, a12 = m.entry(0, 0), m.entry(0, 1)
        a21, a22 = m.entry(1, 0), m.entry(1, 1)
        assert a21 == 0 and (1 + a11) * a22 == 0
        found.add((a11, a12, a21, a22))
    # and no others: enumerate the defining conditions independently
    expected = set()
    vals = [Fraction(v) for v in (-1, 0, 1)]
    for a11, a12, a21, a22 in itertools.product(vals, repeat=4):
        if a21 == 0 and (1 + a11) * a22 == 0:
            expected.add((a11, a12, a21, a22))
    assert found == expected
    _stamp(1, "two-dim grid classification (15 maps)", t0, 1.0)


def test_criterion_02_twist_map_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260809)
    triples = action_library()
    assert all(t[0].dim <= 4 and t[1].dim <= 4 for t in triples)
    checked = 0
    agreements = 0
    while checked < 120:
        g, h, rho = triples[rng.randrange(len(triples))]
        H = CrossedHom(
            Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2)) for _ in range(g.dim)] for _ in range(h.dim)]
            )
        )
        s = Setup(g, h, rho, H)
        assert twist_iso_check(s) == (check_crossed_hom(s) == [])
        checked += 1
    assert checked >= 100
    _stamp(2, "twist-map homomorphism == crossed-hom check (120 setups)", t0, 10.0)


def test_criterion_03_canonical_map_full_witt():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        assert verify_witt_crossed_hom(n, "full", Window(2)) == []
    _stamp(3, "canonical map verified on W_1, W_2, W_3 (window 2)", t0, 60.0)


def test_criterion_04_subalgebra_landings():
    t0 = time.monotonic()
    assert verify_witt_crossed_hom(2, "sdiv", Window(2)) == []
    for e in sdiv_window_basis(2, 2):
        for _, M in coefficient_matrices(canonical_crossed_hom_W(e)).items():
            assert sum((M.entry(i, i) for i in range(M.rows)), Fraction(0)) == 0
    assert verify_witt_crossed_hom(1, "ham", Window(2)) == []
    J = symplectic_form(1)
    for e in ham_window_basis(1, 2):
        for _, M in coefficient_matrices(canonical_crossed_hom_W(e)).items():
            assert (transpose(M) * J + J * M).is_zero()
    # the image of h((1,1)) is exactly the displayed quadratic matrix
    He = canonical_crossed_hom_W(hamiltonian_field(1, (1, 1)))
    assert coefficient_matrices(He) == {(1, 1): Matrix.from_rows([[1, -1], [1, -1]])}
    _stamp(4, "trace-zero and symplectic landings (window 2)", t0, 10.0)


def test_criterion_05_hamiltonian_bracket_formula():
    t0 = time.monotonic()
    n = 1
    for r in window_exponents(2 * n, 2):
        hr = hamiltonian_field(n, r)
        for s in window_exponents(2 * n, 2):
            hs = hamiltonian_field(n, s)
            coeff = hamiltonian_bracket_coefficient(n, r, s)
            t = tuple(a + b for a, b in zip(r, s))
            assert witt_bracket(hr, hs) == hamiltonian_field(n, t).scale(coeff)
    _stamp(5, "Hamiltonian bracket closure (window 2)", t0, 5.0)


def test_criterion_06_tensor_module_law():
    t0 = time.monotonic()
    reps = {"trivial": trivial_rep, "natural": natural_rep_gl, "adjoint": adjoint_rep_gl}
    for n in (1, 2):
        for name, build in reps.items():
            theta = build(n)
            action = shen_larsson_action(theta)
            elems = vtensor_window_basis(theta, n, 2)
            assert check_module_axiom_window(action, n, Window(2), elems) == [], (n, name)
            assert check_weak_compat_window(action, n, Window(2), elems) == [], (n, name)
    _stamp(6, "tensor-module law + weak compatibility (6 actions, window 2)", t0, 120.0)


def test_criterion_07_maurer_cartan_both_directions():
    t0 = time.monotonic()
    # every certified finite crossed homomorphism has vanishing residual
    certified = [s for s in _grid_candidates() if check_crossed_hom(s) == []]
    assert len(certified) == 15
    for s in certified:
        assert mc_residual(s).is_zero()
    for rows in ([[1, 2], [0, 0]], [[-1, 2], [0, 1]]):
        assert mc_residual(dim2_setup(rows)).is_zero()
    assert mc_residual(heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])).is_zero()
    for bounds, deltas in (
        ([4], [scaling_derivation([4], 0)]),
        ([2, 2], [scaling_derivation([2, 2], 0), scaling_derivation([2, 2], 1)]),
    ):
        s = generalized_witt_setup(truncated_polynomial_algebra(bounds), deltas)
        assert mc_residual(s).is_zero()
    # and the residual is nonzero on every rejected grid candidate
    rejected = [s for s in _grid_candidates() if check_crossed_hom(s) != []]
    assert len(rejected) == 81 - 15
    for s in rejected:
        assert not mc_residual(s).is_zero()
    _stamp(7, "Maurer-Cartan residual vanishes iff crossed homomorphism", t0, 30.0)


def test_criterion_08_coboundary_squares_and_sign_relation():
    t0 = time.monotonic()
    rng = random.Random(8)
    setups = [sl2_setup(), dim2_setup([[-1, 2], [0, 1]]), dim2_setup([[2, -1], [0, 0]])]
    checked = 0
    for s in setups:
        for k in range(4):
            for _ in range(6):
                f = random_cochain(rng, k, s.g.dim, s.h.dim)
                assert ce_differential(s, ce_differential(s, f)).is_zero()
                assert sign_relation_check(s, f)
                checked += 1
    assert checked >= 50
    _stamp(8, f"d2 = 0 and the sign relation ({checked} random cochains)", t0, 30.0)


def test_criterion_09_cohomology_dimensions():
    t0 = time.monotonic()
    # (a) one-dimensional abelian setup with zero action
    g1 = abelian(("a",))
    s1 = Setup(g1, g1, zero_action(g1, g1), CrossedHom(Matrix.zero(1, 1)))
    assert cohomology_dims(s1, 1).dims_H() == [1, 1]
    # (b) sl2 adjoint: both dimensions vanish
    s = sl2_setup()
    assert cohomology_dims(s, 1).dims_H() == [0, 0]
    # independent oracle for (b): H^0 is the center (joint kernel of ad),
    # H^1 is derivations modulo inner derivations.
    g = sl2()
    stacked = Matrix.from_rows(
        [row for i in range(3) for row in row_lists(g.ad(g.basis_vector(i)))]
    )
    center_dim = len(kernel_basis(stacked))
    assert center_dim == 0
    rows = []
    for i, j in itertools.combinations(range(3), 2):
        w = bracket_basis(g, i, j)
        for k in range(3):
            row = [Fraction(0)] * 9
            for tt, c in enumerate(w):
                row[k * 3 + tt] += c
            for tt in range(3):
                row[tt * 3 + i] -= g.bracket(g.basis_vector(tt), g.basis_vector(j))[k]
                row[tt * 3 + j] -= g.bracket(g.basis_vector(i), g.basis_vector(tt))[k]
            rows.append(row)
    der_dim = len(kernel_basis(Matrix.from_rows(rows)))
    inner_dim = 3 - center_dim
    assert der_dim - inner_dim == 0
    _stamp(9, "cohomology dimensions with independent oracle", t0, 10.0)


def _nijenhuis_inventory():
    """(setup, element) pairs the Nijenhuis criteria certify."""
    inventory = []
    sh = heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    for combo in itertools.product((-1, 0, 1), repeat=3):
        inventory.append((sh, tuple(Fraction(c) for c in combo)))
    s2 = dim2_setup([[-1, 2], [0, 1]])
    inventory.append((s2, (Fraction(1), Fraction(1))))
    return inventory


def test_criterion_10_nijenhuis_suite():
    t0 = time.monotonic()
    sh = heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert check_crossed_hom(sh) == []
    assert len(nijenhuis_grid(sh, [-1, 0, 1])) == 27
    s2 = dim2_setup([[-1, 2], [0, 1]])
    assert check_nijenhuis(s2, (Fraction(1), Fraction(1))) == []
    ssl = sl2_setup()
    failures = 0
    for combo in itertools.product((-1, 0, 1), repeat=3):
        if combo == (0, 0, 0):
            continue
        findings = check_nijenhuis(ssl, tuple(Fraction(c) for c in combo))
        if any(f.rule == "Nij1" for f in findings):
            failures += 1
    assert failures == 26
    _stamp(10, "Nijenhuis suite (nilpotent / solvable / semisimple)", t0, 10.0)


def test_criterion_11_trivial_deformations():
    t0 = time.monotonic()
    for s, x in _nijenhuis_inventory():
        frk = trivial_deformation_generator(s, x)
        assert check_linear_deformation(s, frk) == []
    _stamp(11, "trivial deformation generator certified for all witnesses", t0, 10.0)


def test_criterion_12_functor_coherence_shadow():
    t0 = time.monotonic()
    # finite model: A = dual numbers, L = Der(A) = span{x d/dx}
    A = truncated_polynomial_algebra([2])
    L = abelian(("D",))
    lr = LieRinehart(
        A,
        L,
        (Matrix.identity(1), Matrix.zero(1, 1)),
        (Matrix.from_rows([[0, 0], [0, 1]]),),
    )
    mod, rho = natural_rep(lr)
    n, dimA = 2, 2
    col = [Fraction(0)] * (n * n * dimA)
    col[(0 * n + 1) * dimA + 0] = Fraction(1)  # E_12 (x) 1
    col[(0 * n + 0) * dimA + 1] = Fraction(1)  # E_11 (x) x
    H = from_columns([tuple(col)])
    V = natural_rep_gl(n)
    flat, _ = boxplus_pullback(lr, tensor_rep(V, V), mod, rho, H)
    inner_mats, inner_mod = boxplus_pullback(lr, V, mod, rho, H)
    nested, _ = boxplus_pullback(lr, V, inner_mod, inner_mats, H)
    assert all((a - b).is_zero() for a, b in zip(flat, nested))
    unit_mats, _ = boxplus_pullback(lr, trivial_rep(n), mod, rho, H)
    assert all((u - r).is_zero() for u, r in zip(unit_mats, rho))
    _stamp(12, "tensor regrouping coherence and unit case", t0, 10.0)


_P = 2**61 - 1


def _rank_mod_p(m: Matrix) -> int:
    """Rank over GF(2^61 - 1) of a dense matrix; see `_rank_mod_p_rows`."""
    return _rank_mod_p_rows({j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows))


def _rank_mod_p_rows(rows) -> int:
    """Rank over GF(2^61 - 1) of sparse rows {column: Fraction}, an oracle
    independent of the Fraction eliminator: rows are inserted one at a time
    into a basis keyed by leading column."""
    basis: dict[int, dict[int, int]] = {}
    for r in rows:
        row = {j: x.numerator * pow(x.denominator, -1, _P) % _P for j, x in r.items()}
        while row:
            lead = min(row)
            b = basis.get(lead)
            if b is None:
                inv = pow(row[lead], -1, _P)
                basis[lead] = {j: v * inv % _P for j, v in row.items()}
                break
            f = row[lead]
            for j, v in b.items():
                w = (row.get(j, 0) - f * v) % _P
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(basis)


def test_criterion_13_generalized_witt_second_cohomology():
    t0 = time.monotonic()
    for bounds, dims_H in (([2, 2], [1, 9, 17]), ([3, 2], [1, 5, 17])):
        deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
        s = generalized_witt_setup(truncated_polynomial_algebra(bounds), deltas)
        report = cohomology_dims(s, 2)
        assert report.dims_H() == dims_H
        for d in report.degrees:
            assert d.dim_C - d.dim_Z == _rank_mod_p(differential_matrix(s, d.k))
    _stamp(13, "generalized Witt [2,2] and [3,2] through H^2, ranks checked mod 2^61-1", t0, 60.0)


def test_criterion_14_larger_generalized_witt_second_cohomology():
    t0 = time.monotonic()
    for bounds, dims_H in (([3, 3], [1, 5, 29]), ([2, 2, 2], [1, 7, 84])):
        deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
        s = generalized_witt_setup(truncated_polynomial_algebra(bounds), deltas)
        report = cohomology_dims(s, 2)
        assert report.dims_H() == dims_H
        tables = _coboundary_tables(_induced_action_unchecked(s))
        for d in report.degrees:
            rows = full_complex_rows(tables, s.g.dim, s.h.dim, d.k)
            assert d.dim_C - d.dim_Z == _rank_mod_p_rows(rows.values())
    _stamp(14, "generalized Witt [3,3] and [2,2,2] through H^2, ranks checked mod 2^61-1", t0, 60.0)


def test_criterion_15_generalized_witt_cohomology_by_weight_spaces():
    t0 = time.monotonic()
    cases = (
        ([3, 3], 3, [1, 5, 29, 47]),
        ([2, 2, 2], 3, [1, 7, 84, 223]),
        ([2, 2], 8, [1, 9, 17, 11, 2, 0, 0, 0, 0]),
        ([3, 3], 18, [1, 5, 29, 47, 22] + [0] * 14),
    )
    for bounds, k_max, dims_H in cases:
        deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
        s = generalized_witt_setup(truncated_polynomial_algebra(bounds), deltas)
        report = cohomology_dims(s, k_max)
        assert report.dims_H() == dims_H
        # the weight-0 block is ranked mod 2^61-1; the blocks of nonzero
        # weight are exact, so their rank is the alternating sum of their sizes
        tables = _induced_tables(s)
        weights = _weights(s, tables)
        nonzero_rank = 0
        for d in report.degrees:
            rows, weight_zero = _weight_zero_rows(tables, weights, d.k)
            nonzero_rank = d.dim_C - weight_zero - nonzero_rank
            assert d.dim_C - d.dim_Z == _rank_mod_p_rows(rows.values()) + nonzero_rank
    _stamp(15, "generalized Witt [3,3] and [2,2,2] through H^3, [2,2] and [3,3] in every degree", t0, 60.0)


def test_criterion_16_symbolic_pair_check_past_the_window_loops():
    # each pair type is checked once with symbolic exponents, so windows whose
    # pair loops would take about a minute pass in well under a second
    t0 = time.monotonic()
    assert math.comb(len(witt_window_basis(3, 4)), 2) == 2_390_391
    assert verify_witt_crossed_hom(3, "full", Window(4)) == []
    assert verify_witt_crossed_hom(3, "sdiv", Window(3)) == []
    assert verify_witt_crossed_hom(2, "ham", Window(2)) == []
    _stamp(16, "full n=3 window 4, sdiv n=3 window 3, ham n=2 window 2", t0, 5.0)


def test_criterion_17_symbolic_shen_larsson_checks_past_the_window_loops():
    # the built-in action's module axiom and weak compatibility are decided
    # once per kind with symbolic exponents, so windows whose loops take
    # seconds pass at once; each stays inside the identity guards
    t0 = time.monotonic()
    reps = (trivial_rep, natural_rep_gl, adjoint_rep_gl)
    for n, bound in ((2, 2), (3, 1)):
        for build in reps:
            theta = build(n)
            action = shen_larsson_action(theta)
            elems = vtensor_window_basis(theta, n, bound)
            assert check_module_axiom_window(action, n, Window(bound), elems) == [], (n, build)
            assert check_weak_compat_window(action, n, Window(bound), elems) == [], (n, build)
    _stamp(17, "module law + weak compatibility, 3 reps at n=2 window 2 and n=3 window 1", t0, 5.0)


def test_criterion_18_enumerated_window_checks_of_a_caller_action():
    # a caller's action is never decided symbolically: the doubled natural
    # action is enumerated over window 2, each (actor key, module key) image
    # asked for once; this times the window loop that criterion 06 skips
    t0 = time.monotonic()
    theta = natural_rep_gl(2)
    action, elems = shen_larsson_action(theta), vtensor_window_basis(theta, 2, 2)
    calls = []

    def doubled(w, t):
        calls.append(None)
        return action(w, t).scale(2)

    runs = ((check_module_axiom_window, 13_700, 50_444), (check_weak_compat_window, 8_100, 50_000))
    for check, images, findings in runs:
        calls.clear()
        assert len(check(doubled, 2, Window(2), elems)) == findings
        assert len(calls) == images
    _stamp(18, "module law + weak compatibility of the doubled natural action, n=2 window 2", t0, 6.0)
