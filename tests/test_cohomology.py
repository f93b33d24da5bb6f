import inspect
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from crosshom.cohomology import (
    _trivial_generator,
    Cochain,
    _cells,
    _coboundary_tables,
    _induced_tables,
    _weight_zero_rows,
    _weights,
    ce_differential,
    check_deformation_equivalence,
    check_linear_deformation,
    check_nijenhuis,
    cochain_add,
    cochain_map_phi,
    cochain_scale,
    cohomology_dims,
    derived_bracket,
    differential_matrix,
    eval_basis,
    mc_residual,
    nijenhuis_grid,
    plain_differential,
    sign_relation_check,
    trivial_deformation_generator,
    zero_cochain,
)
import crosshom.cohomology
import crosshom.liealg
import crosshom.linalg
from crosshom import formats
from crosshom.errors import DimensionMismatch, NotCrossedHom, NotNijenhuis, SearchSpaceTooLarge
from crosshom.liealg import (
    CrossedHom,
    LieAction,
    Setup,
    _induced_action_unchecked,
    abelian,
    adjoint_action,
    check_crossed_hom,
    check_hom_pair,
    crossed_hom_residual,
    induced_action,
    lie_algebra,
    sl2,
    zero_action,
)
from crosshom.linalg import (
    Matrix,
    invert,
    is_zero_vector,
    kernel_basis,
    rank,
)

from conftest import (
    FIXTURES,
    bracket_basis,
    cochain,
    dim2_setup,
    from_columns,
    full_complex_rows,
    generalized_witt_bounds,
    heisenberg_setup,
    kernel_setups,
    nijenhuis_setups,
    random_cochain,
    random_fraction_vector,
    ref_check_deformation_equivalence,
    ref_check_linear_deformation,
    ref_cohomology_dims,
    ref_nijenhuis_findings,
    ref_twisted_images,
    row_lists,
    sl2_setup,
    vadd,
    vscale,
    vsub,
    vzero,
)


def frac(v):
    return tuple(Fraction(c) for c in v)


def test_plain_differential_degree_zero_sign():
    # (du)(x) = -rho(x) u
    g = sl2()
    rho = adjoint_action(g)
    u = cochain(0, 3, 3, {(): (1, 0, 0)})
    du = plain_differential(rho, u)
    for i in range(3):
        expected = tuple(-c for c in g.bracket(g.basis_vector(i), g.basis_vector(0)))
        assert eval_basis(du, (i,)) == expected


def test_plain_differential_vanishes_abelian_zero_action():
    g = abelian(("a", "b"))
    rho = zero_action(g, g)
    rng = random.Random(1)
    for k in range(3):
        f = random_cochain(rng, k, 2, 2)
        assert plain_differential(rho, f).is_zero()


def test_plain_differential_squares_to_zero():
    rng = random.Random(2)
    rho = adjoint_action(sl2())
    for k in range(4):
        for _ in range(12):
            f = random_cochain(rng, k, 3, 3)
            assert plain_differential(rho, plain_differential(rho, f)).is_zero()


def _gather_differential(rho, f):
    """Reference: the gather form of the plain differential, in which every
    (k+1)-set S collects its action and bracket terms from f."""
    g, h = rho.source, rho.target
    m = f.degree
    values = {}
    for S in itertools.combinations(range(g.dim), m + 1):
        total = vzero(h.dim)
        for pos in range(m + 1):
            v = eval_basis(f, S[:pos] + S[pos + 1 :])
            if not is_zero_vector(v):
                term = rho.matrices[S[pos]].apply(v)
                total = vadd(total, term) if (m + pos + 1) % 2 == 0 else vsub(total, term)
        for pi, pj in itertools.combinations(range(m + 1), 2):
            w = bracket_basis(g, S[pi], S[pj])
            rest = tuple(S[t] for t in range(m + 1) if t not in (pi, pj))
            term = vzero(h.dim)
            for t, c in enumerate(w):
                if c:
                    term = vadd(term, vscale(c, eval_basis(f, (t,) + rest)))
            total = vadd(total, term) if (m + pi + pj + 1) % 2 == 0 else vsub(total, term)
        if not is_zero_vector(total):
            values[S] = total
    return cochain(m + 1, g.dim, h.dim, values)


def _sparse_random_cochain(rng, k, g_dim, h_dim):
    keys = list(itertools.combinations(range(g_dim), k))
    values = {}
    for T in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
        v = [Fraction(0)] * h_dim
        for u in rng.sample(range(h_dim), rng.randint(1, min(h_dim, 3))):
            v[u] = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        values[T] = tuple(v)
    return cochain(k, g_dim, h_dim, values)


def test_scatter_differential_matches_gather_reference():
    setups = [formats.load_file(str(p)) for p in sorted(FIXTURES.glob("*.setup.json"))]
    setups += [generalized_witt_bounds(b) for b in ((3,), (4,), (2, 2))]
    rng = random.Random(30)
    compared = 0
    for s in setups:
        actions = [s.rho] + ([induced_action(s)] if not check_crossed_hom(s) else [])
        for rho in actions:
            for k in range(4):
                if k > s.g.dim:
                    continue
                for make in (random_cochain, _sparse_random_cochain, _sparse_random_cochain):
                    f = make(rng, k, s.g.dim, s.h.dim)
                    assert plain_differential(rho, f) == _gather_differential(rho, f)
                    compared += 1
    assert len(setups) >= 10
    assert compared >= 160


def test_unit_images_match_gather_reference():
    # `_cells` under the trivial weights lists the image of every unit cochain
    # (T, u), T lexicographic and u ascending; each is checked against the
    # gather form under rho_H, on every cell up to 128 per degree and on a
    # seeded sample of 12 beyond that (the gather walk of one generalized
    # Witt [3,2] cell in degree 3 takes about 0.3 s)
    rng = random.Random(32)
    compared = 0
    for s in kernel_setups():
        if check_crossed_hom(s):
            continue
        g_dim, h_dim = s.g.dim, s.h.dim
        rho, tables = induced_action(s), _induced_tables(s)
        for k in range(min(g_dim, 3) + 1):
            cells = [(T, u) for T in itertools.combinations(range(g_dim), k) for u in range(h_dim)]
            images = list(_cells(tables, ([()] * g_dim, [()] * h_dim), k))
            assert len(images) == len(cells)
            picked = range(len(cells)) if len(cells) <= 128 else rng.sample(range(len(cells)), 12)
            for p in picked:
                T, u = cells[p]
                unit = cochain(k, g_dim, h_dim, {T: tuple(Fraction(w == u) for w in range(h_dim))})
                expected = _gather_differential(rho, unit).values
                assert images[p] == {(S, w): c for S, v in expected.items() for w, c in v.items()}
                compared += 1
    assert compared >= 300


def test_differential_matrix_is_the_coboundary():
    rng = random.Random(31)
    setups = [sl2_setup(), dim2_setup([[-1, 2], [0, 1]])]
    setups += [generalized_witt_bounds(b) for b in ((3,), (4,))]
    for s in setups:
        g_dim = s.g.dim

        def coordinates(f):
            keys = itertools.combinations(range(g_dim), f.degree)
            return tuple(x for T in keys for x in eval_basis(f, T))

        for k in range(3):
            f = random_cochain(rng, k, g_dim, s.h.dim)
            assert differential_matrix(s, k).apply(coordinates(f)) == coordinates(
                ce_differential(s, f)
            )


def test_differential_matrix_entries_are_fractions():
    for s in (sl2_setup(), _non_integral_setup(), generalized_witt_bounds((2, 2))):
        for k in range(s.g.dim):
            d = differential_matrix(s, k)
            assert all(type(x) is Fraction for x in d.data)
            assert not d.is_zero()


def test_differential_matrix_shapes_at_the_top_and_below_zero():
    # d_k maps C^k to C^(k+1): 0 rows from the top degree on, 0 x 0 above it
    s = sl2_setup()
    g_dim, h_dim = s.g.dim, s.h.dim
    for k, shape in ((g_dim, (0, h_dim)), (g_dim + 1, (0, 0))):
        assert differential_matrix(s, k) == Matrix.zero(*shape)
    for k in (-1, -3):
        with pytest.raises(DimensionMismatch, match=f"the top cohomology degree must be >= 0, got {k}"):
            differential_matrix(s, k)
        with pytest.raises(DimensionMismatch, match=f"the top cohomology degree must be >= 0, got {k}"):
            cohomology_dims(s, k)


def test_differential_matrices_compose_to_zero():
    s = generalized_witt_bounds((2, 2))
    for k in (0, 1):
        d_k, d_next = differential_matrix(s, k), differential_matrix(s, k + 1)
        assert (d_next * d_k).is_zero()


def test_derived_bracket_degree_zero():
    # on degree-0 elements the bracket is the negated algebra bracket
    g = sl2()
    rng = random.Random(3)
    for _ in range(10):
        u = frac([rng.randint(-2, 2) for _ in range(3)])
        v = frac([rng.randint(-2, 2) for _ in range(3)])
        cu = cochain(0, 3, 3, {(): u})
        cv = cochain(0, 3, 3, {(): v})
        br = derived_bracket(g, cu, cv)
        assert eval_basis(br, ()) == tuple(-c for c in g.bracket(u, v))


def test_derived_bracket_vanishes_abelian():
    h = abelian(("a", "b", "c"))
    rng = random.Random(4)
    for m, n in [(0, 1), (1, 1), (1, 2)]:
        f1 = random_cochain(rng, m, 3, 3)
        f2 = random_cochain(rng, n, 3, 3)
        assert derived_bracket(h, f1, f2).is_zero()


def test_derived_bracket_graded_antisymmetry():
    g = sl2()
    rng = random.Random(5)
    for m, n in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (0, 2)]:
        for _ in range(6):
            f1 = random_cochain(rng, m, 3, 3)
            f2 = random_cochain(rng, n, 3, 3)
            lhs = derived_bracket(g, f1, f2)
            sign = Fraction(-1) if (m * n) % 2 == 0 else Fraction(1)
            rhs = cochain_scale(sign, derived_bracket(g, f2, f1))
            assert lhs == rhs


def test_derived_bracket_graded_jacobi():
    g = sl2()
    rng = random.Random(6)
    for da, db, dc in [(0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2), (0, 1, 2)]:
        for _ in range(5):
            a = random_cochain(rng, da, 3, 3)
            b = random_cochain(rng, db, 3, 3)
            c = random_cochain(rng, dc, 3, 3)
            lhs = derived_bracket(g, a, derived_bracket(g, b, c))
            rhs = cochain_add(
                derived_bracket(g, derived_bracket(g, a, b), c),
                cochain_scale(
                    Fraction((-1) ** (da * db)), derived_bracket(g, b, derived_bracket(g, a, c))
                ),
            )
            assert lhs == rhs


def _normal(x) -> bool:
    """Whether x is a cochain coordinate in normal form: an int, or a Fraction
    that is not integral; never a bool or a float, never zero."""
    return x != 0 and (type(x) is int or type(x) is Fraction and x.denominator > 1)


def _walk_derived_bracket(h, f1, f2):
    """Reference: the bracket as a walk over every (m+n)-set S and every
    (m, n)-shuffle of S, with dense evaluation."""
    m, n = f1.degree, f2.degree
    global_sign = -1 if (m * n + 1) % 2 else 1
    values = {}
    for S in itertools.combinations(range(f1.g_dim), m + n):
        total = vzero(h.dim)
        for positions in itertools.combinations(range(m + n), m):
            complement = tuple(t for t in range(m + n) if t not in positions)
            inversions = sum(1 for a in positions for b in complement if b < a)
            v1 = eval_basis(f1, tuple(S[t] for t in positions))
            v2 = eval_basis(f2, tuple(S[t] for t in complement))
            if is_zero_vector(v1) or is_zero_vector(v2):
                continue
            term = h.bracket(v1, v2)
            total = vsub(total, term) if inversions % 2 else vadd(total, term)
        if global_sign == -1:
            total = vscale(Fraction(-1), total)
        if not is_zero_vector(total):
            values[S] = total
    return cochain(m + n, f1.g_dim, h.dim, values)


def test_derived_bracket_matches_the_shuffle_walk():
    rng = random.Random(61)
    compared = nonzero = 0
    for s in kernel_setups():
        g_dim, h_dim = s.g.dim, s.h.dim
        top = min(g_dim, 4 if g_dim <= 8 else 3)  # the walk is slow on large g
        for m, n in itertools.product(range(4), repeat=2):
            if m + n > top:
                continue
            for make in (random_cochain, _sparse_random_cochain):
                f1 = make(rng, m, g_dim, h_dim)
                f2 = make(rng, n, g_dim, h_dim)
                got = derived_bracket(s.h, f1, f2)
                expected = _walk_derived_bracket(s.h, f1, f2)
                assert got.values == expected.values
                assert list(got.values) == sorted(got.values)
                assert all(_normal(x) for v in got.values.values() for x in v.values())
                compared += 1
                nonzero += bool(expected.values)
    assert compared >= 140 and nonzero >= 100, (compared, nonzero)


def test_mc_residual_zero_iff_crossed_hom():
    cases = [
        (dim2_setup([[1, 2], [0, 0]]), True),
        (dim2_setup([[-1, 2], [0, 1]]), True),
        (dim2_setup([[0, 0], [1, 0]]), False),
        (dim2_setup([[0, 0], [0, 0]]), True),
        (sl2_setup(), True),
    ]
    for s, valid in cases:
        assert mc_residual(s).is_zero() == valid
        assert (check_crossed_hom(s) == []) == valid


def test_mc_residual_matches_pairwise_residual_up_to_sign():
    s = dim2_setup([[0, 0], [1, 0]])
    res = mc_residual(s)
    assert eval_basis(res, (0, 1)) == tuple(-c for c in crossed_hom_residual(s, 0, 1))


def test_ce_differential_degree_zero():
    # (d u)(x) = rho(x) u + [Hx, u]
    s = dim2_setup([[-1, 2], [0, 1]])
    u = frac((1, -1))
    cu = cochain(0, 2, 2, {(): u})
    du = ce_differential(s, cu)
    for i in range(2):
        expected = tuple(
            a + b
            for a, b in zip(
                s.rho.matrices[i].apply(u), s.g.bracket(s.H.column(i), u)
            )
        )
        assert eval_basis(du, (i,)) == expected


def test_ce_differential_h_zero_is_plain_up_to_sign():
    # with H = 0 the twisted coboundary and the action-only differential agree
    # up to the degree sign (-1)^(k-1)
    s = sl2_setup()
    rng = random.Random(7)
    for k in range(4):
        f = random_cochain(rng, k, 3, 3)
        lhs = ce_differential(s, f)
        rhs = plain_differential(s.rho, f)
        if (k - 1) % 2:
            rhs = cochain_scale(Fraction(-1), rhs)
        assert lhs == rhs


def test_ce_differential_squares_to_zero():
    rng = random.Random(8)
    for s in (sl2_setup(), dim2_setup([[-1, 2], [0, 1]])):
        for k in range(3):
            for _ in range(10):
                f = random_cochain(rng, k, s.g.dim, s.h.dim)
                assert ce_differential(s, ce_differential(s, f)).is_zero()


def test_ce_differential_requires_crossed_hom():
    s = dim2_setup([[0, 0], [1, 0]])
    with pytest.raises(NotCrossedHom):
        ce_differential(s, zero_cochain(1, 2, 2))


def test_sign_relation():
    rng = random.Random(9)
    for s in (sl2_setup(), dim2_setup([[-1, 2], [0, 1]]), dim2_setup([[3, 1], [0, 0]])):
        for k in range(4):
            for _ in range(8):
                f = random_cochain(rng, k, s.g.dim, s.h.dim)
                assert sign_relation_check(s, f)


def test_cohomology_trivial_line():
    g = abelian(("a",))
    s = Setup(g, g, zero_action(g, g), CrossedHom(Matrix.zero(1, 1)))
    rep = cohomology_dims(s, 1)
    assert rep.dims_H() == [1, 1]


def test_cohomology_rejects_negative_degree():
    with pytest.raises(DimensionMismatch):
        cohomology_dims(sl2_setup(), -1)


def test_cohomology_sl2_whitehead():
    rep = cohomology_dims(sl2_setup(), 2)
    assert rep.dims_H() == [0, 0, 0]


def test_cohomology_sl2_independent_oracle():
    # H^0: the center, computed as the joint kernel of all ad matrices.
    g = sl2()
    stacked = Matrix.from_rows(
        [row for i in range(3) for row in row_lists(g.ad(g.basis_vector(i)))]
    )
    assert len(kernel_basis(stacked)) == 0
    # H^1 = Der / Inner: derivations D satisfy D[x,y] = [Dx,y] + [x,Dy]; solve
    # the linear system in the 9 entries of D.
    rows = []
    for i, j in itertools.combinations(range(3), 2):
        w = bracket_basis(g, i, j)
        for k in range(3):
            row = [Fraction(0)] * 9
            # D[e_i,e_j]_k = sum_t w_t D[k][t]
            for t, c in enumerate(w):
                row[k * 3 + t] += c
            # -[De_i, e_j]_k = -sum_t D[t][i] [e_t, e_j]_k
            for t in range(3):
                bt = g.bracket(g.basis_vector(t), g.basis_vector(j))
                row[t * 3 + i] -= bt[k]
            for t in range(3):
                bt = g.bracket(g.basis_vector(i), g.basis_vector(t))
                row[t * 3 + j] -= bt[k]
            rows.append(row)
    system = Matrix.from_rows(rows)
    dim_der = len(kernel_basis(system))
    # inner derivations: image of ad, dimension 3 - dim center = 3
    dim_inner = 3 - 0
    assert dim_der - dim_inner == 0


def test_cohomology_heisenberg_center():
    rep = cohomology_dims(heisenberg_setup(), 1)
    # invariants of the adjoint action = the center, which is spanned by z
    assert rep.degrees[0].dim_H == 1


def test_cohomology_dims_builds_rho_H_once_and_no_dense_matrix(monkeypatch):
    setups = [sl2_setup(), heisenberg_setup(), generalized_witt_bounds((2, 2))]
    expected = [[rank(differential_matrix(s, k)) for k in range(4)] for s in setups]
    builds = []
    real = crosshom.cohomology._induced_tables

    def counted(s):
        builds.append(s)
        return real(s)

    def refuse(*args):
        raise AssertionError("a dense matrix was formed")

    real_cells = crosshom.cohomology._cells

    def weight_zero_cells(tables, weights, k):
        if set(weights[0] + weights[1]) == {()}:
            raise AssertionError("the full complex was assembled")
        return real_cells(tables, weights, k)

    monkeypatch.setattr(crosshom.cohomology, "_induced_tables", counted)
    monkeypatch.setattr(crosshom.liealg, "_induced_action_unchecked", refuse)
    monkeypatch.setattr(crosshom.cohomology, "differential_matrix", refuse)
    monkeypatch.setattr(crosshom.cohomology, "_cells", weight_zero_cells)
    monkeypatch.setattr(crosshom.linalg, "_sparse_rows", refuse)
    for s, ranks in zip(setups, expected):
        w_g, w_h = _setup_weights(s)
        assert set(w_g + w_h) != {()}
        for k_max in range(4):
            builds.clear()
            rep = cohomology_dims(s, k_max)
            assert len(builds) == 1
            assert [d.dim_C - d.dim_Z for d in rep.degrees] == ranks[: k_max + 1]


def _non_integral_setup() -> Setup:
    """g = h abelian of dim 2, rho(e1) = diag(1/2, 0), rho(e2) = diag(0, 1/3), H = 0."""
    g = abelian(("e1", "e2"))
    rho = LieAction(
        g,
        g,
        (
            Matrix.from_rows([[Fraction(1, 2), 0], [0, 0]]),
            Matrix.from_rows([[0, 0], [0, Fraction(1, 3)]]),
        ),
    )
    return Setup(g, g, rho, CrossedHom(Matrix.zero(2, 2)))


def test_induced_tables_match_the_dense_rho_H():
    setups = kernel_setups() + [_non_integral_setup(), sl2_setup([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])]
    for s in setups:
        columns, by_target = _induced_tables(s)
        dense_columns, dense_by_target = _coboundary_tables(_induced_action_unchecked(s))
        assert [tuple(c) for c in columns] == [tuple(c) for c in dense_columns]
        assert by_target == dense_by_target
        entries = [x for c in columns for col in c for _, x in col]
        entries += [x for t in by_target for _, _, x in t]
        for x in entries:
            assert x != 0
            assert type(x) is (int if x.denominator == 1 else Fraction)


def test_cohomology_dims_with_non_integral_rho_H():
    # rho_H = rho has entries 1/2 and 1/3, so the elimination meets non-unit
    # pivots and divides into Fractions
    s = _non_integral_setup()
    columns, _ = _induced_tables(s)
    assert {type(x) for c in columns for col in c for _, x in col} == {Fraction}
    rep = cohomology_dims(s, 2)
    assert [d.dim_C - d.dim_Z for d in rep.degrees] == [
        rank(differential_matrix(s, k)) for k in range(3)
    ]
    # both weights are nonzero characters of the abelian g: no cohomology
    assert rep.dims_H() == [0, 0, 0]


def test_cohomology_dims_guards_the_cochain_count(monkeypatch):
    s = generalized_witt_bounds((2, 2, 2))

    def refuse(*args):
        raise AssertionError("a coboundary was assembled")

    monkeypatch.setattr(crosshom.cohomology, "_cells", refuse)
    t0 = time.monotonic()
    with pytest.raises(SearchSpaceTooLarge, match="^24919488 "):
        cohomology_dims(s, 6)  # C^7 has C(24, 7) * 72 = 24,919,488 coordinates
    assert time.monotonic() - t0 < 1.0


def _setup_weights(s: Setup):
    return _weights(s, _induced_tables(s))


def _cell_weight(weights, T, u) -> tuple:
    """w(u) - sum of w(e_t), t in T, for the unit cochain (T, u)."""
    w_g, w_h = weights
    return tuple(x - sum(w_g[t][i] for t in T) for i, x in enumerate(w_h[u]))


def test_cohomology_dims_matches_the_full_complex():
    cases = [(s, 3) for s in kernel_setups()]
    cases += [(generalized_witt_bounds((2, 2)), 8), (generalized_witt_bounds((3, 2)), 3)]
    for s, k_max in cases:
        if check_crossed_hom(s):
            with pytest.raises(NotCrossedHom):
                cohomology_dims(s, k_max)
            continue
        assert cohomology_dims(s, k_max) == ref_cohomology_dims(s, k_max)
    # the generalized Witt complexes split by the weights of both D_j
    for bounds in ((2, 2), (3, 2)):
        w_g, w_h = _setup_weights(generalized_witt_bounds(bounds))
        assert {len(w) for w in w_g + w_h} == {2}


def test_no_assembled_row_mixes_weights():
    setups = [s for s in kernel_setups() if not check_crossed_hom(s)]
    for s in setups + [_non_integral_setup(), sl2_setup()]:
        g_dim, h_dim = s.g.dim, s.h.dim
        tables = _induced_tables(s)
        weights = _weights(s, tables)
        for k in range(4):
            cells = [(T, u) for T in itertools.combinations(range(g_dim), k) for u in range(h_dim)]
            targets = [(S, w) for S in itertools.combinations(range(g_dim), k + 1) for w in range(h_dim)]
            for r, row in full_complex_rows(tables, g_dim, h_dim, k).items():
                assert {_cell_weight(weights, *cells[c]) for c in row} == {_cell_weight(weights, *targets[r])}
            rows, columns = _weight_zero_rows(tables, weights, k)
            assert columns == sum(not any(_cell_weight(weights, *c)) for c in cells)
            assert not any(any(_cell_weight(weights, S, w)) for S, w in rows)


def _rebased(s: Setup, i: int, j: int) -> Setup:
    """s with the g-basis vector e_i replaced by e_i + e_j, i != j."""
    n = s.g.dim
    B = Matrix(n, n, tuple(Fraction(r == c or (r, c) == (j, i)) for r in range(n) for c in range(n)))
    inv, cols = invert(B), [B.col(p) for p in range(n)]
    g = lie_algebra(
        s.g.basis_names,
        {(p, q): inv.apply(s.g.bracket(cols[p], cols[q])) for p, q in itertools.combinations(range(n), 2)},
    )
    return Setup(g, s.h, LieAction(g, s.h, tuple(s.rho.of(c) for c in cols)), CrossedHom(s.H.matrix * B))


def test_a_perturbed_diagonal_element_is_not_used_for_the_split():
    # rho(d) sends e_b to e_a: ad(d) is diagonal on g, rho(d) is not on h
    g, h = abelian(("d",)), abelian(("a", "b"))
    jordan = Setup(g, h, LieAction(g, h, (Matrix.from_rows([[1, 1], [0, 0]]),)), CrossedHom(Matrix.zero(2, 1)))
    # 1*D1 + x2*D1 in place of 1*D1: no basis element of g scales the others
    gw = generalized_witt_bounds((2, 2))
    shifted = _rebased(gw, 0, 1)
    assert check_crossed_hom(shifted) == []
    # e2 acts diagonally on g and h, but rho(e1) = 1 does not shift the weight
    # of h by the weight -1 of e1 (rho is not an action)
    fixture = formats.load_file(str(FIXTURES / "nonderivation_bad.setup.json"))
    for s, k_max in ((jordan, 1), (shifted, 3), (fixture, 2)):
        w_g, w_h = _setup_weights(s)
        assert set(w_g + w_h) == {()}
        assert cohomology_dims(s, k_max) == ref_cohomology_dims(s, k_max)
    assert cohomology_dims(jordan, 1).dims_H() == [1, 1]
    assert cohomology_dims(shifted, 3) == cohomology_dims(gw, 3)


def test_cohomology_degrees_above_dim_g_are_empty():
    rep = cohomology_dims(sl2_setup(), 20000)
    assert len(rep.degrees) == 20001
    assert rep.dims_H()[:4] == [0, 0, 0, 0]
    assert all(d.dim_C == d.dim_Z == d.dim_B == 0 for d in rep.degrees[4:])


def test_cohomology_internal_consistency():
    for s in (sl2_setup(), dim2_setup([[-1, 2], [0, 1]]), heisenberg_setup()):
        rep = cohomology_dims(s, 3)
        for d in rep.degrees:
            assert d.dim_H >= 0
            assert d.dim_Z + rank(differential_matrix(s, d.k)) == d.dim_C


def _coordinates(*cochains) -> list:
    return [x for f in cochains for v in f.values.values() for x in v.values()]


def test_cochain_coordinates_on_integral_setups_are_ints():
    # H of [2,2] with one entry moved, and an integral H of sl2 that is not a
    # crossed homomorphism, give nonzero Maurer-Cartan residuals; the
    # operations on random integral cochains stay in int arithmetic
    gw = generalized_witt_bounds((2, 2))
    data = list(gw.H.matrix.data)
    data[next(k for k, x in enumerate(data) if x)] += 1
    broken = [
        Setup(gw.g, gw.h, gw.rho, CrossedHom(Matrix(gw.H.matrix.rows, gw.H.matrix.cols, tuple(data)))),
        sl2_setup([[0, 1, 0], [0, 0, 2], [1, 0, 0]]),
    ]
    rng = random.Random(140)
    for s in broken:
        assert check_crossed_hom(s)
        got = _coordinates(mc_residual(s))
        assert got and all(type(x) is int for x in got)
    for s in (gw, sl2_setup()):
        for k in range(3):
            f1 = random_cochain(rng, k, s.g.dim, s.h.dim)
            f2 = random_cochain(rng, 1, s.g.dim, s.h.dim)
            outputs = (
                plain_differential(s.rho, f1),
                ce_differential(s, f1),
                derived_bracket(s.h, f1, f2),
                cochain_add(f1, cochain_scale(Fraction(1, 2), cochain_scale(2, f1))),
            )
            got = _coordinates(*outputs)
            assert got and all(type(x) is int for x in got)


def test_cochain_coordinates_are_fractions_only_where_not_integral():
    # rho(e1) = diag(1/2, 0), rho(e2) = diag(0, 1/3): the differentials of
    # integral cochains halve and third some coordinates and not others
    s = _non_integral_setup()
    rng = random.Random(141)
    seen = Counter()
    for _ in range(20):
        for k in range(3):
            f = random_cochain(rng, k, 2, 2)
            for x in _coordinates(plain_differential(s.rho, f), ce_differential(s, f)):
                assert _normal(x)
                seen[type(x)] += 1
    assert seen[int] and seen[Fraction]


@pytest.mark.parametrize(
    "values, message",
    [
        ({(0,): {}}, "is empty"),
        ({(0,): {1: 0}}, "zero or inexact coordinate"),
        ({(0,): {0: 1, 1: Fraction(0)}}, "zero or inexact coordinate"),
        ({(0,): {2: 1}}, "index outside h"),
        ({(0,): {-1: 1}}, "index outside h"),
        ({(0,): {0: 0.5}}, "zero or inexact coordinate"),
        ({(0,): {0: True}}, "zero or inexact coordinate"),
    ],
    ids=["empty-value", "zero-int", "zero-fraction", "index-past-h", "negative-index", "float", "bool"],
)
def test_cochain_rejects_a_value_outside_the_format(values, message):
    with pytest.raises(DimensionMismatch, match=message):
        Cochain(1, 2, 2, values)


def test_cochain_equality_is_exact():
    assert Cochain(1, 2, 2, {(0,): {1: 2}}) == Cochain(1, 2, 2, {(0,): {1: Fraction(2)}})
    assert Cochain(1, 2, 2, {(0,): {1: 2}}) != Cochain(1, 2, 2, {(0,): {1: 2}, (1,): {0: 1}})
    assert Cochain(1, 2, 2, {}) != Cochain(2, 2, 2, {})
    # the field equality of the value base is the equality of cochains: no
    # hand-written __eq__
    assert "def __eq__" not in inspect.getsource(Cochain)


def test_cochain_map_identity():
    rng = random.Random(10)
    for k in range(3):
        f = random_cochain(rng, k, 3, 3)
        assert cochain_map_phi(Matrix.identity(3), Matrix.identity(3), f) == f


def test_cochain_map_degree_zero():
    f = cochain(0, 2, 2, {(): (1, 2)})
    phi_h = Matrix.from_rows([[2, 0], [1, 1]])
    got = cochain_map_phi(Matrix.identity(2), phi_h, f)
    assert eval_basis(got, ()) == phi_h.apply(frac((1, 2)))


def _leibniz_det(rows) -> Fraction:
    """The sum over permutations p of sign(p) * prod_i rows[i][p(i)]."""
    total = Fraction(0)
    for p in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        total += (-1) ** inversions * math.prod(r[c] for r, c in zip(rows, p))
    return total


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = Matrix(n, n, tuple(Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(n * n)))
        if rank(m) == n:
            return m


def test_cochain_map_matches_a_leibniz_determinant_oracle():
    # on a 4-dimensional g, in every degree, against
    # f(phi_g^-1 e_T) = sum_S det(phi_g^-1 at rows S, columns T) f(e_S)
    rng = random.Random(32)
    g_dim, h_dim = 4, 3
    for _ in range(3):
        phi_g, phi_h = (_random_invertible(rng, d) for d in (g_dim, h_dim))
        inv = invert(phi_g)
        for k in range(g_dim + 1):
            f = random_cochain(rng, k, g_dim, h_dim)
            expected = {}
            for T in itertools.combinations(range(g_dim), k):
                value = [Fraction(0)] * h_dim
                for S in f.values:
                    d = _leibniz_det([[inv.col(t)[s] for t in T] for s in S])
                    for u, c in enumerate(eval_basis(f, S)):
                        value[u] += d * c
                image = phi_h.apply(tuple(value))
                if any(image):
                    expected[T] = image
            got = cochain_map_phi(phi_g, phi_h, f)
            assert {T: eval_basis(got, T) for T in got.values} == expected
            assert expected or not f.values


def test_cochain_map_intertwines_at_nijenhuis_witness():
    # (phi_g, phi_h) = (Id + t ad_x, Id + t rho(x)) at a Nijenhuis x gives a
    # homomorphism pair; transport must intertwine the two coboundaries.
    s = dim2_setup([[-1, 2], [0, 1]])
    x = frac((1, 1))
    assert check_nijenhuis(s, x) == []
    rng = random.Random(11)
    g = s.g
    for t in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
        phi_g = Matrix.identity(2) + g.ad(x).scale(t)
        phi_h = Matrix.identity(2) + s.rho.of(x).scale(t)
        H_tilde = CrossedHom(s.H.matrix + trivial_deformation_generator(s, x).scale(t))
        assert check_hom_pair(s.rho, s.H, H_tilde, phi_g, phi_h) == []
        s_tilde = Setup(s.g, s.h, s.rho, H_tilde)
        assert check_crossed_hom(s_tilde) == []
        for k in range(3):
            f = random_cochain(rng, k, 2, 2)
            lhs = cochain_map_phi(phi_g, phi_h, ce_differential(s_tilde, f))
            rhs = ce_differential(s, cochain_map_phi(phi_g, phi_h, f))
            assert lhs == rhs


def test_linear_deformation_zero_direction():
    s = dim2_setup([[-1, 2], [0, 1]])
    assert check_linear_deformation(s, Matrix.zero(2, 2)) == []


def test_linear_deformation_abelian_target_any_cocycle():
    # h abelian: condition two is vacuous, any 1-cocycle works; coboundaries
    # of the twisted differential are cocycles.
    g = sl2()
    h = abelian(("a", "b", "c"))
    rho = LieAction(g, h, adjoint_action(g).matrices)  # sl2 acting on 3-dim space
    s = Setup(g, h, rho, CrossedHom(Matrix.zero(3, 3)))
    assert check_crossed_hom(s) == []
    for u in ((1, 0, 0), (2, -1, 3)):
        cu = cochain(0, 3, 3, {(): u})
        frk = from_columns(
            [eval_basis(ce_differential(s, cu), (i,)) for i in range(3)]
        )
        assert check_linear_deformation(s, frk) == []


def test_linear_deformation_violation_detected():
    s = dim2_setup([[0, 0], [0, 0]])
    # frkH = [[0,0],[1,0]] adds the forbidden a21 entry
    findings = check_linear_deformation(s, Matrix.from_rows([[0, 0], [1, 0]]))
    assert findings != []


def test_linear_deformation_matches_grid_classification():
    # H + t frk must satisfy a21 = 0 and (1 + a11 + t f11)(a22 + t f22) = 0 for
    # all t; cross-check the checker against direct substitution at sample t.
    rng = random.Random(12)
    s = dim2_setup([[-1, 2], [0, 1]])
    for _ in range(40):
        frk = Matrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        )
        ok = check_linear_deformation(s, frk) == []
        direct = all(
            check_crossed_hom(
                Setup(s.g, s.h, s.rho, CrossedHom(s.H.matrix + frk.scale(t)))
            )
            == []
            for t in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3), Fraction(7))
        )
        # five sample values of t decide a quadratic identity in t exactly
        assert ok == direct


def test_nijenhuis_heisenberg_everything():
    s = heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert check_crossed_hom(s) == []
    passing = nijenhuis_grid(s, [-1, 0, 1])
    assert len(passing) == 27


def test_nijenhuis_two_dim_case_ii():
    s = dim2_setup([[-1, 2], [0, 1]])
    assert check_nijenhuis(s, frac((1, 1))) == []
    # classification: t1 e1 + t2 e2 works iff t2 (t2 a12 - t1 a22 - t1) = 0
    for t1 in range(-2, 3):
        for t2 in range(-2, 3):
            expected = t2 * (2 * t2 - t1 - t1) == 0
            got = check_nijenhuis(s, frac((t1, t2))) == []
            assert got == expected


def test_nijenhuis_two_dim_case_i():
    # case a22 = 0: every t1 e1 is a Nijenhuis element
    s = dim2_setup([[3, 2], [0, 0]])
    for t1 in range(-2, 3):
        assert check_nijenhuis(s, frac((t1, 0))) == []


def test_nijenhuis_sl2_all_fail_nij1():
    s = sl2_setup()
    for combo in itertools.product((-1, 0, 1), repeat=3):
        if combo == (0, 0, 0):
            continue
        findings = check_nijenhuis(s, frac(combo))
        assert any(f.rule == "Nij1" for f in findings)


def test_nijenhuis_sl2_specific_counterexample():
    s = sl2_setup()
    findings = check_nijenhuis(s, frac((1, 0, 0)))
    hit = [f for f in findings if f.rule == "Nij1" and f.site == ("f", "h")]
    assert hit and hit[0].residual == frac((-4, 0, 0))


def test_trivial_generator_zero_element():
    s = dim2_setup([[-1, 2], [0, 1]])
    assert trivial_deformation_generator(s, frac((0, 0))).is_zero()


def test_trivial_generator_rejects_non_nijenhuis():
    s = sl2_setup()
    with pytest.raises(NotNijenhuis):
        trivial_deformation_generator(s, frac((1, 0, 0)))


def test_trivial_generator_heisenberg():
    s = heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    for combo in itertools.product((-1, 0, 1), repeat=3):
        frk = trivial_deformation_generator(s, frac(combo))
        assert check_linear_deformation(s, frk) == []


def test_trivial_generator_formula():
    # column i must be -rho(e_i)(Hx) - [He_i, Hx]
    s = heisenberg_setup([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    x = frac((1, -1, 1))
    frk = trivial_deformation_generator(s, x)
    Hx = s.H.apply(x)
    for i in range(3):
        expected = tuple(
            -(a + b)
            for a, b in zip(
                s.rho.matrices[i].apply(Hx), s.g.bracket(s.H.column(i), Hx)
            )
        )
        assert frk.col(i) == expected


def test_deformation_equivalence_shadow():
    # frk2 - frk1 = coboundary of -Hx, and the homomorphism pair holds at
    # finite t; the difference of equivalent generators is exact.
    s = dim2_setup([[-1, 2], [0, 1]])
    x = frac((1, 1))
    frk2 = trivial_deformation_generator(s, x)
    frk1 = Matrix.zero(2, 2)
    assert check_deformation_equivalence(s, frk1, frk2, x) == []


def test_deformation_equivalence_detects_mismatch():
    s = dim2_setup([[-1, 2], [0, 1]])
    x = frac((1, 1))
    frk2 = Matrix.from_rows([[1, 0], [0, 0]])
    findings = check_deformation_equivalence(s, Matrix.zero(2, 2), frk2, x)
    assert any(f.rule == "deforiso-1" for f in findings)


def _random_element(rng: random.Random, n: int) -> tuple:
    return tuple(Fraction(rng.choice((-2, -1, 0, 0, 1, 2, Fraction(1, 2)))) for _ in range(n))


def _random_map(rng: random.Random, rows: int, cols: int) -> Matrix:
    return from_columns([random_fraction_vector(rng, rows) for _ in range(cols)])


def _same_findings(got, expected):
    assert got == expected
    assert [(f.rule, f.site, f.residual_str()) for f in got] == [
        (f.rule, f.site, f.residual_str()) for f in expected
    ]


def test_nijenhuis_findings_match_the_dense_oracle():
    rng = random.Random(131)
    seen = Counter()
    for s in nijenhuis_setups():
        for _ in range(40):
            x = _random_element(rng, s.g.dim)
            got = check_nijenhuis(s, x)
            _same_findings(got, ref_nijenhuis_findings(s, x))
            seen.update(f.rule for f in got)
    assert all(seen[rule] >= 10 for rule in ("Nij1", "Nij2", "Nij3", "Nij4")), seen


def test_trivial_generator_is_the_coboundary_of_minus_Hx():
    rng = random.Random(132)
    for s in nijenhuis_setups():
        tables = _induced_tables(s)
        for _ in range(30):
            x = _random_element(rng, s.g.dim)
            got = _trivial_generator(s, tables, x)
            assert got == -ref_twisted_images(s, x)
            assert all(type(c) is Fraction for c in got.data)


def test_nijenhuis_grid_matches_the_dense_oracle():
    """Every setup but generalized Witt [2,2], whose grid 0,1 is a golden CLI row."""
    grid = (-1, 0, 1)
    for s in nijenhuis_setups()[:-1]:
        candidates = itertools.product(map(Fraction, grid), repeat=s.g.dim)
        expected = [x for x in candidates if not ref_nijenhuis_findings(s, x)]
        assert nijenhuis_grid(s, grid) == expected
        for x in expected:
            frk = trivial_deformation_generator(s, x)
            assert frk == -ref_twisted_images(s, x)
            assert check_linear_deformation(s, frk) == []


def test_nijenhuis_grid_builds_the_tables_once(monkeypatch):
    s = generalized_witt_bounds((3,))
    builds = []
    real = crosshom.cohomology._induced_tables

    def counted(s):
        builds.append(s)
        return real(s)

    monkeypatch.setattr(crosshom.cohomology, "_induced_tables", counted)
    assert len(nijenhuis_grid(s, [-1, 0, Fraction(1, 2), 1])) == 4
    assert len(builds) == 1


def test_linear_deformation_matches_the_dense_oracle():
    rng = random.Random(133)
    seen = Counter()
    for s in nijenhuis_setups():
        for _ in range(30):
            frk = _random_map(rng, s.h.dim, s.g.dim)
            got = check_linear_deformation(s, frk)
            _same_findings(got, ref_check_linear_deformation(s, frk))
            seen.update(f.rule for f in got)
    assert seen["deformation-cocycle"] >= 10 and seen["deformation-commute"] >= 10, seen


def test_deformation_equivalence_matches_the_dense_oracle():
    rng = random.Random(134)
    seen = Counter()
    for s in nijenhuis_setups():
        for round_ in range(30):
            x = _random_element(rng, s.g.dim)
            frk1 = _random_map(rng, s.h.dim, s.g.dim)
            if round_ % 3:
                frk2 = _random_map(rng, s.h.dim, s.g.dim)
            else:  # the exact difference, so that deforiso-1 holds
                frk2 = frk1 - ref_twisted_images(s, x)
            got = check_deformation_equivalence(s, frk1, frk2, x)
            _same_findings(got, ref_check_deformation_equivalence(s, frk1, frk2, x))
            seen.update(f.rule for f in got)
    rules = ("deforiso-1", "deforiso-2", "Nij1", "Nij2", "Nij3")
    assert all(seen[rule] >= 10 for rule in rules), seen


def test_nijenhuis_and_deformation_findings_are_pinned():
    """Exact reports, recorded before the conditions were rewritten on the
    cohomology engine; no golden CLI row reaches these rules."""
    ii = formats.load_file(str(FIXTURES / "dim2_case_ii.setup.json"))
    sl = formats.load_file(str(FIXTURES / "sl2_adjoint.setup.json"))
    gw3 = generalized_witt_bounds((3,))
    half = Fraction(1, 2)

    def strs(findings):
        return [str(f) for f in findings]

    assert strs(check_nijenhuis(ii, (half, Fraction(1)))) == ["Nij4 at (e2): residual (1, 0)"]
    assert strs(check_nijenhuis(gw3, frac((1, 0, half)))) == [
        "Nij3 at (x*D1): residual [0, 0, 0; 0, 0, 0; 0, 1, 0]",
        "Nij4 at (1*D1): residual (0, 0, 4)",
    ]
    assert trivial_deformation_generator(gw3, frac((0, 0, -half))).render_rows() == [
        ["0", "0", "0"],
        ["0", "0", "0"],
        ["2", "0", "0"],
    ]
    assert strs(check_linear_deformation(ii, Matrix.from_rows([[1, half], [2, 0]]))) == [
        "deformation-cocycle at (e1, e2): residual (-3, -2)",
        "deformation-commute at (e1, e2): residual (-1, 0)",
    ]
    frk = Matrix.from_rows([[1, 0, half], [0, 2, 0], [Fraction(-1, 3), 0, 1]])
    assert strs(check_linear_deformation(sl, frk)) == [
        "deformation-cocycle at (e, f): residual (-1/2, 2/3, 2)",
        "deformation-cocycle at (e, h): residual (-2, 0, -2/3)",
        "deformation-cocycle at (f, h): residual (0, 2, -1/2)",
        "deformation-commute at (e, f): residual (0, 4/3, 2)",
        "deformation-commute at (e, h): residual (-7/3, 0, 0)",
        "deformation-commute at (f, h): residual (0, 4, -1)",
    ]
    frk1 = Matrix.from_rows([[0, 1], [half, 0]])
    frk2 = Matrix.from_rows([[1, 0], [0, Fraction(-2, 3)]])
    assert strs(check_deformation_equivalence(ii, frk1, frk2, (half, Fraction(1)))) == [
        "deforiso-1 at (frkH2 - frkH1): residual [1, -2; -1/2, -2/3]",
        "deforiso-2 at (e1): residual (1, -1/2)",
        "deforiso-2 at (e2): residual (1/3, 1/4)",
    ]
    assert strs(check_deformation_equivalence(sl, frk, Matrix.identity(3), frac((1, 0, -half)))) == [
        "deforiso-1 at (frkH2 - frkH1): residual [0, 0, -1/2; 0, -1, 0; 1/3, 0, 0]",
        "deforiso-2 at (e): residual (0, 0, 1/3)",
        "deforiso-2 at (f): residual (1/2, 1, 0)",
        "deforiso-2 at (h): residual (0, 0, 2/3)",
        "Nij1 at (e, f): residual (2, 0, -1)",
        "Nij1 at (f, h): residual (-4, 0, 2)",
        "Nij2 at (e, f): residual (2, 0, -1)",
        "Nij2 at (f, h): residual (-4, 0, 2)",
        "Nij3 at (e): residual [0, 2, 0; 0, 0, 0; 0, -1, 0]",
        "Nij3 at (f): residual [-2, 0, -4; 0, 0, 0; 1, 0, 2]",
        "Nij3 at (h): residual [0, 4, 0; 0, 0, 0; 0, -2, 0]",
    ]
