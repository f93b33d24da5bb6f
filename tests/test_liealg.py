import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from crosshom import formats
from crosshom.errors import DimensionMismatch, NotAction, NotCrossedHom, ParseError, SearchSpaceTooLarge
from crosshom.liealg import (
    CrossedHom,
    FinLieAlgebra,
    LieAction,
    Setup,
    abelian,
    adjoint_action,
    check_action,
    check_crossed_hom,
    check_hom_pair,
    check_lie_algebra,
    crossed_hom_residual,
    derivation_violations,
    heisenberg,
    induced_action,
    iota_graph_is_homomorphism,
    is_lie_homomorphism,
    lie_algebra,
    semidirect,
    sl2,
    solve_crossed_homs_grid,
    twist_iso_check,
    two_dim_nonabelian,
    zero_action,
)
from crosshom.liealg import _graph, _semidirect_structure
from crosshom.linalg import Matrix
from crosshom.report import Finding
from crosshom.witt import FinCommAlgebra

from conftest import (
    FIXTURES,
    action_library,
    bracket_basis,
    dim2_setup,
    from_columns,
    generalized_witt_bounds,
    heisenberg_setup,
    kernel_setups,
    random_fraction_vector,
    ref_apply,
    ref_bracket,
    ref_multiply,
    sl2_setup,
    vadd,
    vscale,
    vsub,
    vzero,
)


def test_bracket_two_dim():
    g = two_dim_nonabelian()
    e1, e2 = g.basis_vector(0), g.basis_vector(1)
    assert g.bracket(e1, e2) == e1


def test_bracket_antisymmetric_diagonal():
    g = sl2()
    rng = random.Random(2)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert g.bracket(x, x) == vzero(3)


def test_bracket_sl2_relation():
    g = sl2()
    e, f, h = (g.basis_vector(i) for i in range(3))
    assert g.bracket(e, f) == h
    assert g.bracket(h, e) == tuple(2 * c for c in e)
    assert g.bracket(h, f) == tuple(-2 * c for c in f)


def test_bracket_dimension_mismatch():
    g = sl2()
    with pytest.raises(DimensionMismatch):
        g.bracket((Fraction(1),), g.basis_vector(0))


def test_check_lie_algebra_valid():
    assert check_lie_algebra(sl2()) == []
    assert check_lie_algebra(heisenberg()) == []


def test_check_lie_algebra_violation():
    # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=0: the Jacobi sum equals e3.
    bad = lie_algebra(
        ("e1", "e2", "e3"),
        {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)},
    )
    findings = check_lie_algebra(bad)
    assert len(findings) == 1
    f = findings[0]
    assert f.site == ("e1", "e2", "e3")
    # hand expansion: [e1,[e2,e3]] + [e2,[e3,e1]] + [e3,[e1,e2]] = 0 + [e2,-e1] + 0 = e3
    assert f.residual == (Fraction(0), Fraction(0), Fraction(1))


def test_check_action_adjoint():
    assert check_action(adjoint_action(sl2())) == []
    assert check_action(adjoint_action(heisenberg())) == []


def test_check_action_zero():
    assert check_action(zero_action(two_dim_nonabelian(), sl2())) == []


def test_check_action_identity_fails_on_nonabelian():
    # id[u,v] != [id u, v] + [u, id v] whenever [u,v] != 0
    h = two_dim_nonabelian()
    g = abelian(("d",))
    rho = LieAction(g, h, (Matrix.identity(2),))
    findings = check_action(rho)
    assert any(f.rule == "derivation" for f in findings)


def test_check_crossed_hom_family():
    # row form [[a11, a12], [a21, a22]]; valid iff a21 = 0 and (1+a11)a22 = 0
    for a11, a12 in [(0, 0), (1, 2), (-3, 5)]:
        s = dim2_setup([[a11, a12], [0, 0]])
        assert check_crossed_hom(s) == []
    s = dim2_setup([[-1, 7], [0, 4]])
    assert check_crossed_hom(s) == []


def test_check_crossed_hom_violation_site():
    s = dim2_setup([[0, 0], [1, 0]])
    findings = check_crossed_hom(s)
    assert len(findings) == 1
    assert findings[0].site == ("e1", "e2")


def test_zero_action_crossed_homs_are_homomorphisms():
    # with rho = 0 the identity reduces to H[x,y] = [Hx, Hy]
    g = sl2()
    rho = zero_action(g, g)
    s = Setup(g, g, rho, CrossedHom(Matrix.identity(3)))
    assert check_crossed_hom(s) == []
    # a non-homomorphism map fails
    bad = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert check_crossed_hom(Setup(g, g, rho, CrossedHom(bad)))


def test_induced_action_h_zero():
    g = sl2()
    s = Setup(g, g, adjoint_action(g), CrossedHom(Matrix.zero(3, 3)))
    ind = induced_action(s)
    assert all(a == b for a, b in zip(ind.matrices, s.rho.matrices))


def test_induced_action_abelian_h():
    g = two_dim_nonabelian()
    h = abelian(("a1", "a2"))
    rho = zero_action(g, h)
    H = CrossedHom(Matrix.from_rows([[1, 2], [3, 4]]))
    s = Setup(g, h, rho, H)
    # abelian h: every linear map into h with rho = 0 must be... only if it kills brackets
    # H[e1,e2] = H(e1) = (1,3) != 0 so not a crossed hom; use a valid one instead
    H = CrossedHom(Matrix.from_rows([[0, 2], [0, 4]]))
    s = Setup(g, h, rho, H)
    assert check_crossed_hom(s) == []
    ind = induced_action(s)
    assert all(m == z for m, z in zip(ind.matrices, rho.matrices))


def test_induced_action_case_ii_kills_e1():
    s = dim2_setup([[-1, 2], [0, 1]])
    ind = induced_action(s)
    assert ind.matrices[0].is_zero()
    assert check_action(ind) == []


def test_induced_action_rejects_bad_h():
    s = dim2_setup([[0, 0], [1, 0]])
    with pytest.raises(NotCrossedHom):
        induced_action(s)


def test_induced_action_passes_check_on_grid_solutions():
    g = two_dim_nonabelian()
    rho = adjoint_action(g)
    for H in solve_crossed_homs_grid(g, g, rho, [-1, 0, 1]):
        ind = induced_action(Setup(g, g, rho, H))
        assert check_action(ind) == []


def test_semidirect_scaling_action():
    g = abelian(("d",))
    h = abelian(("a",))
    rho = LieAction(g, h, (Matrix.identity(1),))
    sd = semidirect(g, h, rho)
    assert sd.dim == 2
    # [d, a] = a: the 2-dim non-abelian algebra
    assert bracket_basis(sd, 0, 1) == (Fraction(0), Fraction(1))
    assert check_lie_algebra(sd) == []


@pytest.mark.parametrize("L", [sl2(), heisenberg(), generalized_witt_bounds((2, 2)).g], ids=["sl2", "heisenberg", "gw-2-2"])
def test_bracket_basis_oracle_is_the_dense_bracket_of_basis_vectors(L):
    # the tests' `bracket_basis` reads the stored structure constants; on
    # every pair, both orders and i == j, it is the dense loop over them
    for i, j in itertools.product(range(L.dim), repeat=2):
        assert bracket_basis(L, i, j) == ref_bracket(L, L.basis_vector(i), L.basis_vector(j))


def test_semidirect_zero_action_direct_sum():
    g, h = sl2(), heisenberg()
    sd = semidirect(g, h, zero_action(g, h))
    for i in range(g.dim):
        for u in range(h.dim):
            assert bracket_basis(sd, i, g.dim + u) == vzero(6)


def test_semidirect_dimension():
    g = sl2()
    assert semidirect(g, g, adjoint_action(g)).dim == 6


def test_semidirect_rejects_non_action():
    h = two_dim_nonabelian()
    g = abelian(("d",))
    with pytest.raises(NotAction):
        semidirect(g, h, LieAction(g, h, (Matrix.identity(2),)))


def test_semidirect_always_lie_algebra():
    rng = random.Random(9)
    for g, h, rho in action_library():
        sd = semidirect(g, h, rho)
        assert check_lie_algebra(sd) == []


def test_twist_iso_examples():
    assert twist_iso_check(dim2_setup([[-1, 2], [0, 1]])) is True
    assert twist_iso_check(dim2_setup([[0, 0], [1, 0]])) is False
    # H = 0 gives the identity map
    assert twist_iso_check(dim2_setup([[0, 0], [0, 0]])) is True


def test_twist_iso_matches_check_randomized():
    rng = random.Random(17)
    triples = action_library()
    for _ in range(120):
        g, h, rho = triples[rng.randrange(len(triples))]
        H = CrossedHom(
            Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2)) for _ in range(g.dim)] for _ in range(h.dim)]
            )
        )
        s = Setup(g, h, rho, H)
        assert twist_iso_check(s) == (check_crossed_hom(s) == [])


def test_iota_graph_matches_check_randomized():
    rng = random.Random(23)
    triples = action_library()
    for _ in range(120):
        g, h, rho = triples[rng.randrange(len(triples))]
        H = CrossedHom(
            Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2)) for _ in range(g.dim)] for _ in range(h.dim)]
            )
        )
        s = Setup(g, h, rho, H)
        assert iota_graph_is_homomorphism(s) == (check_crossed_hom(s) == [])


def test_solve_grid_two_dim_classification():
    g = two_dim_nonabelian()
    sols = solve_crossed_homs_grid(g, g, adjoint_action(g), [-1, 0, 1])
    assert len(sols) == 15
    seen = set()
    for H in sols:
        m = H.matrix
        a11, a12 = m.entry(0, 0), m.entry(0, 1)
        a21, a22 = m.entry(1, 0), m.entry(1, 1)
        assert a21 == 0
        assert (1 + a11) * a22 == 0
        seen.add((a11, a12, a21, a22))
    assert len(seen) == 15
    # the criterion-01 solutions, in the row-major digit order of the grid
    expected = [c for c in itertools.product((-1, 0, 1), repeat=4) if c[2] == 0 and (1 + c[0]) * c[3] == 0]
    assert [H.matrix.data for H in sols] == expected


def test_solve_grid_exhaustive_oracle():
    # brute-force oracle: re-derive the count by filtering all 81 candidates
    g = two_dim_nonabelian()
    rho = adjoint_action(g)
    expected = 0
    for combo in itertools.product((-1, 0, 1), repeat=4):
        H = CrossedHom(Matrix.from_rows([[combo[0], combo[1]], [combo[2], combo[3]]]))
        if check_crossed_hom(Setup(g, g, rho, H)) == []:
            expected += 1
    assert expected == 15


def test_solve_grid_abelian_one_dim():
    g = abelian(("a",))
    h = abelian(("b",))
    sols = solve_crossed_homs_grid(g, h, zero_action(g, h), [0, 1])
    assert len(sols) == 2


def test_solve_grid_sl2_zero_grid():
    g = sl2()
    sols = solve_crossed_homs_grid(g, g, adjoint_action(g), [0])
    assert len(sols) == 1
    assert sols[0].matrix.is_zero()


def test_solve_grid_guard():
    g = sl2()
    with pytest.raises(SearchSpaceTooLarge):
        solve_crossed_homs_grid(g, g, adjoint_action(g), list(range(10)))


def test_hom_pair_conjugated_crossed_hom():
    # phi = automorphism of the 2-dim algebra (e1 -> c e1, e2 -> e2 + b e1);
    # conjugating a crossed hom gives a crossed hom and (phi, phi) intertwines.
    from crosshom.linalg import invert

    g = two_dim_nonabelian()
    rho = adjoint_action(g)
    H = CrossedHom(Matrix.from_rows([[-1, 2], [0, 1]]))
    phi = Matrix.from_rows([[3, 5], [0, 1]])
    H_prime = CrossedHom(invert(phi) * H.matrix * phi)
    assert check_hom_pair(rho, H, H_prime, phi, phi) == []
    assert check_crossed_hom(Setup(g, g, rho, H_prime)) == []


# --- the sparse bracket and crossed-hom check against dense references ---


def _kernel_algebras():
    from crosshom import formats

    algebras = [formats.load_file(str(p)) for p in sorted(FIXTURES.glob("*.alg.json"))]
    for s in kernel_setups():
        algebras += [s.g, s.h]
    return algebras


def _ref_check_crossed_hom(s: Setup) -> list[Finding]:
    """check_crossed_hom on the dense product and the dense bracket."""
    findings = []
    for i, j in itertools.combinations(range(s.g.dim), 2):
        Hi, Hj = s.H.column(i), s.H.column(j)
        res = ref_apply(s.H.matrix, bracket_basis(s.g, i, j))
        res = vsub(res, ref_apply(s.rho.matrices[i], Hj))
        res = vadd(res, ref_apply(s.rho.matrices[j], Hi))
        res = vsub(res, ref_bracket(s.h, Hi, Hj))
        if any(res):
            findings.append(Finding("crossed-hom", (s.g.basis_names[i], s.g.basis_names[j]), res))
    return findings


def test_structure_terms_cover_both_orders():
    for L in _kernel_algebras():
        for i, j in itertools.permutations(range(L.dim), 2):
            expected = tuple((k, c) for k, c in enumerate(bracket_basis(L, i, j)) if c)
            assert L.structure_terms.get((i, j), ()) == expected


def test_sparse_bracket_and_ad_match_dense_reference():
    rng = random.Random(70)
    algebras = _kernel_algebras()
    assert len(algebras) >= 20
    for L in algebras:
        vectors = [L.basis_vector(i) for i in range(L.dim)]
        vectors += [random_fraction_vector(rng, L.dim) for _ in range(12)]
        for x in vectors:
            y = random_fraction_vector(rng, L.dim)
            got = L.bracket(x, y)
            assert got == ref_bracket(L, x, y)
            assert len(got) == L.dim and all(type(c) is Fraction for c in got)
            ad = L.ad(x)
            assert (ad.rows, ad.cols) == (L.dim, L.dim)
            for j in range(L.dim):
                assert ad.col(j) == ref_bracket(L, x, L.basis_vector(j))


def test_check_crossed_hom_matches_dense_reference():
    rng = random.Random(71)
    setups = kernel_setups()
    assert any(_ref_check_crossed_hom(s) for s in setups)  # dim2_bad
    compared = failing = 0
    for s in setups:
        variants = [s]
        for _ in range(4):
            data = list(s.H.matrix.data)
            for p in rng.sample(range(len(data)), min(len(data), rng.randint(1, 3))):
                data[p] += Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
            H = CrossedHom(Matrix(s.H.matrix.rows, s.H.matrix.cols, tuple(data)))
            variants.append(Setup(s.g, s.h, s.rho, H))
        for v in variants:
            expected = _ref_check_crossed_hom(v)
            assert check_crossed_hom(v) == expected
            compared += 1
            failing += bool(expected)
    assert compared == 5 * len(setups) and failing >= 30


def _residual_findings(s: Setup) -> list[Finding]:
    """`crossed_hom_residual` of every pair, kept where it is nonzero."""
    findings = []
    for i, j in itertools.combinations(range(s.g.dim), 2):
        res = crossed_hom_residual(s, i, j)
        if any(res):
            findings.append(Finding("crossed-hom", (s.g.basis_names[i], s.g.basis_names[j]), res))
    return findings


def test_sparse_check_crossed_hom_matches_the_dense_residuals():
    from crosshom import formats

    gw = generalized_witt_bounds((2, 2))
    data = list(gw.H.matrix.data)
    p = next(k for k, x in enumerate(data) if x)
    data[p] += Fraction(1, 3)
    moved = Setup(gw.g, gw.h, gw.rho, CrossedHom(Matrix(gw.H.matrix.rows, gw.H.matrix.cols, tuple(data))))
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    setups = [
        formats.load_file(str(FIXTURES / f"{name}.setup.json"))
        for name in ("dim2_bad", "sl2_adjoint", "heisenberg_adjoint")
    ]
    setups += [sl2_setup(identity), heisenberg_setup(identity), gw, moved]
    failing = []
    for s in setups:
        got = check_crossed_hom(s)
        assert got == _residual_findings(s)
        for f in got:
            assert type(f.residual) is tuple and all(type(x) is Fraction for x in f.residual)
        failing.append(len(got))
    assert failing[0] == 1 and failing[3] > 0 and failing[4] > 0 and failing[6] > 0
    assert failing[1] == failing[2] == failing[5] == 0


def _ref_check_lie_algebra(L) -> list[Finding]:
    """The dense Jacobi residual of every triple, kept where it is nonzero."""
    findings = []
    for i, j, k in itertools.combinations(range(L.dim), 3):
        ei, ej, ek = (L.basis_vector(t) for t in (i, j, k))
        jac = vadd(
            vadd(L.bracket(ei, L.bracket(ej, ek)), L.bracket(ej, L.bracket(ek, ei))),
            L.bracket(ek, L.bracket(ei, ej)),
        )
        if any(jac):
            findings.append(Finding("jacobi", (L.basis_names[i], L.basis_names[j], L.basis_names[k]), jac))
    return findings


def _ref_check_action(rho: LieAction) -> list[Finding]:
    """The dense derivation residual of every (i, u, v) and the dense
    homomorphism residual of every pair, kept where they are nonzero."""
    g, h = rho.source, rho.target
    findings = []
    for i, m in enumerate(rho.matrices):
        for u, v in itertools.combinations(range(h.dim), 2):
            eu, ev = h.basis_vector(u), h.basis_vector(v)
            lhs = m.apply(h.bracket(eu, ev))
            diff = vsub(lhs, vadd(h.bracket(m.col(u), ev), h.bracket(eu, m.col(v))))
            if any(diff):
                names = (g.basis_names[i], h.basis_names[u], h.basis_names[v])
                findings.append(Finding("derivation", names, diff))
    for i, j in itertools.combinations(range(g.dim), 2):
        mi, mj = rho.matrices[i], rho.matrices[j]
        diff = rho.of(bracket_basis(g, i, j)) - (mi * mj - mj * mi)
        if not diff.is_zero():
            findings.append(Finding("homomorphism", (g.basis_names[i], g.basis_names[j]), diff))
    return findings


def _perturbed(rng: random.Random, data: tuple) -> tuple:
    data = list(data)
    for p in rng.sample(range(len(data)), min(len(data), rng.randint(1, 3))):
        data[p] += Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
    return tuple(data)


def test_sparse_check_lie_algebra_and_action_match_dense_references():
    rng = random.Random(72)
    small = [s for s in kernel_setups() if s.h.dim <= 16]
    compared = failing = 0
    for s in small:
        for L in (s.g, s.h):
            variants = [L]
            for _ in range(3 if L.dim >= 3 and L.structure else 0):
                structure = dict(L.structure)
                key = rng.choice(sorted(structure))
                structure[key] = _perturbed(rng, structure[key])
                variants.append(FinLieAlgebra(L.basis_names, structure))
            for v in variants:
                expected = _ref_check_lie_algebra(v)
                assert check_lie_algebra(v) == expected
                compared += 1
                failing += bool(expected)
        actions = [s.rho]
        for _ in range(3):
            mats = list(s.rho.matrices)
            k = rng.randrange(len(mats))
            m = mats[k]
            mats[k] = Matrix(m.rows, m.cols, _perturbed(rng, m.data))
            actions.append(LieAction(s.g, s.h, tuple(mats)))
        for rho in actions:
            expected = _ref_check_action(rho)
            assert check_action(rho) == expected
            compared += 1
            failing += bool(expected)
    assert failing >= 20, (compared, failing)


# --- the twist and graph maps against dense semidirect references ---


def _ref_semidirect_bracket(g, h, matrices, a, b):
    """[(x,u),(y,v)] = ([x,y], A(x)v - A(y)u + [u,v]) on dense (g-part, h-part)
    pairs, for matrices A(e_i) that need not form an action."""
    (xg, xh), (yg, yh) = a, b

    def act(gvec, hvec):
        out = vzero(h.dim)
        for i, c in enumerate(gvec):
            if c:
                out = vadd(out, vscale(c, matrices[i].apply(hvec)))
        return out

    return g.bracket(xg, yg), vadd(vsub(act(xg, yh), act(yg, xh)), h.bracket(xh, yh))


def _ref_rho_H(s: Setup) -> list[Matrix]:
    """rho_H(e_i) = rho(e_i) + ad(He_i), dense, whether or not H is a crossed hom."""
    return [s.rho.matrices[i] + s.h.ad(s.H.column(i)) for i in range(s.g.dim)]


def _ref_twist_holds(s: Setup) -> bool:
    """(x,u) |-> (x, Hx+u) against the dense brackets on every pair of basis vectors."""
    g, h = s.g, s.h
    rho_H = _ref_rho_H(s)

    def hat(p):
        return p[0], vadd(s.H.apply(p[0]), p[1])

    basis = [(g.basis_vector(i), vzero(h.dim)) for i in range(g.dim)]
    basis += [(vzero(g.dim), h.basis_vector(u)) for u in range(h.dim)]
    return all(
        hat(_ref_semidirect_bracket(g, h, rho_H, a, b))
        == _ref_semidirect_bracket(g, h, s.rho.matrices, hat(a), hat(b))
        for a, b in itertools.combinations(basis, 2)
    )


def _ref_graph_holds(s: Setup) -> bool:
    """x |-> (x, Hx) against the dense rho-bracket on every basis pair."""
    g = s.g
    for i, j in itertools.combinations(range(g.dim), 2):
        xi = (g.basis_vector(i), s.H.column(i))
        xj = (g.basis_vector(j), s.H.column(j))
        bij = bracket_basis(g, i, j)
        if _ref_semidirect_bracket(g, s.h, s.rho.matrices, xi, xj) != (bij, s.H.apply(bij)):
            return False
    return True


def test_twist_and_graph_checks_match_the_dense_references():
    rng = random.Random(81)
    triples = action_library()
    seen = Counter()
    for n in range(160):
        g, h, rho = triples[n % len(triples)]
        if n % 4 == 0:
            H = Matrix.zero(h.dim, g.dim)
        else:
            H = Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(g.dim)] for _ in range(h.dim)]
            )
        s = Setup(g, h, rho, CrossedHom(H))
        rho_H = _ref_rho_H(s)
        sd_H = _semidirect_structure(g, h, rho_H)
        assert all(type(x) is Fraction for v in sd_H.structure.values() for x in v)
        for p, q in itertools.combinations(range(g.dim + h.dim), 2):
            a = (sd_H.basis_vector(p)[: g.dim], sd_H.basis_vector(p)[g.dim :])
            b = (sd_H.basis_vector(q)[: g.dim], sd_H.basis_vector(q)[g.dim :])
            zg, zh = _ref_semidirect_bracket(g, h, rho_H, a, b)
            assert bracket_basis(sd_H, p, q) == zg + zh
        holds = _ref_twist_holds(s)
        assert twist_iso_check(s) is holds
        assert iota_graph_is_homomorphism(s) is _ref_graph_holds(s) is holds
        seen["holds" if holds else "fails"] += 1
        seen["rho_H not an action"] += bool(check_action(LieAction(g, h, tuple(rho_H))))
    assert seen["holds"] >= 40 and seen["fails"] >= 40 and seen["rho_H not an action"] >= 40, seen


def _ref_lie_hom(src, dst, phi: Matrix) -> list[Finding]:
    """phi[e_i, e_j] - [phi e_i, phi e_j] on every pair, dense, kept where nonzero."""
    findings = []
    for i, j in itertools.combinations(range(src.dim), 2):
        diff = vsub(ref_apply(phi, bracket_basis(src, i, j)), ref_bracket(dst, phi.col(i), phi.col(j)))
        if any(diff):
            findings.append(Finding("lie-hom", (src.basis_names[i], src.basis_names[j]), diff))
    return findings


def test_is_lie_homomorphism_matches_the_dense_law():
    rng = random.Random(82)
    cases = [(L, L, Matrix.identity(L.dim)) for L in (two_dim_nonabelian(), heisenberg(), sl2())]
    for s in kernel_setups():
        if s.h.dim <= 16:
            sd = _semidirect_structure(s.g, s.h, s.rho.matrices)
            cases.append((s.g, sd, _graph(s)))
    compared = failing = 0
    for src, dst, phi in cases:
        variants = [phi] + [Matrix(phi.rows, phi.cols, _perturbed(rng, phi.data)) for _ in range(4)]
        for m in variants:
            expected = _ref_lie_hom(src, dst, m)
            got = is_lie_homomorphism(src, dst, m)
            assert got == expected
            for f in got:
                assert type(f.residual) is tuple and all(type(x) is Fraction for x in f.residual)
            compared += 1
            failing += bool(expected)
    assert compared == 5 * len(cases) and failing >= 30, (compared, failing)


def test_graph_and_twist_matrices_are_the_dense_blocks(monkeypatch):
    # [I; H] and the twist [[I, 0], [H, I]] against the blocks written row by
    # row, in Fractions, empty g or h included
    import crosshom.liealg

    twists = []
    real = crosshom.liealg.is_lie_homomorphism

    def spy(src, dst, phi):
        twists.append(phi)
        return real(src, dst, phi)

    monkeypatch.setattr(crosshom.liealg, "is_lie_homomorphism", spy)
    rng = random.Random(85)
    empty = abelian(())
    triples = action_library() + [(g, h, zero_action(g, h)) for g, h in ((empty, sl2()), (sl2(), empty))]
    for g, h, rho in triples * 3:
        values = [Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(h.dim * g.dim)]
        H = Matrix(h.dim, g.dim, tuple(values))
        s = Setup(g, h, rho, CrossedHom(H))
        n = g.dim + h.dim
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        graph = [eye[x][: g.dim] for x in range(g.dim)] + [list(H.row(i)) for i in range(h.dim)]
        twist = eye[: g.dim] + [list(H.row(i)) + eye[g.dim + i][g.dim :] for i in range(h.dim)]
        twists.clear()
        twist_iso_check(s)
        for got, rows, cols in ((_graph(s), graph, g.dim), (twists[0], twist, n)):
            assert got == Matrix(n, cols, tuple(x for r in rows for x in r))
            assert all(type(x) is Fraction for x in got.data)


def test_empty_g_or_h_twist_and_graph():
    empty = abelian(())
    for g, h in ((empty, two_dim_nonabelian()), (sl2(), empty), (empty, empty)):
        s = Setup(g, h, zero_action(g, h), CrossedHom(Matrix.zero(h.dim, g.dim)))
        graph = _graph(s)
        assert (graph.rows, graph.cols) == (g.dim + h.dim, g.dim)
        assert semidirect(g, h, s.rho).dim == g.dim + h.dim
        assert check_crossed_hom(s) == []
        assert twist_iso_check(s) is True
        assert iota_graph_is_homomorphism(s) is True
    with pytest.raises(DimensionMismatch):
        is_lie_homomorphism(empty, two_dim_nonabelian(), Matrix.zero(0, 0))


# --- the structure-constant algebra both FinLieAlgebra and FinCommAlgebra are ---


def _random_structure_algebra(rng: random.Random, kind: type, dim: int):
    """A random algebra of the kind on e0..e{dim-1}, neither Jacobi nor
    associativity enforced: keys i < j for a Lie algebra, i <= j for a
    commutative one, which always has a diagonal product when dim > 0.
    A stored vector may be zero."""
    lie = kind is FinLieAlgebra
    pairs = (itertools.combinations if lie else itertools.combinations_with_replacement)(range(dim), 2)
    structure = {p: random_fraction_vector(rng, dim) for p in pairs if rng.random() < 0.6}
    if not lie and dim:
        d = rng.randrange(dim)
        structure[d, d] = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
    return kind(tuple(f"e{i}" for i in range(dim)), dict(sorted(structure.items())))


def _random_structure_algebras(seed: int) -> list:
    rng = random.Random(seed)
    return [
        _random_structure_algebra(rng, kind, dim)
        for kind in (FinLieAlgebra, FinCommAlgebra)
        for dim in range(5)
        for _ in range(8)
    ]


def _ref_product(A, x, y) -> tuple:
    """The dense product of x and y, read from every stored structure vector."""
    return ref_bracket(A, x, y) if isinstance(A, FinLieAlgebra) else ref_multiply(A, x, y)


def _ref_mult_matrix(A, a) -> Matrix:
    return from_columns([_ref_product(A, a, A.basis_vector(j)) for j in range(A.dim)])


def test_mult_matrix_and_ad_match_the_dense_structure_reference():
    rng = random.Random(28)
    algebras = _random_structure_algebras(28)
    assert any(i == j for A in algebras for i, j in A.structure)
    for A in algebras:
        elements = [A.basis_vector(i) for i in range(A.dim)]
        elements += [random_fraction_vector(rng, A.dim) for _ in range(4)]
        for a in elements:
            expected = _ref_mult_matrix(A, a)
            got = A.mult_matrix(a)
            assert got == expected
            assert all(type(c) is Fraction for c in got.data)
            if isinstance(A, FinLieAlgebra):
                assert A.ad(a) == expected


def _ref_leibniz_findings(A, D: Matrix) -> list[Finding]:
    """D(e_i e_j) - D(e_i) e_j - e_i D(e_j) by dense products, kept where it is
    nonzero, on the pairs i < j of a Lie algebra, as `check_action` once
    looped them, and i <= j of a commutative one."""
    lie = isinstance(A, FinLieAlgebra)
    pairs = (itertools.combinations if lie else itertools.combinations_with_replacement)(range(A.dim), 2)
    findings = []
    for i, j in pairs:
        ei, ej = A.basis_vector(i), A.basis_vector(j)
        lhs = ref_apply(D, _ref_product(A, ei, ej))
        res = vsub(lhs, vadd(_ref_product(A, D.col(i), ej), _ref_product(A, ei, D.col(j))))
        if any(res):
            findings.append(Finding("leibniz", (A.basis_names[i], A.basis_names[j]), res))
    return findings


def test_shared_leibniz_law_matches_the_dense_reference():
    rng = random.Random(29)
    compared = failing = 0
    for A in _random_structure_algebras(29):
        n = A.dim
        ops = [Matrix.zero(n, n), A.mult_matrix(random_fraction_vector(rng, n))]
        ops += [from_columns([random_fraction_vector(rng, n) for _ in range(n)]) for _ in range(2)]
        for D in ops:
            expected = _ref_leibniz_findings(A, D)
            assert derivation_violations(A, D) == expected
            compared += 1
            failing += bool(expected)
        if isinstance(A, FinLieAlgebra):
            # check_action re-sites h's findings per g-basis vector, in order
            g = abelian(("x", "y"))
            derivation = [
                Finding("derivation", (x,) + f.site, f.residual)
                for x, D in zip(g.basis_names, ops[2:])
                for f in _ref_leibniz_findings(A, D)
            ]
            findings = check_action(LieAction(g, A, tuple(ops[2:])))
            assert findings[: len(derivation)] == derivation
            assert all(f.rule == "homomorphism" for f in findings[len(derivation) :])
    assert 0 < failing < compared


def test_parser_negates_a_swapped_bracket_and_keeps_a_swapped_product():
    entries = [{"left": "b", "right": "a", "value": {"a": "2"}}, {"left": "c", "right": "b", "value": {"c": "1/2"}}]
    names = ["a", "b", "c"]
    lie = formats.algebra_from_dict({"kind": "finite_lie", "basis": names, "brackets": entries})
    assert lie.structure == {
        (0, 1): (Fraction(-2), Fraction(0), Fraction(0)),
        (1, 2): (Fraction(0), Fraction(0), Fraction(-1, 2)),
    }
    diagonal = [{"left": "c", "right": "c", "value": {"a": "3"}}]
    comm = formats.comm_algebra_from_dict({"kind": "finite_comm", "basis": names, "products": entries + diagonal})
    assert comm.structure == {
        (0, 1): (Fraction(2), Fraction(0), Fraction(0)),
        (1, 2): (Fraction(0), Fraction(0), Fraction(1, 2)),
        (2, 2): (Fraction(3), Fraction(0), Fraction(0)),
    }


def _entry(left, right, value=None) -> dict:
    return {"left": left, "right": right, "value": {"a": "1"} if value is None else value}


@pytest.mark.parametrize(
    "kind, key, entries, message",
    [
        ("finite_lie", "brackets", [_entry("a", "a")], "algebra.brackets[0]: bracket of a basis vector with itself must be omitted"),
        ("finite_lie", "brackets", [_entry("a", "b"), _entry("b", "a")], "algebra.brackets[1]: duplicate bracket for this pair"),
        ("finite_lie", "brackets", ["x"], "algebra.brackets[0]: expected an object"),
        ("finite_lie", "brackets", [_entry("a", "c")], "algebra.brackets[0]: unknown basis name 'c'"),
        ("finite_lie", "brackets", [_entry("b", "a", {"b": "1e3"})], "algebra.brackets[0]: exponent notation is not accepted: '1e3'"),
        ("finite_lie", "brackets", {}, "algebra: 'brackets' must be a list"),
        ("finite_comm", "products", [_entry("a", "b"), _entry("b", "a")], "algebra.products[1]: duplicate product for this pair"),
        ("finite_comm", "products", [_entry("b", "b", [])], "algebra.products[0]: 'value' must be an object mapping names to rationals"),
        ("finite_comm", "products", 3, "algebra: 'products' must be a list"),
        ("finite_comm", "brackets", [], "algebra: expected kind 'finite_lie', got 'finite_comm'"),
        ("finite_lie", "products", [], "algebra: expected kind 'finite_comm', got 'finite_lie'"),
    ],
)
def test_parser_error_messages(kind, key, entries, message):
    body = {"kind": kind, "basis": ["a", "b"], key: entries}
    parse = formats.algebra_from_dict if key == "brackets" else formats.comm_algebra_from_dict
    with pytest.raises(ParseError) as err:
        parse(body)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "kind, structure, message",
    [
        (FinLieAlgebra, {(1, 0): (1, 0)}, "structure key (1, 0) is not an i<j pair"),
        (FinLieAlgebra, {(1, 1): (1, 0)}, "structure key (1, 1) is not an i<j pair"),
        (FinLieAlgebra, {(0, 2): (1, 0)}, "structure key (0, 2) is not an i<j pair"),
        (FinLieAlgebra, {(0, 1): (1,)}, "bracket value at (0, 1) has length 1"),
        (FinCommAlgebra, {(1, 0): (1, 0)}, "product key (1, 0) is not an i<=j pair"),
        (FinCommAlgebra, {(-1, 0): (1, 0)}, "product key (-1, 0) is not an i<=j pair"),
        (FinCommAlgebra, {(1, 1): (1, 0, 0)}, "product value at (1, 1) has length 3"),
    ],
)
def test_key_validation_messages(kind, structure, message):
    with pytest.raises(DimensionMismatch) as err:
        kind(("a", "b"), structure)
    assert str(err.value) == message
    if kind is FinCommAlgebra:
        assert kind(("a", "b"), {(1, 1): (0, 1)}).structure_terms == {(1, 1): ((1, 1),)}
        with pytest.raises(DimensionMismatch, match="^unit vector has the wrong length$"):
            kind(("a", "b"), {}, (1,))
