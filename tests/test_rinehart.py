import hashlib
import itertools
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import crosshom.rinehart
from crosshom import formats
from crosshom.errors import DimensionMismatch, InvalidPair, NotCrossedHom, SearchSpaceTooLarge
from crosshom.liealg import (
    CrossedHom,
    FinLieAlgebra,
    LieAction,
    Setup,
    abelian,
    check_action,
    check_crossed_hom,
    check_lie_algebra,
    induced_action,
    lie_algebra,
    semidirect,
)
from crosshom.linalg import Matrix, kron, lincomb
from crosshom.poly import Poly
from crosshom.report import Finding
from crosshom.rinehart import (
    AModuleStructure,
    FirstOrderOp,
    GlnRep,
    LeibnizPair,
    LieRinehart,
    VTensorA,
    action_lie_rinehart,
    adjoint_rep_gl,
    adjoint_weak_rep,
    boxplus_pullback,
    check_a_module,
    check_admissible_rep,
    check_first_order_op,
    check_gln_rep,
    check_leibniz_pair,
    check_lie_rinehart,
    check_module_axiom_window,
    check_weak_compat_window,
    check_weak_rep,
    extend_to_action_rep,
    laurent_window_basis,
    natural_rep,
    natural_rep_gl,
    regular_module,
    shen_larsson_action,
    shen_larsson_apply,
    tensor_rep,
    trivial_rep,
    twisting_pq,
    underlying_pair,
    vtensor_window_basis,
)
from crosshom.witt import (
    GlLaurent,
    LaurentPoly,
    Window,
    WittElem,
    block_diagonal,
    coefficient_columns,
    derivation_violations,
    generalized_witt,
    generalized_witt_setup,
    scaling_derivation,
    truncated_polynomial_algebra,
    witt_bracket,
    witt_window_basis,
)
from conftest import (
    FIXTURES,
    assert_exact_terms,
    bracket_basis,
    evaluated,
    from_columns,
    instance,
    random_exponent,
    random_sparse_sum,
    ref_a_linear_violations,
    ref_action_bracket,
    ref_add_term,
    ref_adjoint_rep_gl,
    ref_natural_rep_gl,
    ref_check_a_module,
    ref_first_order_findings,
    ref_leibniz_pair_findings,
    ref_lie_rinehart_findings,
    ref_rep_findings,
    transpose,
)


def derivation_model():
    """A = K[x]/(x^3), L = Der(A) = span{x d/dx, x^2 d/dx} with [D1, D2] = D2."""
    A = truncated_polynomial_algebra([3])
    L = lie_algebra(("D1", "D2"), {(0, 1): (0, 1)})
    D1 = scaling_derivation([3], 0)
    D2 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    a_action = (
        Matrix.identity(2),
        Matrix.from_rows([[0, 0], [1, 0]]),  # x*D1 = D2, x*D2 = 0
        Matrix.zero(2, 2),
    )
    return LieRinehart(A, L, a_action, (D1, D2))


def dual_numbers_model():
    """A = K[x]/(x^2), L = Der(A) = span{x d/dx} (one-dimensional)."""
    A = truncated_polynomial_algebra([2])
    L = abelian(("D",))
    xd = Matrix.from_rows([[0, 0], [0, 1]])
    return LieRinehart(A, L, (Matrix.identity(1), Matrix.zero(1, 1)), (xd,))


def test_check_lie_rinehart_valid():
    assert check_lie_rinehart(derivation_model()) == []
    assert check_lie_rinehart(dual_numbers_model()) == []


def test_lie_a_algebra_zero_anchor():
    # anchor = 0 turns the axioms into those of a Lie algebra over A
    A = truncated_polynomial_algebra([2])
    L = abelian(("s",))
    lr = LieRinehart(A, L, (Matrix.identity(1), Matrix.zero(1, 1)), (Matrix.zero(2, 2),))
    assert check_lie_rinehart(lr) == []


def test_broken_leibniz_reported():
    # drop the anchor correction by zeroing the A-module structure mid-way:
    # keep anchor nonzero but declare x*D1 = 0 so [D1, x*D1] != x[D1, D1] + D1(x) D1
    A = truncated_polynomial_algebra([3])
    L = lie_algebra(("D1", "D2"), {(0, 1): (0, 1)})
    D1 = scaling_derivation([3], 0)
    D2 = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    broken = LieRinehart(A, L, (Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2)), (D1, D2))
    findings = check_lie_rinehart(broken)
    assert any(f.rule in ("leibniz", "anchor-a-linear") for f in findings)


def test_first_order_op():
    lr = derivation_model()
    mod = regular_module(lr.algebra)
    op = FirstOrderOp(D=lr.anchor[0], sigma=lr.anchor[0])
    assert check_first_order_op(mod, op) == []
    bad = FirstOrderOp(D=lr.anchor[0], sigma=lr.anchor[1])
    assert check_first_order_op(mod, bad) != []


def test_a_module_checks():
    lr = derivation_model()
    assert check_a_module(lr.l_module()) == []
    assert check_a_module(regular_module(lr.algebra)) == []
    broken = AModuleStructure(
        lr.algebra, 1, (Matrix.identity(1), Matrix.identity(1), Matrix.zero(1, 1))
    )
    assert check_a_module(broken) != []


def test_adjoint_is_weak_rep():
    lr = derivation_model()
    mod, rho = adjoint_weak_rep(lr)
    assert check_weak_rep(lr, mod, rho) == []


def test_adjoint_not_strict():
    lr = derivation_model()
    mod, rho = adjoint_weak_rep(lr)
    findings = check_weak_rep(lr, mod, rho, strict=True)
    assert any(f.rule == "a-linear" for f in findings)


def test_natural_rep_strict():
    for lr in (derivation_model(), dual_numbers_model()):
        mod, rho = natural_rep(lr)
        assert check_weak_rep(lr, mod, rho, strict=True) == []


def test_leibniz_pair_from_lie_rinehart():
    assert check_leibniz_pair(underlying_pair(derivation_model())) == []


def test_leibniz_pair_zero_beta():
    A = truncated_polynomial_algebra([3])
    S = lie_algebra(("a", "b"), {(0, 1): (1, 0)})
    p = LeibnizPair(A, S, (Matrix.zero(3, 3), Matrix.zero(3, 3)))
    assert check_leibniz_pair(p) == []


def test_leibniz_pair_non_derivation_beta():
    A = truncated_polynomial_algebra([3])
    S = abelian(("s",))
    shift = Matrix.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    p = LeibnizPair(A, S, (shift,))
    findings = check_leibniz_pair(p)
    assert any(f.rule == "beta-derivation" for f in findings)


def test_admissible_natural():
    pair = underlying_pair(derivation_model())
    assert check_admissible_rep(pair, regular_module(pair.algebra), pair.beta) == []


def test_admissible_zero_rho_with_nonzero_beta_fails():
    pair = underlying_pair(derivation_model())
    zero = tuple(Matrix.zero(3, 3) for _ in range(2))
    findings = check_admissible_rep(pair, regular_module(pair.algebra), zero)
    assert any(f.rule == "admissible-anchor" for f in findings)


def test_weak_rep_is_admissible_for_underlying_pair():
    lr = derivation_model()
    mod, rho = adjoint_weak_rep(lr)
    assert check_admissible_rep(underlying_pair(lr), mod, rho) == []


def test_action_lie_rinehart_zero_beta():
    # beta = 0: S (x) A carries only [x, y] (x) ab
    A = truncated_polynomial_algebra([2])
    S = lie_algebra(("a", "b"), {(0, 1): (1, 0)})
    p = LeibnizPair(A, S, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    alr = action_lie_rinehart(p)
    assert check_lie_rinehart(alr) == []
    # [a(1), b(1)] = [a,b](1) = a(1)
    assert bracket_basis(alr.lie, 0, 2) == (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    # [a(x), b(x)] = [a,b](x^2) = 0
    assert bracket_basis(alr.lie, 1, 3) == (Fraction(0),) * 4


def test_action_lie_rinehart_one_dim_nonabelian():
    # dim S = 1 abelian, A = K[x]/(x^2), beta(s) = x d/dx: output is non-abelian
    A = truncated_polynomial_algebra([2])
    S = abelian(("s",))
    p = LeibnizPair(A, S, (Matrix.from_rows([[0, 0], [0, 1]]),))
    alr = action_lie_rinehart(p)
    assert alr.lie.dim == 2
    assert check_lie_rinehart(alr) == []
    # [s(1), s(x)] = s(1 * beta(s)x) - s(x * beta(s)1) = s(x)
    assert bracket_basis(alr.lie, 0, 1) == (Fraction(0), Fraction(1))


def test_action_lie_rinehart_of_derivation_pair():
    pair = underlying_pair(derivation_model())
    alr = action_lie_rinehart(pair)
    assert alr.lie.dim == 6
    assert check_lie_rinehart(alr) == []


def test_action_lie_rinehart_requires_valid_pair():
    A = truncated_polynomial_algebra([3])
    shift = Matrix.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    p = LeibnizPair(A, abelian(("s",)), (shift,))
    with pytest.raises(InvalidPair):
        action_lie_rinehart(p)


def test_action_lie_rinehart_bracket_and_anchor_match_dense_oracle(fixtures_dir):
    pairs = [underlying_pair(derivation_model())]
    pairs += [formats.load_file(str(fixtures_dir / "derivations_trunc3.pair.json"))]
    for pair in pairs:
        A = pair.algebra
        alr = action_lie_rinehart(pair)
        assert alr.lie.structure == ref_action_bracket(A, pair.lie, pair.beta)
        for p, anchor in enumerate(alr.anchor):
            i, s = divmod(p, A.dim)
            assert anchor == A.mult_matrix(A.basis_vector(s)) * pair.beta[i]
        for r, m in enumerate(alr.a_action):
            assert m == kron(Matrix.identity(pair.lie.dim), A.mult_matrix(A.basis_vector(r)))


@pytest.mark.parametrize("bounds", [(3,), (4,), (2, 2), (2, 3)], ids=str)
def test_generalized_witt_is_the_action_lie_rinehart_algebra(bounds):
    # A (x) Delta is S (x) A for the Leibniz pair (A, S abelian on Delta, Delta)
    A = truncated_polynomial_algebra(bounds)
    deltas = [scaling_derivation(bounds, v) for v in range(len(bounds))]
    m = len(deltas)
    alr = action_lie_rinehart(LeibnizPair(A, abelian(tuple(f"D{i + 1}" for i in range(m))), tuple(deltas)))
    assert generalized_witt(A, deltas).structure == alr.lie.structure
    s = generalized_witt_setup(A, deltas)
    ops = coefficient_columns(A, deltas)
    assert len(ops) == len(alr.anchor) == s.g.dim
    for op, anchor, rho in zip(ops, alr.anchor, s.rho.matrices):
        assert block_diagonal(op, 1) == anchor
        assert rho == kron(Matrix.identity(m * m), anchor)


def test_invalid_pair_messages_are_the_findings(fixtures_dir):
    bad = formats.load_file(str(fixtures_dir / "beta_bad.pair.json"))
    with pytest.raises(InvalidPair) as err:
        action_lie_rinehart(bad)
    assert str(err.value) == (
        "beta-derivation at (D1, x, x): residual (0, 0, -2); "
        "beta-lie-hom at (D1, D2): residual [0, 0, 0; 0, 0, 0; 0, 1, 0]"
    )
    A = truncated_polynomial_algebra([3])
    commuting_only_in_s = (scaling_derivation([3], 0), Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    with pytest.raises(InvalidPair) as err:
        action_lie_rinehart(LeibnizPair(A, abelian(("D1", "D2")), commuting_only_in_s))
    assert str(err.value) == "beta-lie-hom at (D1, D2): residual [0, 0, 0; 0, 0, 0; 0, -1, 0]"


def test_extension_to_action_algebra_is_representation():
    pair = underlying_pair(derivation_model())
    mod = regular_module(pair.algebra)
    rho_bar = extend_to_action_rep(pair, mod, pair.beta)
    alr = action_lie_rinehart(pair)
    assert check_weak_rep(alr, mod, rho_bar, strict=True) == []


# --- gl_n representations ---------------------------------------------------


def test_gln_rep_constructors_satisfy_relations():
    for rep in (trivial_rep(2), natural_rep_gl(2), adjoint_rep_gl(2), natural_rep_gl(3)):
        assert check_gln_rep(rep) == []
    assert check_gln_rep(tensor_rep(natural_rep_gl(2), natural_rep_gl(2))) == []


def test_gln_rep_shapes():
    assert trivial_rep(3).dim_v == 1
    assert natural_rep_gl(3).dim_v == 3
    assert adjoint_rep_gl(3).dim_v == 9
    assert tensor_rep(natural_rep_gl(2), adjoint_rep_gl(2)).dim_v == 8


# --- boxplus pullback on finite models ---------------------------------------


def pullback_model():
    lr = dual_numbers_model()
    mod, rho = natural_rep(lr)
    # H: L -> gl_2 (x) A with H(D) = E_12 (x) 1 + E_11 (x) x (any map works, dim L = 1)
    n, dimA = 2, 2
    col = [Fraction(0)] * (n * n * dimA)
    col[(0 * n + 1) * dimA + 0] = Fraction(1)
    col[(0 * n + 0) * dimA + 1] = Fraction(1)
    H = from_columns([tuple(col)])
    return lr, mod, rho, H


def test_boxplus_trivial_rep_reproduces_rho():
    lr, mod, rho, H = pullback_model()
    mats, tmod = boxplus_pullback(lr, trivial_rep(2), mod, rho, H)
    assert all((m - r).is_zero() for m, r in zip(mats, rho))


def test_boxplus_h_zero_acts_on_module_factor():
    lr, mod, rho, _ = pullback_model()
    V = natural_rep_gl(2)
    H0 = Matrix.zero(2 * 2 * 2, 1)
    mats, _ = boxplus_pullback(lr, V, mod, rho, H0)
    expected = [kron(Matrix.identity(V.dim_v), r) for r in rho]
    assert all((m - e).is_zero() for m, e in zip(mats, expected))


def test_boxplus_output_is_weak_rep():
    lr, mod, rho, H = pullback_model()
    for rep in (natural_rep_gl(2), adjoint_rep_gl(2)):
        mats, tmod = boxplus_pullback(lr, rep, mod, rho, H)
        assert check_weak_rep(lr, tmod, mats) == []


def test_boxplus_admissible_for_pair_carrier():
    # pulling back along a Leibniz-pair carrier yields an admissible rep
    lr, mod, rho, H = pullback_model()
    pair = underlying_pair(lr)
    for rep in (natural_rep_gl(2), adjoint_rep_gl(2)):
        mats, tmod = boxplus_pullback(pair, rep, mod, rho, H)
        assert check_admissible_rep(pair, tmod, mats) == []


def test_boxplus_rejects_non_crossed_hom():
    lr = derivation_model()
    mod, rho = natural_rep(lr)
    # H(D1) = 0, H(D2) = 1: fails H[D1,D2] = alpha(D1)H(D2) - alpha(D2)H(D1)
    Hbad = from_columns(
        [(Fraction(0), Fraction(0), Fraction(0)), (Fraction(1), Fraction(0), Fraction(0))]
    )
    with pytest.raises(NotCrossedHom):
        boxplus_pullback(lr, natural_rep_gl(1), mod, rho, Hbad)


def test_boxplus_valid_on_two_dim_carrier():
    lr = derivation_model()
    mod, rho = natural_rep(lr)
    # H(D1) = 1, H(D2) = 0 is a genuine crossed hom into gl_1 (x) A
    Hok = from_columns(
        [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(0), Fraction(0))]
    )
    mats, tmod = boxplus_pullback(lr, natural_rep_gl(1), mod, rho, Hok)
    assert check_weak_rep(lr, tmod, mats) == []


def test_boxplus_associator_agreement():
    lr, mod, rho, H = pullback_model()
    V = natural_rep_gl(2)
    both = tensor_rep(V, V)
    flat, _ = boxplus_pullback(lr, both, mod, rho, H)
    inner_mats, inner_mod = boxplus_pullback(lr, V, mod, rho, H)
    nested, _ = boxplus_pullback(lr, V, inner_mod, inner_mats, H)
    assert all((a - b).is_zero() for a, b in zip(flat, nested))


def test_boxplus_morphism_intertwines():
    # a gl_2-map psi: V -> V' gives psi (x) id, which intertwines the actions
    # pulled back on V (x) M and V' (x) M; a map that is no gl_2-map does not
    lr, mod, rho, H = pullback_model()
    ident = Matrix.identity(mod.dim_m)

    def intertwines(psi, src, dst):
        (src_mats, _), (dst_mats, _) = (boxplus_pullback(lr, rep, mod, rho, H) for rep in (src, dst))
        f = kron(psi, ident)
        return all((f * a - b * f).is_zero() for a, b in zip(src_mats, dst_mats))

    def matrix(rows, cols, entries):
        return Matrix(rows, cols, tuple(Fraction(e) for e in entries))

    V = natural_rep_gl(2)
    swap = matrix(4, 4, [int(row == 2 * (col % 2) + col // 2) for row in range(4) for col in range(4)])
    assert intertwines(swap, tensor_rep(V, V), tensor_rep(V, V))
    trace = matrix(1, 4, [1, 0, 0, 1])
    assert intertwines(trace, adjoint_rep_gl(2), trivial_rep(2))
    assert not intertwines(matrix(2, 2, [1, 0, 0, 0]), V, V)


# --- sparse tensor modules ---------------------------------------------------


def test_shen_larsson_natural_example():
    theta = natural_rep_gl(2)
    got = shen_larsson_apply(
        theta, WittElem.basis(2, (1, 0), 0), VTensorA.basis(2, 2, 0, (0, 1))
    )
    assert got == VTensorA.basis(2, 2, 0, (1, 1))


def test_shen_larsson_degree_zero_actor():
    theta = natural_rep_gl(2)
    t = VTensorA.basis(2, 2, 0, (0, 1))
    got = shen_larsson_apply(theta, WittElem.basis(2, (0, 0), 1), t)
    assert got == VTensorA.basis(2, 2, 0, (0, 1))
    assert shen_larsson_apply(theta, WittElem.basis(2, (0, 0), 0), t).is_zero()


def test_shen_larsson_trivial_is_natural_action():
    theta = trivial_rep(1)
    act = shen_larsson_action(theta)
    for r in range(-2, 3):
        for s in range(-2, 3):
            got = act(WittElem.basis(1, (r,), 0), VTensorA.basis(1, 1, 0, (s,)))
            expected = VTensorA.basis(1, 1, 0, (r + s,), s)
            assert got == expected


def test_module_axiom_window_small():
    for n, theta in ((1, natural_rep_gl(1)), (2, natural_rep_gl(2))):
        act = shen_larsson_action(theta)
        elems = vtensor_window_basis(theta, n, 1)
        assert check_module_axiom_window(act, n, Window(1), elems) == []


def test_module_axiom_detects_corruption():
    # note: dropping the theta term entirely is NOT a corruption (it yields the
    # valid theta = 0 module), so corrupt the exponent shift of the theta term
    theta = natural_rep_gl(1)

    def corrupted(w, t):
        out = VTensorA.zero(1, 1)
        for (i, r), cw in w.terms.items():
            for (p, s), ct in t.terms.items():
                if s[i]:
                    out = out + VTensorA.basis(1, 1, p, (r[0] + s[0],), cw * ct * s[i])
                if r[i]:
                    # theta term lands on x^s instead of x^{r+s}
                    out = out + VTensorA.basis(1, 1, p, s, cw * ct * r[i])
        return out

    elems = vtensor_window_basis(theta, 1, 1)
    assert check_module_axiom_window(corrupted, 1, Window(1), elems) != []


def test_weak_compat_window_small():
    theta = natural_rep_gl(1)
    act = shen_larsson_action(theta)
    elems = vtensor_window_basis(theta, 1, 1)
    assert check_weak_compat_window(act, 1, Window(1), elems) == []


def test_twisting_identity():
    p = [LaurentPoly.zero(1)]
    tw = twisting_pq(p, 0, WittElem.apply)
    for r in range(-2, 3):
        for s in range(-2, 3):
            u = WittElem.basis(1, (r,), 0)
            a = LaurentPoly.monomial(1, (s,))
            assert tw(u, a) == u.apply(a)


def test_twisting_q_one_shifts_eigenvalue():
    p = [LaurentPoly.zero(1)]
    tw = twisting_pq(p, 1, WittElem.apply)
    for r in range(-2, 3):
        for s in range(-2, 3):
            got = tw(WittElem.basis(1, (r,), 0), LaurentPoly.monomial(1, (s,)))
            assert got == LaurentPoly.monomial(1, (r + s,), s + r)


def test_twisted_action_satisfies_module_axiom():
    p = [LaurentPoly.monomial(1, (2,), Fraction(1, 3))]
    tw = twisting_pq(p, Fraction(-1, 2), WittElem.apply)
    elems = laurent_window_basis(1, 2)
    assert check_module_axiom_window(tw, 1, Window(2), elems) == []


def test_window_checks_refuse_oversized_windows(no_window_enumeration):
    # 4 * 5^4 actors give about 3.1e6 pairs; with 4 module elements that is
    # more identities than the guard admits, so nothing is enumerated
    theta = natural_rep_gl(4)
    act = shen_larsson_action(theta)
    elems = [VTensorA.basis(4, 4, p, (0, 0, 0, 0)) for p in range(4)]
    with pytest.raises(SearchSpaceTooLarge, match="module-axiom identities"):
        check_module_axiom_window(act, 4, Window(2), elems)
    with pytest.raises(SearchSpaceTooLarge):
        check_weak_compat_window(act, 4, Window(3), elems)


def test_module_axiom_window_catches_scaled_action():
    # c * action breaks [u, v].m = u.(v.m) - v.(u.m) wherever [u, v].m != 0:
    # the residual is c (1 - c) [u, v].m.  1860 is the count the benchmark's
    # negative control expects for c = 2; c = 1/2 runs the Fraction path.  A
    # function around the built-in action is not the built-in action, so its
    # window is enumerated.
    theta = natural_rep_gl(2)
    action = shen_larsson_action(theta)
    elems = vtensor_window_basis(theta, 2, 1)
    doubled, halved = (
        check_module_axiom_window(lambda u, t, c=c: action(u, t).scale(c), 2, Window(1), elems)
        for c in (2, Fraction(1, 2))
    )
    for findings in (doubled, halved):
        assert len(findings) == 1860
        assert {f.rule for f in findings} == {"module-axiom"}
    assert [f.site for f in doubled] == [f.site for f in halved]
    assert all(type(c) is int for f in doubled for c in f.residual.terms.values())
    assert any(type(c) is Fraction for f in halved for c in f.residual.terms.values())


# --- the window checks against loops that recompute every image -----------

def reference_module_axiom(action, n, window, module_elems):
    """Five action calls per identity, nothing computed ahead."""
    findings = []
    for u, v in itertools.combinations(witt_window_basis(n, window.bound), 2):
        bw = witt_bracket(u, v)
        for m in module_elems:
            res = action(bw, m) - (action(u, action(v, m)) - action(v, action(u, m)))
            if not res.is_zero():
                findings.append(Finding("module-axiom", (str(u), str(v), str(m)), res))
    return findings


def reference_weak_compat(action, n, window, module_elems):
    """action(u, m) recomputed for every monomial a."""
    findings = []
    for u in witt_window_basis(n, window.bound):
        for a in laurent_window_basis(n, window.bound):
            ua = u.apply(a)
            for m in module_elems:
                lhs = action(u, m.poly_scale(a))
                rhs = action(u, m).poly_scale(a)
                if not ua.is_zero():
                    rhs = rhs + m.poly_scale(ua)
                res = lhs - rhs
                if not res.is_zero():
                    findings.append(Finding("weak-compat", (str(u), str(a), str(m)), res))
    return findings


def doubled_natural_n2(u, t):
    return shen_larsson_apply(natural_rep_gl(2), u, t).scale(2)


def corrupted_natural_n1(u, t):
    """The natural n=1 action plus s^2 v (x) x^{r+s}: neither a module nor first order."""
    extra = {}
    for (_, r), cu in u.terms.items():
        for (p, s), ct in t.terms.items():
            if s[0]:
                extra[(p, (r[0] + s[0],))] = cu * ct * s[0] ** 2
    return shen_larsson_apply(natural_rep_gl(1), u, t) + VTensorA(1, 1, extra)


@pytest.mark.parametrize(
    "action, n, bound",
    [(doubled_natural_n2, 2, 1), (corrupted_natural_n1, 1, 2)],
    ids=["doubled-natural-n2", "corrupted-natural-n1"],
)
def test_window_checks_match_recomputing_loops(action, n, bound):
    elems = vtensor_window_basis(natural_rep_gl(n), n, bound)
    axiom = check_module_axiom_window(action, n, Window(bound), elems)
    assert axiom == reference_module_axiom(action, n, Window(bound), elems)
    compat = check_weak_compat_window(action, n, Window(bound), elems)
    assert compat == reference_weak_compat(action, n, Window(bound), elems)
    assert axiom
    if action is doubled_natural_n2:
        assert len(axiom) == 1860
    else:
        assert compat


# (findings, sha256 of json.dumps([f.to_json() for f in findings])) of the
# module axiom and of weak compatibility for the natural n=2 action scaled
# by c at window 1, recorded at commit dde8a39
SCALED_NATURAL_FINDINGS = {
    1: [(0, hashlib.sha256(b"[]").hexdigest())] * 2,
    2: [
        (1860, "37e6280147521e5d1d9e2694e961b42c5bd96e59cc444d16707c5462f0f099f8"),
        (1944, "b48866811dd25211e1582f9235b6d4df863383702bdf4bd8e7a7536052604d09"),
    ],
    Fraction(1, 2): [
        (1860, "18796c43e9bf866b1ad05479c809b072621d32a8eb50f93c60e58bbc916f27d2"),
        (1944, "80e452ab3e3cebb28b7a2a620d7e4b39446a8d8a6e0b0a6e3a507d50cc9fa1b8"),
    ],
}


def test_window_checks_compute_each_image_once():
    # every call gets a one-term, unit-coefficient actor and module element,
    # and no (actor, module element) pair is asked for twice; the images of
    # sums come from bilinearity.  Module axiom: the window's 18 actors on
    # the 50 basis elements with exponents in [-2, 2]^2 (the images v.m),
    # plus the 50 actors there (the brackets [u, v]) on the window's 18
    # elements, less the 18 x 18 counted twice; weak compatibility: the 18
    # actors on those 50 elements (the products a m).  The findings of the
    # scaled actions are byte for byte those recorded
    n, bound = 2, 1
    theta = natural_rep_gl(n)
    elems = vtensor_window_basis(theta, n, bound)
    seen = []

    def counted(u, t):
        assert len(u.terms) == 1 and list(u.terms.values()) == [1]
        assert len(t.terms) == 1 and list(t.terms.values()) == [1]
        assert type(next(iter(u.terms.values()))) is type(next(iter(t.terms.values()))) is int
        seen.append((next(iter(u.terms)), next(iter(t.terms))))
        return shen_larsson_apply(theta, u, t).scale(c)

    checks = ((check_module_axiom_window, 1476), (check_weak_compat_window, 900))
    for c, recorded in SCALED_NATURAL_FINDINGS.items():
        for (check, calls), (count, digest) in zip(checks, recorded):
            seen.clear()
            findings = check(counted, n, Window(bound), elems)
            assert len(seen) == calls
            assert len(set(seen)) == calls
            assert len(findings) == count
            assert hashlib.sha256(json.dumps([f.to_json() for f in findings]).encode()).hexdigest() == digest


def natural_to_adjoint(u, t):
    """Images in V (x) A_2 for the adjoint V (dim 4), from natural-rep input (dim 2)."""
    image = shen_larsson_apply(natural_rep_gl(2), u, t)
    return VTensorA(2, 4, dict(image.terms))


@pytest.mark.parametrize(
    "action, found",
    [(natural_to_adjoint, "VTensorA"), (lambda u, t: None, "None"), (lambda u, t: u, "WittElem")],
    ids=["other-shape", "none", "other-class"],
)
def test_window_checks_refuse_an_image_outside_the_module(action, found):
    # an image is checked once, when it enters its table: it must be an
    # element of the module element's class and shape
    elems = vtensor_window_basis(natural_rep_gl(2), 2, 1)
    for check in (check_module_axiom_window, check_weak_compat_window):
        with pytest.raises(DimensionMismatch, match=rf"action image {found}.* is not in VTensorA\(2, 2\)"):
            check(action, 2, Window(1), elems)


def test_shen_larsson_apply_refuses_a_module_that_is_not_a_vtensor():
    theta = natural_rep_gl(2)
    u = WittElem.basis(2, (1, 0), 0)
    with pytest.raises(DimensionMismatch, match="LaurentPoly"):
        shen_larsson_apply(theta, u, LaurentPoly.monomial(2, (0, 1)))
    act, polys = shen_larsson_action(theta), laurent_window_basis(2, 1)
    for check in (check_module_axiom_window, check_weak_compat_window):
        with pytest.raises(DimensionMismatch, match="only on a VTensorA"):
            check(act, 2, Window(1), polys)


def halved_natural_n2(u, t):
    return shen_larsson_apply(natural_rep_gl(2), u, t).scale(Fraction(1, 2))


@pytest.mark.parametrize(
    "action",
    [shen_larsson_action(natural_rep_gl(2)), doubled_natural_n2, halved_natural_n2],
    ids=["natural", "doubled", "halved"],
)
def test_window_checks_match_recomputing_loops_off_the_basis(action):
    # sums with Fraction coefficients: the checks extend the action from its
    # basis images, the references call it on the sums themselves
    half = Fraction(1, 2)
    elems = [
        VTensorA.basis(2, 2, 0, (0, 1)) - VTensorA.basis(2, 2, 1, (1, -1), half),
        VTensorA.basis(2, 2, 1, (0, 0), Fraction(-2, 3)) + VTensorA.basis(2, 2, 1, (1, 1), 3),
        VTensorA.basis(2, 2, 0, (-1, 0)),
    ]
    axiom = check_module_axiom_window(action, 2, Window(1), elems)
    reference = reference_module_axiom(action, 2, Window(1), elems)
    assert axiom == reference
    assert [f.to_json() for f in axiom] == [f.to_json() for f in reference]
    compat = check_weak_compat_window(action, 2, Window(1), elems)
    assert compat == reference_weak_compat(action, 2, Window(1), elems)
    assert bool(axiom) is (action in (doubled_natural_n2, halved_natural_n2))


def shape_scaled_apply(u, t):
    """The coefficientwise action scaled by a factor that depends on the
    module: 1 on A_n, 5 on gl_n (x) A_n and dim_v + 1 on V (x) A_n.  Each
    scaled module with factor != 1 breaks both laws."""
    if isinstance(t, VTensorA):
        factor = t.dim_v + 1
    else:
        factor = 5 if isinstance(t, GlLaurent) else 1
    return u.apply(t).scale(factor)


@pytest.mark.parametrize("action", [WittElem.apply, shape_scaled_apply], ids=["apply", "shape-scaled"])
def test_window_checks_keep_the_modules_of_a_mixed_list_apart(action):
    # the key (0, s) names x^s in A_n, E_11 (x) x^s in gl_n (x) A_n and
    # v1 (x) x^s in each V (x) A_n; the images of one module must not serve
    # another
    n = 2
    elems = [
        LaurentPoly.monomial(n, (0, 1)),
        VTensorA.basis(n, 1, 0, (0, 1)),
        VTensorA.basis(n, 2, 0, (0, 1)) + VTensorA.basis(n, 2, 1, (1, 0), Fraction(1, 3)),
        GlLaurent.basis(n, 0, 0, (0, 1)),
        LaurentPoly.monomial(n, (1, -1), Fraction(-1, 2)),
    ]
    axiom = check_module_axiom_window(action, n, Window(1), elems)
    assert axiom == reference_module_axiom(action, n, Window(1), elems)
    compat = check_weak_compat_window(action, n, Window(1), elems)
    assert compat == reference_weak_compat(action, n, Window(1), elems)
    if action is WittElem.apply:
        assert axiom == compat == []
    else:
        broken = {f.site[2] for f in axiom} | {f.site[2] for f in compat}
        assert broken == {str(m) for m in elems[1:4]}


# --- the symbolic pass of the built-in action ------------------------------


def e12_doubled_rep():
    """The natural gl_2-representation with theta(E_12) doubled: no
    representation, so V (x) A_2 is no module."""
    theta = natural_rep_gl(2).theta
    return GlnRep(2, 2, {k: m.scale(2) if k == (0, 1) else m for k, m in theta.items()})


SYMBOLIC_REPS = {"trivial": trivial_rep, "natural": natural_rep_gl, "adjoint": adjoint_rep_gl}
SYMBOLIC_CASES = [(n, name) for n in (1, 2) for name in SYMBOLIC_REPS] + [(2, "E_12 doubled")]


def symbolic_case(n, name):
    """(theta, window bound, window module elements): window 2 for n = 1,
    window 1 for n = 2."""
    theta = e12_doubled_rep() if name == "E_12 doubled" else SYMBOLIC_REPS[name](n)
    bound = 2 if n == 1 else 1
    return theta, bound, vtensor_window_basis(theta, n, bound)


@pytest.mark.parametrize("n, name", SYMBOLIC_CASES)
def test_each_window_residual_of_the_built_in_action_is_an_evaluation_of_a_symbolic_one(n, name):
    theta, bound, elems = symbolic_case(n, name)
    images = crosshom.rinehart._bilinear_images(shen_larsson_action(theta), n)
    kinds_r, kinds_s = (crosshom.witt._symbolic_basis(n, "full", x) for x in "rs")
    kinds_m = crosshom.rinehart._symbolic_module_elems(elems)
    kinds_q = [LaurentPoly.monomial(n, Poly.variables("q", n))]
    assert len(kinds_m) == theta.dim_v

    def axiom(u, v, m):
        # the check's own defect generator on the one pair (u, v) and m
        pair = crosshom.rinehart._actor_images(images, [u, v], [m])
        return next((res for *_, res in crosshom.rinehart._module_axiom_defects(images, [pair], [m])), {})

    def compat(u, a, m):
        return next((res for *_, res in crosshom.rinehart._weak_compat_defects(images, [u], [a], [m])), {})

    rng = random.Random(f"symbolic-{n}-{name}")
    actors = witt_window_basis(n, bound)
    nonzero = 0
    for u, v, m in rng.sample(list(itertools.product(actors, actors, elems)), 80):
        (ku, pu), (kv, pv), (km, pm) = instance(kinds_r, u, "r"), instance(kinds_s, v, "s"), instance(kinds_m, m, "t")
        got = axiom(u, v, m)
        assert evaluated(axiom(ku, kv, km), pu | pv | pm) == got
        nonzero += bool(got)
    monomials = laurent_window_basis(n, bound)
    for u, a, m in rng.sample(list(itertools.product(actors, monomials, elems)), 80):
        (ku, pu), (kq, pq), (km, pm) = instance(kinds_r, u, "r"), instance(kinds_q, a, "q"), instance(kinds_m, m, "t")
        got = compat(u, a, m)
        assert evaluated(compat(ku, kq, km), pu | pq | pm) == got == {}
    assert bool(nonzero) is (name == "E_12 doubled")


@pytest.mark.parametrize("n, name", [(n, name) for n in (1, 2, 3) for name in SYMBOLIC_REPS] + [(2, "E_12 doubled")])
def test_symbolic_pass_on_unordered_kinds_and_without_a_table(n, name):
    # the module-axiom residual is antisymmetric in the actors, so the
    # failing unordered kind pairs are the failing ordered ones with i > j
    # folded onto (j, i); and the symbolic pass, which adds each term in
    # place from theta with no table, gives term by term every actor image
    # and every residual of both identities that the image table, filled by
    # calls of the action, gives.  Only the built-in action reaches the
    # symbolic pass
    theta, bound, elems = symbolic_case(n, name)
    action = shen_larsson_action(theta)
    ms = crosshom.rinehart._symbolic_module_elems(elems)
    q = [LaurentPoly.monomial(n, Poly.variables("q", n))]
    passes = []
    for images in (crosshom.rinehart._symbolic_images(action, n), crosshom.rinehart._bilinear_images(action, n)):
        kinds = [crosshom.rinehart._actor_images(images, crosshom.witt._symbolic_basis(n, "full", x), ms) for x in "rs"]
        actors = [[u for u, _ in side] for side in kinds]

        def found(pairs):
            return [
                (actors[0].index(u), actors[1].index(v), ms.index(m), res)
                for u, v, m, res in crosshom.rinehart._module_axiom_defects(images, pairs, ms)
            ]

        ordered = found(itertools.product(*kinds))
        unordered = found(crosshom.witt._unordered_kind_pairs(*kinds))
        assert {(min(i, j), max(i, j), p) for i, j, p, _ in ordered} == {(i, j, p) for i, j, p, _ in unordered}
        assert all(i <= j for i, j, _, _ in unordered)
        compat = list(crosshom.rinehart._weak_compat_defects(images, actors[0], q, ms))
        u_ms = [u_ms for side in kinds for _, u_ms in side]
        assert len(u_ms) == 2 * n and all(all(image) for image in u_ms)
        passes.append((u_ms, ordered, unordered, [(actors[0].index(u), ms.index(m), res) for u, _, m, res in compat]))
    assert passes[0] == passes[1]
    # at n = 2 the two actor kinds give 3 unordered pairs; E_12 doubled
    # fails 2 module-axiom identities and, as every theta, no weak-compat one
    _, ordered, unordered, compat = passes[0]
    assert (len(ordered), len(unordered), len(compat)) == ((4, 2, 0) if name == "E_12 doubled" else (0, 0, 0))


@pytest.mark.parametrize("n, name", SYMBOLIC_CASES)
def test_built_in_action_and_a_wrapped_one_give_equal_findings(n, name):
    # a lambda around the built-in action is a caller's callable: the window
    # is enumerated for it, and the findings are those of the built-in
    theta, bound, elems = symbolic_case(n, name)
    action = shen_larsson_action(theta)
    wrapped = lambda w, t: action(w, t)  # noqa: E731
    counts = []
    for check in (check_module_axiom_window, check_weak_compat_window):
        got = check(action, n, Window(bound), elems)
        reference = check(wrapped, n, Window(bound), elems)
        assert got == reference
        assert [f.to_json() for f in got] == [f.to_json() for f in reference]
        counts.append(len(got))
    assert counts == ([648, 0] if name == "E_12 doubled" else [0, 0])


@pytest.mark.parametrize("n, bound", [(1, 2), (2, 2), (3, 1)])
def test_passing_built_in_checks_enumerate_no_window(request, n, bound):
    cases = []
    for build in SYMBOLIC_REPS.values():
        theta = build(n)
        cases.append((shen_larsson_action(theta), vtensor_window_basis(theta, n, bound)))
    request.getfixturevalue("no_window_enumeration")
    for action, elems in cases:
        assert check_module_axiom_window(action, n, Window(bound), elems) == []
        assert check_weak_compat_window(action, n, Window(bound), elems) == []


def test_passing_module_axiom_brackets_each_unordered_actor_kind_pair_once(monkeypatch):
    # n actor kinds x^r d_i give n (n + 1) / 2 unordered pairs, each
    # bracketed once for all module kinds; the window is never reached
    brackets = []

    def counted(a, b):
        brackets.append((a, b))
        return witt_bracket(a, b)

    monkeypatch.setattr(crosshom.rinehart, "witt_bracket", counted)
    for n in (1, 2, 3):
        theta = adjoint_rep_gl(n)
        brackets.clear()
        assert check_module_axiom_window(shen_larsson_action(theta), n, Window(1), vtensor_window_basis(theta, n, 1)) == []
        assert len(brackets) == n * (n + 1) // 2


def test_passing_built_in_checks_render_nothing(monkeypatch):
    # an element, symbolic or not, is rendered only for a finding: a passing
    # check builds no string
    def refuse(self):
        raise AssertionError("an element was rendered")

    monkeypatch.setattr(crosshom.witt.TensorElem, "__str__", refuse)
    monkeypatch.setattr(Poly, "__str__", refuse)
    p = [LaurentPoly.monomial(2, (2, 0), 3), LaurentPoly.monomial(2, (0, 2), 3)]
    for family, n in (("full", 2), ("sdiv", 2), ("ham", 1), ("pq", 2)):
        assert crosshom.witt.verify_witt_crossed_hom(n, family, Window(2), p=p, q=Fraction(1, 2)) == []
    for n, build in itertools.product((1, 2), SYMBOLIC_REPS.values()):
        theta = build(n)
        action, elems = shen_larsson_action(theta), vtensor_window_basis(theta, n, 1)
        assert check_module_axiom_window(action, n, Window(1), elems) == []
        assert check_weak_compat_window(action, n, Window(1), elems) == []


def test_built_in_action_looks_up_shen_larsson_apply_when_called(monkeypatch):
    # an action built before `shen_larsson_apply` is wrapped (as a tracer
    # does) calls the wrapper in the window loop, once per pair of basis
    # keys; the symbolic pass before it calls nothing
    theta = e12_doubled_rep()
    action = shen_larsson_action(theta)
    elems = vtensor_window_basis(theta, 2, 1)
    calls = []

    def counted(*args):
        calls.append(args)
        return shen_larsson_apply(*args)

    monkeypatch.setattr(crosshom.rinehart, "shen_larsson_apply", counted)
    assert len(check_module_axiom_window(action, 2, Window(1), elems)) == 648
    assert len(calls) == 1476
    assert all(len(args[1].terms) == len(args[2].terms) == 1 for args in calls)


def test_symbolic_passes_call_no_action_and_build_no_element_per_actor_term(request, monkeypatch):
    # natural n = 2 passes both checks on the symbolic kinds alone: theta is
    # read in place, so neither pass calls `shen_larsson_apply`, and the
    # only VTensorA built are the 2 symbolic module elements and, for weak
    # compatibility, their 2 products by x^q
    theta = natural_rep_gl(2)
    action, elems = shen_larsson_action(theta), vtensor_window_basis(theta, 2, 1)
    request.getfixturevalue("no_window_enumeration")
    built = []
    init = VTensorA.__init__

    def counted_init(self, *args):
        built.append(args)
        init(self, *args)

    def refuse(*args):
        raise AssertionError("the symbolic pass called shen_larsson_apply")

    monkeypatch.setattr(crosshom.rinehart, "shen_larsson_apply", refuse)
    monkeypatch.setattr(VTensorA, "__init__", counted_init)
    for check, count in ((check_module_axiom_window, 2), (check_weak_compat_window, 4)):
        built.clear()
        assert check(action, 2, Window(1), elems) == []
        assert len(built) == count


@pytest.mark.parametrize(
    "n, elems, message",
    [
        (2, [VTensorA.basis(2, 2, 0, (0, 1)), LaurentPoly.monomial(2, (1, 0))], "cannot act on a LaurentPoly, only on a VTensorA"),
        (2, [VTensorA.basis(3, 2, 0, (0, 1, 0))], "variable counts differ"),
        (1, [VTensorA.basis(1, 2, 0, (1,))], "variable counts differ"),
        (2, [VTensorA.basis(2, 3, 2, (0, 1))], "tensor component count differs from dim V"),
    ],
    ids=["laurent", "variables", "actor-variables", "dim-v"],
)
def test_symbolic_pass_refuses_with_the_messages_of_shen_larsson_apply(monkeypatch, n, elems, message):
    # the built-in action of the natural gl_2-representation refuses, in the
    # symbolic pass and before any call of the action, each module element
    # `shen_larsson_apply` refuses, with its message
    action = shen_larsson_action(natural_rep_gl(2))
    monkeypatch.setattr(crosshom.rinehart, "shen_larsson_apply", None)
    for check in (check_module_axiom_window, check_weak_compat_window):
        with pytest.raises(DimensionMismatch) as refused:
            check(action, n, Window(1), elems)
        assert str(refused.value) == message


def window_check_outcome(check, action, elems):
    """The findings of check on elems at n = 2, window 1, or the message of
    the DimensionMismatch it raises."""
    try:
        return check(action, 2, Window(1), elems)
    except DimensionMismatch as e:
        return str(e)


@pytest.mark.parametrize(
    "elems",
    [
        [VTensorA.basis(2, 2, 0, (0, 1)), LaurentPoly.monomial(2, (1, 0))],
        [VTensorA.basis(2, 3, 2, (0, 1))],
        [VTensorA.basis(3, 2, 0, (0, 1, 0))],
        [VTensorA.basis(2, 2, 0, (0, 1)), VTensorA.zero(3, 2)],
    ],
    ids=["laurent", "dim-v", "variables", "zero-of-three-variables"],
)
def test_built_in_and_wrapped_actions_refuse_the_same_modules(elems):
    action = shen_larsson_action(natural_rep_gl(2))
    for check in (check_module_axiom_window, check_weak_compat_window):
        got = window_check_outcome(check, action, elems)
        assert got == window_check_outcome(check, lambda w, t: action(w, t), elems)
    assert type(got) is str


# --- the int coefficient path against the Fraction-only kernels -----------

def ref_shen_larsson_apply(theta, w, t):
    """Fraction-only action read from the dense theta matrices."""
    out = {}
    for (i, r), cw in w.terms.items():
        for (p, s), ct in t.terms.items():
            c = Fraction(cw) * Fraction(ct)
            key_exp = tuple(a + b for a, b in zip(r, s))
            if s[i]:
                ref_add_term(out, (p, key_exp), c * s[i])
            for k in range(theta.n):
                if r[k]:
                    col = theta.theta[(k, i)].col(p)
                    for p2, e in enumerate(col):
                        if e:
                            ref_add_term(out, (p2, key_exp), c * r[k] * e)
    return VTensorA(theta.n, theta.dim_v, out)


def ref_poly_scale(t, a):
    out = {}
    for (p, s), ct in t.terms.items():
        for (_, r), ca in a.terms.items():
            key = (p, tuple(u + v for u, v in zip(r, s)))
            ref_add_term(out, key, Fraction(ct) * Fraction(ca))
    return VTensorA(t.n, t.dim_v, out)


def _oracle_reps(n):
    return {
        "trivial": trivial_rep(n),
        "natural": natural_rep_gl(n),
        "adjoint": adjoint_rep_gl(n),
        "natural (x) adjoint": tensor_rep(natural_rep_gl(n), adjoint_rep_gl(n)),
    }


def test_shen_larsson_int_path_matches_fraction_reference():
    rng = random.Random(23)
    pairs = 0
    for n in (1, 2):
        for theta in _oracle_reps(n).values():
            for cols in theta.columns:
                for col in cols:
                    assert all(type(e) is int for _, _, e in col)
            for k in range(80):
                integral = k % 2 == 0
                w = random_sparse_sum(
                    rng,
                    lambda c: WittElem.basis(n, random_exponent(rng, n), rng.randrange(n), c),
                    integral,
                )
                t = random_sparse_sum(
                    rng,
                    lambda c: VTensorA.basis(
                        n, theta.dim_v, rng.randrange(theta.dim_v), random_exponent(rng, n), c
                    ),
                    integral,
                )
                got = shen_larsson_apply(theta, w, t)
                assert got == ref_shen_larsson_apply(theta, w, t)
                assert_exact_terms(got, integral)
                pairs += 1
    assert pairs >= 300


# --- W_n as the tensor module of the dual natural representation ---------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_witt_bracket_is_the_shen_larsson_action_on_the_dual_natural_module(n):
    # W_n = T(V*): x^s d_j is v_j (x) x^s, and the bracket is the
    # Shen-Larsson action read from the dense theta(E_ki) = -E_ik
    dual = GlnRep(n, n, {k: -transpose(m) for k, m in natural_rep_gl(n).theta.items()})
    assert check_gln_rep(dual) == []
    rng = random.Random(f"dual-natural-{n}")
    witt = lambda c: WittElem.basis(n, random_exponent(rng, n), rng.randrange(n), c)
    nonzero = 0
    for k in range(60):
        integral = k % 2 == 0
        a, b = random_sparse_sum(rng, witt, integral), random_sparse_sum(rng, witt, integral)
        got = witt_bracket(a, b)
        assert got.terms == shen_larsson_apply(dual, a, VTensorA(n, n, b.terms)).terms
        assert got.terms == ref_shen_larsson_apply(dual, a, VTensorA(n, n, b.terms)).terms
        nonzero += not got.is_zero()
    assert nonzero >= 40


@pytest.mark.parametrize("n, bound, doubled_findings", [(1, 2, 42), (2, 1, 1836)])
def test_jacobi_is_the_module_law_of_the_adjoint_action(n, bound, doubled_findings):
    # the Jacobi identity of W_n is the module law of W_n acting on itself;
    # twice the bracket breaks it, with the findings of the recomputing loop
    elems = witt_window_basis(n, bound)
    assert check_module_axiom_window(witt_bracket, n, Window(bound), elems) == []

    def doubled(u, v):
        return witt_bracket(u, v).scale(2)

    got = check_module_axiom_window(doubled, n, Window(bound), elems)
    assert len(got) == doubled_findings
    assert got == reference_module_axiom(doubled, n, Window(bound), elems)


def test_poly_scale_int_path_matches_fraction_reference():
    rng = random.Random(29)
    for n in (1, 2):
        for k in range(160):
            integral = k % 2 == 0
            dim_v = rng.randint(1, 3)
            t = random_sparse_sum(
                rng,
                lambda c: VTensorA.basis(n, dim_v, rng.randrange(dim_v), random_exponent(rng, n), c),
                integral,
            )
            a = random_sparse_sum(
                rng, lambda c: LaurentPoly.monomial(n, random_exponent(rng, n), c), integral
            )
            got = t.poly_scale(a)
            assert got == ref_poly_scale(t, a)
            assert_exact_terms(got, integral)


# --- the merged laws against the dense loops they replace ---


def _ref_lie_hom(lie, mats, rule):
    """mats[[i, j]] - [mats[i], mats[j]] of every pair, kept where it is nonzero."""
    findings = []
    for i, j in itertools.combinations(range(lie.dim), 2):
        diff = lincomb(mats, bracket_basis(lie, i, j)) - (mats[i] * mats[j] - mats[j] * mats[i])
        if not diff.is_zero():
            findings.append(Finding(rule, (lie.basis_names[i], lie.basis_names[j]), diff))
    return findings


def _ref_first_order(mod, D, sigma, rule, site=()):
    """D a_s - (a_s D + sigma(a_s)) of every a_s, kept where it is nonzero."""
    A = mod.algebra
    findings = []
    for s in range(A.dim):
        diff = D * mod.action[s] - (mod.action[s] * D + mod.of(sigma.col(s)))
        if not diff.is_zero():
            findings.append(Finding(rule, site + (A.basis_names[s],), diff))
    return findings


def _ref_a_linear(lr, left, mats, rule):
    """mats(a_s x_i) - left(a_s) mats(x_i) of every (a_s, x_i), kept where it is nonzero."""
    A, L = lr.algebra, lr.lie
    findings = []
    for s in range(A.dim):
        for i in range(L.dim):
            diff = lincomb(mats, lr.a_action[s].col(i)) - left(s) * mats[i]
            if not diff.is_zero():
                findings.append(Finding(rule, (A.basis_names[s], L.basis_names[i]), diff))
    return findings


def _perturbed_matrices(rng, mats):
    mats = list(mats)
    for k in rng.sample(range(len(mats)), rng.randint(1, len(mats))):
        data = list(mats[k].data)
        for p in rng.sample(range(len(data)), rng.randint(1, 2)):
            data[p] += Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))
        mats[k] = Matrix(mats[k].rows, mats[k].cols, tuple(data))
    return tuple(mats)


def _rules(findings, *rules):
    return [f for f in findings if f.rule in rules]


def test_merged_laws_match_the_dense_references():
    lr, block = formats.load_file(str(FIXTURES / "derivations_trunc3.lr.json"))
    mod, rho = formats.module_from_dict(lr.algebra, lr.lie.basis_names, block, "module")
    pair = formats.load_file(str(FIXTURES / "derivations_trunc3.pair.json"))
    A, L = lr.algebra, lr.lie
    rng = random.Random(91)
    seen = Counter()
    for round_ in range(30):
        a_action = _perturbed_matrices(rng, lr.a_action) if round_ % 3 == 0 else lr.a_action
        lr2 = LieRinehart(A, L, a_action, _perturbed_matrices(rng, lr.anchor))
        mod2 = AModuleStructure(A, mod.dim_m, _perturbed_matrices(rng, mod.action)) if round_ % 4 == 0 else mod
        rho2 = _perturbed_matrices(rng, rho)
        p2 = LeibnizPair(A, pair.lie, _perturbed_matrices(rng, pair.beta))

        got = check_lie_rinehart(lr2)
        assert _rules(got, "anchor-lie-hom") == _ref_lie_hom(L, lr2.anchor, "anchor-lie-hom")
        mult = lambda s: A.mult_matrix(A.basis_vector(s))
        assert _rules(got, "anchor-a-linear") == _ref_a_linear(lr2, mult, lr2.anchor, "anchor-a-linear")
        got_pair = check_leibniz_pair(p2)
        assert _rules(got_pair, "beta-lie-hom") == _ref_lie_hom(p2.lie, p2.beta, "beta-lie-hom")

        for carrier in (lr, lr2):
            expected = _ref_lie_hom(L, rho2, "lie-hom")
            for i in range(L.dim):
                expected += _ref_first_order(mod2, rho2[i], carrier.anchor[i], "first-order", (L.basis_names[i],))
            expected += _ref_a_linear(carrier, lambda s: mod2.action[s], rho2, "a-linear")
            got = check_weak_rep(carrier, mod2, rho2, strict=True)
            assert got == expected
            seen.update(f.rule for f in got)
        for p in (pair, p2):
            expected = _ref_lie_hom(p.lie, rho2, "lie-hom")
            for i in range(p.lie.dim):
                expected += _ref_first_order(mod2, rho2[i], p.beta[i], "admissible-anchor", (p.lie.basis_names[i],))
            assert check_admissible_rep(p, mod2, rho2) == expected
            seen.update(f.rule for f in expected)
        op = FirstOrderOp(rho2[0], lr2.anchor[1])
        got = check_first_order_op(mod2, op)
        assert _rules(got, "first-order") == _ref_first_order(mod2, op.D, op.sigma, "first-order")
        for f in _rules(got, "first-order") + _rules(check_lie_rinehart(lr2), "anchor-lie-hom", "anchor-a-linear"):
            assert all(type(x) is Fraction for x in f.residual.data)
        seen.update(f.rule for f in check_lie_rinehart(lr2) + got_pair)
    for rule in ("anchor-lie-hom", "anchor-a-linear", "beta-lie-hom", "lie-hom", "first-order", "a-linear", "admissible-anchor"):
        assert seen[rule] >= 10, seen


# --- the first-order rule and the gl_n relations against the dense oracles ---


def _scaling_pair(bounds):
    A = truncated_polynomial_algebra(bounds)
    deltas = tuple(scaling_derivation(bounds, v) for v in range(len(bounds)))
    return LeibnizPair(A, abelian(tuple(f"D{i + 1}" for i in range(len(bounds)))), deltas)


def _oracle_bundle(name):
    """(Lie-Rinehart algebra, module block or {}) for a fixture bundle or an
    action Lie-Rinehart algebra."""
    if name.endswith(".lr.json"):
        return formats.load_file(str(FIXTURES / name))
    if name.endswith(".pair.json"):
        return action_lie_rinehart(formats.load_file(str(FIXTURES / name))), {}
    return action_lie_rinehart(_scaling_pair(tuple(int(b) for b in name.split(",")))), {}


ORACLE_BUNDLES = sorted(p.name for p in FIXTURES.glob("*.lr.json")) + [
    "3",
    "2,2",
    "2,3",
    "derivations_trunc3.pair.json",
]


def _weak_reps(lr, block):
    """(module, rho) pairs to perturb: the bundle's own module, the natural
    and the adjoint weak representations."""
    reps = [natural_rep(lr), adjoint_weak_rep(lr)]
    if block:
        reps.append(formats.module_from_dict(lr.algebra, lr.lie.basis_names, block, "module"))
    return reps


@pytest.mark.parametrize("name", ORACLE_BUNDLES)
def test_lie_rinehart_findings_match_the_dense_leibniz_loop(name):
    lr, _ = _oracle_bundle(name)
    A, L = lr.algebra, lr.lie
    rng = random.Random(ORACLE_BUNDLES.index(name))
    variants = [lr]
    for _ in range(10):
        variants.append(LieRinehart(A, L, _perturbed_matrices(rng, lr.a_action), lr.anchor))
        variants.append(LieRinehart(A, L, lr.a_action, _perturbed_matrices(rng, lr.anchor)))
    seen = Counter()
    for variant in variants:
        got = check_lie_rinehart(variant)
        assert got == ref_lie_rinehart_findings(variant)
        seen.update(f.rule for f in got)
    assert seen["leibniz"] >= 10, seen


def test_leibniz_pair_findings_match_the_dense_reference():
    pairs = [formats.load_file(str(FIXTURES / n)) for n in ("derivations_trunc3.pair.json", "beta_bad.pair.json")]
    pairs += [_scaling_pair(b) for b in ((3,), (2, 2))]
    rng = random.Random(5)
    seen = Counter()
    for p in pairs:
        for beta in [p.beta] + [_perturbed_matrices(rng, p.beta) for _ in range(10)]:
            q = LeibnizPair(p.algebra, p.lie, beta)
            got = check_leibniz_pair(q)
            assert got == ref_leibniz_pair_findings(q)
            seen.update(f.rule for f in got)
    assert seen["beta-derivation"] >= 10 and seen["beta-lie-hom"] >= 1, seen


@pytest.mark.parametrize("name", [n for n in ORACLE_BUNDLES if n != "2,3"])
def test_representation_findings_match_the_dense_first_order_rule(name):
    lr, block = _oracle_bundle(name)
    A, L = lr.algebra, lr.lie
    pair = underlying_pair(lr)
    rng = random.Random(100 + ORACLE_BUNDLES.index(name))
    seen = Counter()
    for mod, rho in _weak_reps(lr, block):
        variants = [(mod, rho)]
        for _ in range(10):
            variants.append((mod, _perturbed_matrices(rng, rho)))
            variants.append((AModuleStructure(A, mod.dim_m, _perturbed_matrices(rng, mod.action)), rho))
        for mod2, rho2 in variants:
            weak = ref_rep_findings(L, mod2, rho2, lr.anchor, "first-order")
            assert check_weak_rep(lr, mod2, rho2) == weak
            strict = weak + crosshom.rinehart._a_linear_violations(lr, mod2, rho2, "a-linear")
            assert check_weak_rep(lr, mod2, rho2, strict=True) == strict
            admissible = ref_rep_findings(L, mod2, rho2, pair.beta, "admissible-anchor")
            assert check_admissible_rep(pair, mod2, rho2) == admissible
            for D, sigma in zip(rho2, lr.anchor):
                expected = derivation_violations(A, sigma)
                expected += ref_first_order_findings(mod2, D, sigma, "first-order")
                assert check_first_order_op(mod2, FirstOrderOp(D, sigma)) == expected
            seen.update(f.rule for f in weak + admissible)
    assert seen["first-order"] >= 10 and seen["admissible-anchor"] >= 10, seen


def test_first_order_op_rejects_a_wrongly_sized_operator():
    lr = derivation_model()
    mod = regular_module(lr.algebra)
    for D in (Matrix.identity(2), Matrix.zero(3, 2), Matrix.zero(2, 3), Matrix.identity(4)):
        with pytest.raises(DimensionMismatch):
            check_first_order_op(mod, FirstOrderOp(D, lr.anchor[0]))


def test_leibniz_bad_fixture_fires_leibniz_and_module_assoc():
    lr, block = formats.load_file(str(FIXTURES / "leibniz_bad.lr.json"))
    mod, rho = formats.module_from_dict(lr.algebra, lr.lie.basis_names, block, "module")
    assert [str(f) for f in check_lie_rinehart(lr)] == [
        "module-assoc at (x, x): residual [0, 0; -1, 0]",
        "anchor-a-linear at (x^2, D1): residual [0, 0, 0; 0, 0, 0; 0, 1, 0]",
        "leibniz at (D1, x^2, D1): residual (0, -1)",
        "leibniz at (D2, x, D1): residual (0, -1)",
    ]
    assert [str(f) for f in check_weak_rep(lr, mod, rho)] == [
        "first-order at (D2, x): residual [0, 0, 0; 0, 0, 0; 1, 0, 0]",
    ]


def test_adjoint_rep_gl_matches_the_dense_loop():
    # natural_rep_gl too, against the dense matrix units
    for n in range(1, 5):
        for rep, ref in ((adjoint_rep_gl(n), ref_adjoint_rep_gl(n)), (natural_rep_gl(n), ref_natural_rep_gl(n))):
            assert rep.theta == ref
            assert list(rep.theta) == [(i, j) for i in range(n) for j in range(n)]
            assert all(type(x) is Fraction for m in rep.theta.values() for x in m.data)


def test_gln_rep_reports_each_broken_pair_once():
    rep = natural_rep_gl(2)
    theta = dict(rep.theta)
    theta[(0, 1)] = theta[(0, 1)].scale(2)  # E_12 acts as 2 E_12
    theta[(1, 0)] = theta[(0, 1)]  # E_21 acts as 2 E_12
    broken = GlnRep(2, 2, theta)
    assert [str(f) for f in check_gln_rep(broken)] == [
        "gl-relation at (E11, E21): residual [0, -4; 0, 0]",
        "gl-relation at (E12, E21): residual [1, 0; 0, -1]",
        "gl-relation at (E21, E22): residual [0, -4; 0, 0]",
    ]


def test_a_module_laws_match_the_dense_oracles():
    lr, block = formats.load_file(str(FIXTURES / "derivations_trunc3.lr.json"))
    mod, rho = formats.module_from_dict(lr.algebra, lr.lie.basis_names, block, "module")
    bounds = (2, 2)
    pair = LeibnizPair(
        truncated_polynomial_algebra(bounds),
        abelian(("D1", "D2")),
        tuple(scaling_derivation(bounds, v) for v in range(2)),
    )
    scaling = action_lie_rinehart(pair)
    rng = random.Random(92)
    seen = Counter()
    for base, mod0, mats0 in ((lr, mod, rho), (scaling, regular_module(pair.algebra), scaling.anchor)):
        A, L = base.algebra, base.lie
        for round_ in range(30):
            a_action = _perturbed_matrices(rng, base.a_action) if round_ % 2 else base.a_action
            lr2 = LieRinehart(A, L, a_action, base.anchor)
            mod2 = AModuleStructure(A, mod0.dim_m, _perturbed_matrices(rng, mod0.action))
            mats2 = _perturbed_matrices(rng, mats0) if round_ % 3 else mats0
            for m in (mod2, lr2.l_module()):
                got = check_a_module(m)
                assert got == ref_check_a_module(m)
                assert [str(f) for f in got] == [str(f) for f in ref_check_a_module(m)]
                seen.update(f.rule for f in got)
            for m in (mod2, mod0):
                got = crosshom.rinehart._a_linear_violations(lr2, m, mats2, "a-linear")
                expected = ref_a_linear_violations(lr2, m, mats2, "a-linear")
                assert got == expected
                assert [str(f) for f in got] == [str(f) for f in expected]
                seen.update(f.rule for f in got)
    assert seen["module-assoc"] >= 10 and seen["module-unit"] >= 10 and seen["a-linear"] >= 10, seen


def test_module_unit_finding_is_pinned():
    """No golden CLI row fires module-unit; this report was recorded before
    the A-module laws were accumulated over nonzeros."""
    A = truncated_polynomial_algebra((3,))
    reg = regular_module(A)
    bump = Matrix.from_rows([[0, 0, 0], [Fraction(1, 2), 0, 0], [0, 0, 0]])
    bad = AModuleStructure(A, reg.dim_m, (reg.action[0] + bump,) + reg.action[1:])
    assert [str(f) for f in check_a_module(bad)] == [
        "module-assoc at (1, 1): residual [0, 0, 0; 1/2, 0, 0; 0, 0, 0]",
        "module-assoc at (x, 1): residual [0, 0, 0; 0, 0, 0; 1/2, 0, 0]",
        "module-unit at (1): residual [0, 0, 0; 1/2, 0, 0; 0, 0, 0]",
    ]


def _dense_entries(obj):
    """Every entry of the matrices, vectors, structure constants and finding
    residuals inside obj."""
    if isinstance(obj, Matrix):
        yield from obj.data
    elif isinstance(obj, FinLieAlgebra):
        yield from _dense_entries(tuple(obj.structure.values()))
    elif isinstance(obj, Finding):
        yield from _dense_entries(obj.residual)
    elif isinstance(obj, Setup):
        yield from _dense_entries((obj.g, obj.h, obj.rho.matrices, obj.H.matrix))
    elif isinstance(obj, LieRinehart):
        yield from _dense_entries((obj.lie, obj.a_action, obj.anchor))
    elif isinstance(obj, GlnRep):
        yield from _dense_entries(tuple(obj.theta.values()))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _dense_entries(x)
    else:
        yield obj


def _moved(m: Matrix) -> Matrix:
    """m with 1/3 added to its entry (0, 1)."""
    return m + Matrix(m.rows, m.cols, tuple(Fraction(k == 1, 3) for k in range(m.rows * m.cols)))


def test_dense_values_over_integral_sparse_views_are_fractions():
    # col_nonzeros and structure_terms hold ints; what they fill densely is Fractions
    objects = []
    for bounds in ((2, 2), (2, 2, 2)):
        A = truncated_polynomial_algebra(bounds)
        deltas = tuple(scaling_derivation(bounds, v) for v in range(len(bounds)))
        s = generalized_witt_setup(A, deltas)
        x = tuple(Fraction(k % 3 - 1) for k in range(s.g.dim))
        objects += [s, induced_action(s).matrices, semidirect(s.g, s.h, s.rho), s.g.ad(x), s.rho.of(x)]
        lr = action_lie_rinehart(LeibnizPair(A, abelian(tuple(f"D{v + 1}" for v in range(len(bounds)))), deltas))
        objects.append(lr)
        if bounds == (2, 2):
            moved_rho = LieAction(s.g, s.h, (_moved(s.rho.matrices[0]),) + s.rho.matrices[1:])
            moved_g = FinLieAlgebra(s.g.basis_names, {**s.g.structure, (0, 1): x})
            moved_lr = LieRinehart(A, lr.lie, lr.a_action, (_moved(lr.anchor[0]),) + lr.anchor[1:])
            findings = check_crossed_hom(Setup(s.g, s.h, s.rho, CrossedHom(_moved(s.H.matrix))))
            findings += check_action(moved_rho) + check_lie_algebra(moved_g) + check_lie_rinehart(moved_lr)
            rules = {"crossed-hom", "derivation", "homomorphism", "jacobi", "anchor-derivation", "leibniz"}
            assert {f.rule for f in findings} >= rules
            objects.append(findings)
    for n in (2, 3):
        theta = adjoint_rep_gl(n)
        moved = GlnRep(n, theta.dim_v, {**theta.theta, (0, 0): _moved(theta.theta[0, 0])})
        objects += [theta, check_gln_rep(moved)]
    entries = list(_dense_entries(objects))
    assert len(entries) > 10**5
    assert {type(x) for x in entries} == {Fraction}


def _square_families() -> dict:
    """Each family of square matrices, one per basis vector, by the name its
    messages use: (the family built from given matrices, count, dim)."""
    lr, block = formats.load_file(str(FIXTURES / "derivations_trunc3.lr.json"))
    mod = formats.module_from_dict(lr.algebra, lr.lie.basis_names, block, "module")[0]
    A, L, pair = lr.algebra, lr.lie, underlying_pair(lr)
    return {
        "action": (lambda m: LieAction(L, L, m), L.dim, L.dim),
        "module action": (lambda m: AModuleStructure(A, mod.dim_m, m), A.dim, mod.dim_m),
        "A-action": (lambda m: LieRinehart(A, L, m, lr.anchor), A.dim, L.dim),
        "anchor": (lambda m: LieRinehart(A, L, lr.a_action, m), L.dim, A.dim),
        "beta": (lambda m: LeibnizPair(A, L, m), L.dim, A.dim),
        "weak representation": (lambda m: check_weak_rep(lr, mod, m), L.dim, mod.dim_m),
        "admissible representation": (lambda m: check_admissible_rep(pair, mod, m), L.dim, mod.dim_m),
    }


@pytest.mark.parametrize("family", list(_square_families()))
def test_square_family_checks_count_then_shape(family):
    build, count, dim = _square_families()[family]
    what = family.removeprefix("weak ").removeprefix("admissible ")
    square = Matrix.zero(dim, dim)
    with pytest.raises(DimensionMismatch, match=f"^need {count} {what} matrices, got {count + 1}$"):
        build((square,) * (count + 1))
    message = f"^{what} matrix is {dim}x{dim + 1}, expected {dim}x{dim}$"
    with pytest.raises(DimensionMismatch, match=message):
        build((square,) * (count - 1) + (Matrix.zero(dim, dim + 1),))


@pytest.mark.parametrize("key", [(3, 3), (0, 1), (-1, 0), (0,), "E11"])
def test_gln_rep_refuses_a_key_that_is_not_a_matrix_unit(key):
    # one stray key beside every matrix unit of gl_1: refused by name, and
    # tensor_rep never meets it (it used to end in a bare KeyError)
    zero = Matrix.zero(1, 1)
    message = f"^theta key {re.escape(repr(key))} is not a matrix unit of gl_1$"
    with pytest.raises(DimensionMismatch, match=message):
        GlnRep(1, 1, {(0, 0): zero, key: zero})
    with pytest.raises(DimensionMismatch, match=message):
        tensor_rep(GlnRep(1, 1, {(0, 0): zero, key: zero}), natural_rep_gl(1))
    assert tensor_rep(GlnRep(1, 1, {(0, 0): zero}), natural_rep_gl(1)).theta == natural_rep_gl(1).theta


def test_gln_rep_checks_each_entry_then_its_shape():
    theta = natural_rep_gl(2).theta
    with pytest.raises(DimensionMismatch, match=r"^missing theta\(E_21\)$"):
        GlnRep(2, 2, {k: m for k, m in theta.items() if k != (1, 0)})
    with pytest.raises(DimensionMismatch, match="^theta matrix is 2x2, expected 3x3$"):
        GlnRep(2, 3, theta)
