"""Lie-Rinehart algebras, Leibniz pairs, and the tensor module constructions.

A Lie-Rinehart algebra bundles a commutative algebra A, a Lie algebra L that
is also an A-module, and an anchor L -> Der(A) that is simultaneously a Lie
homomorphism and an A-module map, compatible through

    [x, a y] = a [x, y] + anchor(x)(a) y.

A Leibniz pair keeps only the Lie algebra and the homomorphism into Der(A).
Weak representations act by first-order operators whose symbol is the anchor;
admissible representations are the Leibniz-pair counterpart.

Each law is coded once: Lie homomorphisms by `liealg.homomorphism_violations`
(the anchor, beta, representations, and theta on `liealg.gl_algebra`), the
checks a Lie-Rinehart algebra shares with a Leibniz pair by `_pair_violations`,
the A-module law by `check_a_module`, A-linearity by `_a_linear_violations`, and
the first-order rule D(a m) = a D(m) + sigma(a) m by `_first_order_residuals`,
each residual column accumulated over sparse columns.  Each check hands its
(site, sparse residual) pairs to `report._nonzero_findings`, which keeps the
nonzero ones as findings.
The Lie-Rinehart compatibility is that rule for ad(x) with symbol anchor(x).
Every representation is a family of square matrices, one per basis vector
in the algebra's order, a gl_n-representation's theta (`GlnRep`, in the
order of `liealg.gl_algebra(n)`) included; `_rep_parts` is the one
precondition of a representation of a carrier on a module.

Given a crossed homomorphism H from L into gl_n (x) A, pulling the boxed-sum
action back along x |-> (x, Hx) turns a gl_n-representation V and a module M
into a new module on V (x) M.  The same recipe on the sparse side gives the
Shen-Larsson action of the vector-field algebra on V (x) A_n:

    (x^r d_i) . (v (x) x^s) = s_i v (x) x^{r+s} + sum_k r_k theta(E_ki) v (x) x^{r+s}.

A gl_n representation builds the nonzero entries of its theta(E_ki) once,
grouped by direction i and column (`GlnRep.columns`), and
`shen_larsson_apply` hands them to the one tensor action loop of `witt`,
`_tensor_action`, which also runs the coefficientwise action `WittElem.apply`
and the Witt bracket, the action of W_n on itself.  The elements `VTensorA`
are defined in `witt`, in the layout A_n, gl_n (x) A_n and W_n share, and
re-exported here.  The window checks of the module law and of weak
compatibility call an action once per (basis actor, basis module element)
pair and extend it bilinearly through one image table per module
(`_bilinear_images`), summing each identity's residual in one term dict.
Each check has one generator of nonzero residuals (`_module_axiom_defects`,
`_weak_compat_defects`).  For the built-in `shen_larsson_action` it runs
first on each kind of actor (each unordered pair of kinds for the module
law), monomial and module element v_p (x) x^t, with `poly.Poly` exponents,
and stops at the first yield; the window is enumerated, by the same
generator, only when there was one.  That symbolic pass reads the action as
data (`_symbolic_images`): it hands theta's columns to `_tensor_action`,
which adds each term straight into the identity's residual, with no table
and no element built per term.  Only the window loop calls an action, and
so `shen_larsson_apply`.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Callable, Mapping, Sequence

from .errors import DimensionMismatch, InvalidPair, NotCrossedHom, require_no_findings, require_window_count
from .errors import require_size
from .liealg import (
    FinLieAlgebra,
    Setup,
    _basis_sites,
    adjoint_action,
    check_crossed_hom,
    check_lie_algebra,
    derivation_violations,
    gl_algebra,
    homomorphism_violations,
)
from .linalg import ONE, Matrix, Vector, _add_scaled, _entry_matrix, kron, lincomb
from .linalg import _Value, require_shape, require_square_family
from .poly import Poly
from .report import Finding, _nonzero_findings
from .witt import (
    Coeff,
    FinCommAlgebra,
    LaurentPoly,
    TensorElem,
    VTensorA,
    WittElem,
    Window,
    _add_product,
    _gl_tensor_setup,
    _symbolic_basis,
    _tensor_action,
    _unordered_kind_pairs,
    action_structure,
    block_diagonal,
    check_comm_algebra,
    crossed_hom_pq,
    window_exponents,
    window_size,
    witt_bracket,
    witt_window_basis,
)


class AModuleStructure(_Value):
    """A-module on a dim_m space: one matrix per A-basis vector."""

    __slots__ = _fields = ("algebra", "dim_m", "action")

    def __init__(self, algebra: FinCommAlgebra, dim_m: int, action: tuple[Matrix, ...]):
        self.algebra, self.dim_m, self.action = algebra, dim_m, action
        require_square_family(action, algebra.dim, dim_m, "module action")

    def of(self, a: Vector) -> Matrix:
        if not a:
            return Matrix.zero(self.dim_m, self.dim_m)
        return lincomb(self.action, a)


def regular_module(A: FinCommAlgebra) -> AModuleStructure:
    """A acting on itself by multiplication."""
    return AModuleStructure(
        A, A.dim, tuple(A.mult_matrix(A.basis_vector(s)) for s in range(A.dim))
    )


def check_a_module(mod: AModuleStructure) -> list[Finding]:
    """a(b m) = (ab) m on all ordered basis pairs; the unit acts as identity.

    Each residual column is accumulated over `col_nonzeros` of the action and
    `structure_terms` of A."""
    A, n = mod.algebra, mod.dim_m
    act = [m.col_nonzeros for m in mod.action]

    def assoc(s: int, t: int, u: int) -> dict:
        acc: dict = {}
        for w, x in act[t][u]:
            _add_scaled(acc, x, act[s][w])
        for k, c in A.structure_terms.get((s, t), ()):
            _add_scaled(acc, -c, act[k][u])
        return acc

    pairs = itertools.product(range(A.dim), repeat=2)
    residuals = _basis_sites(A.basis_names, pairs, lambda s, t: [assoc(s, t, u) for u in range(n)])
    findings = _nonzero_findings("module-assoc", n, residuals)
    if A.unit is not None:
        unit = [(k, c) for k, c in enumerate(A.unit) if c]
        columns = [{u: -1} for u in range(n)]
        for u, acc in enumerate(columns):
            for k, c in unit:
                _add_scaled(acc, c, act[k][u])
        findings += _nonzero_findings("module-unit", n, [(("1",), columns)])
    return findings


class FirstOrderOp(_Value):
    """Pair (D, sigma): D on the module, sigma a derivation of A, compatible via
    D(a m) = a D(m) + sigma(a) m."""

    __slots__ = _fields = ("D", "sigma")

    def __init__(self, D: Matrix, sigma: Matrix):
        self.D, self.sigma = D, sigma


def _first_order_residuals(act, D, sigma):
    """(s, columns) for each a_s, the residual D(a_s m) - a_s D(m) - sigma(a_s) m:
    column u is a sparse dict accumulated over the sparse columns act[t] of
    each a_t, D of the operator and sigma of the derivation."""
    for s, sigma_s in enumerate(sigma):
        columns = []
        for u, Du in enumerate(D):
            acc: dict = {}
            for w, x in act[s][u]:
                _add_scaled(acc, x, D[w])
            for w, x in Du:
                _add_scaled(acc, -x, act[s][w])
            for t, y in sigma_s:
                _add_scaled(acc, -y, act[t][u])
            columns.append(acc)
        yield s, columns


def _first_order_violations(mod: AModuleStructure, D: Matrix, sigma: Matrix, rule: str, site=()):
    """Every a_s with D(a_s m) != a_s D(m) + sigma(a_s) m, at site + (a_s,)."""
    act, names = [m.col_nonzeros for m in mod.action], mod.algebra.basis_names
    residuals = _first_order_residuals(act, D.col_nonzeros, sigma.col_nonzeros)
    return _nonzero_findings(rule, mod.dim_m, ((site + (names[s],), cols) for s, cols in residuals))


def check_first_order_op(mod: AModuleStructure, op: FirstOrderOp) -> list[Finding]:
    findings = derivation_violations(mod.algebra, op.sigma)
    require_shape(op.D, mod.dim_m, mod.dim_m, "operator")
    return findings + _first_order_violations(mod, op.D, op.sigma, "first-order")


class LieRinehart(_Value):
    """(A, L, bracket, anchor) with an A-module structure on L."""

    __slots__ = _fields = ("algebra", "lie", "a_action", "anchor")

    def __init__(self, algebra: FinCommAlgebra, lie: FinLieAlgebra, a_action: tuple, anchor: tuple):
        self.algebra, self.lie, self.a_action, self.anchor = algebra, lie, a_action, anchor
        require_square_family(a_action, algebra.dim, lie.dim, "A-action")
        require_square_family(anchor, lie.dim, algebra.dim, "anchor")

    def l_module(self) -> AModuleStructure:
        return AModuleStructure(self.algebra, self.lie.dim, self.a_action)


class LeibnizPair(_Value):
    """(A, S, bracket, beta) with beta: S -> Der(A) a Lie homomorphism only."""

    __slots__ = _fields = ("algebra", "lie", "beta")

    def __init__(self, algebra: FinCommAlgebra, lie: FinLieAlgebra, beta: tuple[Matrix, ...]):
        self.algebra, self.lie, self.beta = algebra, lie, beta
        require_square_family(beta, lie.dim, algebra.dim, "beta")


def underlying_pair(lr: LieRinehart) -> LeibnizPair:
    """Forget the A-module structure on L."""
    return LeibnizPair(lr.algebra, lr.lie, lr.anchor)


def _a_linear_violations(lr: LieRinehart, mod: AModuleStructure, mats, rule: str):
    """Every (a_s, x_i) with rho(a_s x_i) != a_s rho(x_i) on mod, rho(x_k) = mats[k];
    each residual column is accumulated over `col_nonzeros`."""
    A, L, n = lr.algebra, lr.lie, mod.dim_m
    act, rho = [m.col_nonzeros for m in mod.action], [m.col_nonzeros for m in mats]

    def column(s: int, i: int, u: int) -> dict:
        acc: dict = {}
        for k, c in lr.a_action[s].col_nonzeros[i]:
            _add_scaled(acc, c, rho[k][u])
        for w, x in rho[i][u]:
            _add_scaled(acc, -x, act[s][w])
        return acc

    residuals = (
        ((A.basis_names[s], L.basis_names[i]), [column(s, i, u) for u in range(n)])
        for s, i in itertools.product(range(A.dim), range(L.dim))
    )
    return _nonzero_findings(rule, n, residuals)


def _pair_violations(p: LeibnizPair, prefix: str, module_findings: Sequence[Finding] = ()):
    """The laws a Lie-Rinehart algebra and a Leibniz pair share: A commutative,
    S a Lie algebra, each beta_i a derivation of A and beta a Lie homomorphism,
    under rules `prefix`-derivation and `prefix`-lie-hom.  A Lie-Rinehart
    algebra's A-module law on L goes in `module_findings`, after S's Jacobi law."""
    A, S = p.algebra, p.lie
    findings = check_comm_algebra(A) + check_lie_algebra(S) + list(module_findings)
    for name, D in zip(S.basis_names, p.beta):
        findings += derivation_violations(A, D, f"{prefix}-derivation", (name,))
    return findings + homomorphism_violations(S, p.beta, f"{prefix}-lie-hom")


def check_lie_rinehart(lr: LieRinehart) -> list[Finding]:
    """All defining axioms on basis tuples; empty report = valid."""
    A, L = lr.algebra, lr.lie
    findings = _pair_violations(underlying_pair(lr), "anchor", check_a_module(lr.l_module()))
    # anchor(a x) = a anchor(x): A-module homomorphism into Der(A)
    findings.extend(_a_linear_violations(lr, regular_module(A), lr.anchor, "anchor-a-linear"))
    # [x, a y] = a [x, y] + anchor(x)(a) y: the first-order rule of ad(x), per (x, a, y)
    act = [m.col_nonzeros for m in lr.a_action]

    def leibniz():
        for i, x in enumerate(L.basis_names):
            ad = [L.structure_terms.get((i, j), ()) for j in range(L.dim)]
            for s, columns in _first_order_residuals(act, ad, lr.anchor[i].col_nonzeros):
                for y, acc in zip(L.basis_names, columns):
                    yield (x, A.basis_names[s], y), acc

    return findings + _nonzero_findings("leibniz", L.dim, leibniz())


def check_leibniz_pair(p: LeibnizPair) -> list[Finding]:
    return _pair_violations(p, "beta")


def _carrier_parts(carrier) -> tuple[FinLieAlgebra, tuple[Matrix, ...], FinCommAlgebra]:
    """(L, anchor, A) of a Lie-Rinehart algebra, (S, beta, A) of a Leibniz pair."""
    if isinstance(carrier, LieRinehart):
        return carrier.lie, carrier.anchor, carrier.algebra
    if isinstance(carrier, LeibnizPair):
        return carrier.lie, carrier.beta, carrier.algebra
    raise TypeError("carrier must be a LieRinehart algebra or a LeibnizPair")


def _rep_parts(carrier, mod: AModuleStructure, rho: Sequence[Matrix]):
    """The carrier's parts, once mod is a module over its algebra and rho one
    square matrix on mod per basis vector of its Lie algebra: the one
    precondition of a representation of a carrier."""
    lie, ders, A = _carrier_parts(carrier)
    if mod.algebra is not A and mod.algebra != A:
        raise DimensionMismatch("the module's algebra differs from the carrier's")
    require_square_family(rho, lie.dim, mod.dim_m, "representation")
    return lie, ders, A


def _rep_violations(carrier, mod: AModuleStructure, rho: Sequence[Matrix], anchor_rule: str) -> list[Finding]:
    lie, ders, _ = _rep_parts(carrier, mod, rho)
    findings = homomorphism_violations(lie, rho, "lie-hom")
    for i, name in enumerate(lie.basis_names):
        findings.extend(_first_order_violations(mod, rho[i], ders[i], anchor_rule, (name,)))
    return findings


def check_weak_rep(
    lr: LieRinehart,
    mod: AModuleStructure,
    rho: Sequence[Matrix],
    strict: bool = False,
) -> list[Finding]:
    """Weak representation axioms; with strict=True also A-linearity of rho."""
    findings = _rep_violations(lr, mod, rho, "first-order")
    if strict:
        findings.extend(_a_linear_violations(lr, mod, rho, "a-linear"))
    return findings


def adjoint_weak_rep(lr: LieRinehart) -> tuple[AModuleStructure, tuple[Matrix, ...]]:
    """ad_x y = [x, y] on L itself, with symbol anchor(x)."""
    return lr.l_module(), adjoint_action(lr.lie).matrices


def natural_rep(lr: LieRinehart) -> tuple[AModuleStructure, tuple[Matrix, ...]]:
    """(A; anchor): the module is A itself; this one is strict."""
    return regular_module(lr.algebra), lr.anchor


def check_admissible_rep(
    p: LeibnizPair, mod: AModuleStructure, rho: Sequence[Matrix]
) -> list[Finding]:
    """rho(x)(a m) = a rho(x) m + beta(x)(a) m plus the Lie homomorphism law."""
    return _rep_violations(p, mod, rho, "admissible-anchor")


def action_lie_rinehart(p: LeibnizPair) -> LieRinehart:
    """S (x) A with bracket [x(a), y(b)] = [x,y](ab) + y(a beta(x) b) - x(b beta(y) a)
    and anchor x(a) |-> a beta(x), both from `witt.action_structure`."""
    require_no_findings(check_leibniz_pair(p), InvalidPair)
    A, S = p.algebra, p.lie
    names = (f"{x}({a})" for x in S.basis_names for a in A.basis_names)
    lie, ops = action_structure(A, S, p.beta, tuple(names))
    a_action = tuple(kron(Matrix.identity(S.dim), m) for m in regular_module(A).action)
    anchor = tuple(block_diagonal(op, 1) for op in ops)
    return LieRinehart(A, lie, a_action, anchor)


def extend_to_action_rep(
    p: LeibnizPair, mod: AModuleStructure, rho: Sequence[Matrix]
) -> tuple[Matrix, ...]:
    """Extension x (x) a |-> (a .) rho(x) of an admissible representation to
    S (x) A, at the basis index of x_i (x) a_s, i * dim A + s."""
    _rep_parts(p, mod, rho)
    return tuple(a * r for r in rho for a in mod.action)


# ---------------------------------------------------------------------------
# gl_n representations and the finite tensor-module construction


class GlnRep(_Value):
    """Representation of gl_n on a dim_v space, in the layout of every
    representation of the package: the family theta of square matrices, one
    per basis vector of `liealg.gl_algebra(n)` in its order, so
    theta[i * n + j] = theta(E_ij).  n and dim_v are ints >= 0."""

    _fields = ("n", "dim_v", "theta")

    def __init__(self, n: int, dim_v: int, theta: tuple[Matrix, ...]):
        self.n, self.dim_v, self.theta = n, dim_v, theta
        require_size("gl_n rank", n)
        require_size("dim V", dim_v)
        require_square_family(theta, n * n, dim_v, "theta")

    @cached_property
    def columns(self) -> tuple[tuple[tuple[tuple[int, int, Coeff], ...], ...], ...]:
        """columns[i][p]: the nonzero (k, p2, entry) of column p of the
        matrices theta(E_ki), over k: the layout `witt._tensor_action` reads."""
        n, theta = self.n, self.theta
        return tuple(
            tuple(
                tuple((k, p2, e) for k in range(n) for p2, e in theta[k * n + i].col_nonzeros[p])
                for p in range(self.dim_v)
            )
            for i in range(n)
        )


def trivial_rep(n: int) -> GlnRep:
    require_size("gl_n rank", n)
    return GlnRep(n, 1, (Matrix.zero(1, 1),) * (n * n))


def natural_rep_gl(n: int) -> GlnRep:
    require_size("gl_n rank", n)
    units = itertools.product(range(n), repeat=2)
    return GlnRep(n, n, tuple(_entry_matrix(n, n, [(i, j, 1)]) for i, j in units))


def adjoint_rep_gl(n: int) -> GlnRep:
    """gl_n acting on itself; basis E_kl flattened as k*n + l."""
    return GlnRep(n, n * n, adjoint_action(gl_algebra(n)).matrices)


def tensor_rep(r1: GlnRep, r2: GlnRep) -> GlnRep:
    if r1.n != r2.n:
        raise DimensionMismatch("tensor factors must represent the same gl_n")
    i1, i2 = Matrix.identity(r1.dim_v), Matrix.identity(r2.dim_v)
    theta = tuple(kron(a, i2) + kron(i1, b) for a, b in zip(r1.theta, r2.theta))
    return GlnRep(r1.n, r1.dim_v * r2.dim_v, theta)


def check_gln_rep(rep: GlnRep) -> list[Finding]:
    """The Lie-homomorphism law of the family theta on `gl_algebra(n)`, one
    finding per failing pair E_a, E_b (a < b) with residual
    theta([E_a, E_b]) - [theta(E_a), theta(E_b)]."""
    return homomorphism_violations(gl_algebra(rep.n), rep.theta, "gl-relation")


def certify_gl_tensor_crossed_hom(carrier, n: int, H: Matrix) -> Setup:
    """Certify H: L -> gl_n (x) A against the coefficientwise anchor action.

    Returns the finite Setup of `witt._gl_tensor_setup`, the one built for a
    generalized Witt algebra too, so the cohomology machinery can reuse it;
    the Setup checks H's shape, and NotCrossedHom is raised when the
    identity fails.
    """
    lie, ders, A = _carrier_parts(carrier)
    setup = _gl_tensor_setup(lie, [D.col_nonzeros for D in ders], A, n, H)
    require_no_findings(check_crossed_hom(setup), NotCrossedHom)
    return setup


def boxplus_pullback(
    carrier,
    theta: GlnRep,
    mod: AModuleStructure,
    rho: Sequence[Matrix],
    H: Matrix,
) -> tuple[tuple[Matrix, ...], AModuleStructure]:
    """Action on V (x) M pulled back along x |-> (x, Hx).

    mod must be a module over the carrier's algebra and rho a representation
    of the carrier on it, one matrix per basis vector.  Returns the matrices
    of each L-basis vector together with the A-module structure
    a(v (x) m) = v (x) am on the tensor space.
    """
    lie, _, A = _rep_parts(carrier, mod, rho)
    certify_gl_tensor_crossed_hom(carrier, theta.n, H)
    iv = Matrix.identity(theta.dim_v)
    # H's row index (i * n + j) * dim A + s is E_ij (x) a_s, acting as
    # theta(E_ij) (x) a_s: theta's family order, then the module's
    blocks = [kron(t, a) for t in theta.theta for a in mod.action]
    mats = tuple(
        lincomb([kron(iv, rho[x])] + blocks, (ONE,) + H.col(x)) for x in range(lie.dim)
    )
    tensor_mod = AModuleStructure(
        A, theta.dim_v * mod.dim_m, tuple(kron(iv, a) for a in mod.action)
    )
    return mats, tensor_mod


# ---------------------------------------------------------------------------
# sparse tensor modules V (x) A_n and the Shen-Larsson action


WindowedAction = Callable[[WittElem, TensorElem], TensorElem]


def _require_acts_on(theta: GlnRep, n: int, t: TensorElem) -> None:
    """Refuse theta's action of W_n on t unless t is a VTensorA of V (x) A_n:
    n and t's variable count both theta's, and t's components dim V."""
    if not isinstance(t, VTensorA):
        raise DimensionMismatch(f"cannot act on a {type(t).__name__}, only on a VTensorA")
    if n != theta.n or t.n != theta.n:
        raise DimensionMismatch("variable counts differ")
    if t.dim_v != theta.dim_v:
        raise DimensionMismatch("tensor component count differs from dim V")


def shen_larsson_apply(theta: GlnRep, w: WittElem, t: VTensorA) -> VTensorA:
    """(x^r d_i) . (v (x) x^s) = s_i v (x) x^{r+s} + sum_k r_k theta(E_ki) v (x) x^{r+s}."""
    _require_acts_on(theta, w.n, t)
    return VTensorA(theta.n, theta.dim_v, _tensor_action({}, w.terms, t.terms, theta.columns))


class _ShenLarssonAction:
    """w, t |-> shen_larsson_apply(theta, w, t), the function looked up when
    called, so a wrapper of it (as a tracer installs) sees each call of the
    window loop.  The window checks recognise this action by its type; their
    symbolic pass reads theta itself and never calls it."""

    __slots__ = ("theta",)

    def __init__(self, theta: GlnRep):
        self.theta = theta

    def __call__(self, w: WittElem, t: TensorElem) -> TensorElem:
        return shen_larsson_apply(self.theta, w, t)


def shen_larsson_action(theta: GlnRep) -> WindowedAction:
    return _ShenLarssonAction(theta)


def twisting_pq(
    p: Sequence[LaurentPoly], q, action: WindowedAction
) -> WindowedAction:
    """Add multiplication by the scalar twisting image to an existing action."""

    def twisted(w: WittElem, m: TensorElem) -> TensorElem:
        base = action(w, m)
        hw = crossed_hom_pq(p, q, w)
        if hw.is_zero():
            return base
        return base + m.poly_scale(hw)

    return twisted


def vtensor_window_basis(theta: GlnRep, n: int, bound: int) -> list[VTensorA]:
    return [
        VTensorA.basis(n, theta.dim_v, p, r)
        for p in range(theta.dim_v)
        for r in window_exponents(n, bound)
    ]


def laurent_window_basis(n: int, bound: int) -> list[LaurentPoly]:
    return [LaurentPoly.monomial(n, r) for r in window_exponents(n, bound)]


def _bilinear_images(action: WindowedAction, n: int):
    """images(m) -> add, one table per module (class and `_shape()`): add(acc,
    w, t, c) adds c (w . t) to the dict acc with `_add_scaled`'s arithmetic
    and returns it, for term dicts w of W_n and t of m's module.  action is
    called at most once per pair of keys, on basis elements built once per
    key; an image outside m's module raises DimensionMismatch."""
    actors, tables = {}, {}

    def images(m: TensorElem):
        cls, shape = type(m), m._shape()
        if (cls, shape) in tables:
            return tables[cls, shape]
        rows, elems = {}, {}

        def add(acc: dict, w: Mapping, t: Mapping, c: Coeff = 1) -> dict:
            for kw, cw in w.items():
                row, cw = rows.get(kw) or rows.setdefault(kw, {}), c * cw
                for km, cm in t.items():
                    if (image := row.get(km)) is None:
                        out = action(actors.get(kw) or actors.setdefault(kw, WittElem(n, {kw: 1})),
                                     elems.get(km) or elems.setdefault(km, m._new({km: 1})))
                        if type(out) is not cls or out._shape() != shape:
                            raise DimensionMismatch(f"action image {out!r} is not in {cls.__name__}{shape}")
                        image = row[km] = tuple(out.terms.items())
                    f = cw * cm
                    for k, x in image:
                        if y := acc.get(k, 0) + f * x:
                            acc[k] = y
                        else:
                            del acc[k]
            return acc

        return tables.setdefault((cls, shape), add)

    return images


def _symbolic_images(action: _ShenLarssonAction, n: int):
    """images(m) -> add as `_bilinear_images` gives it, with no table, for
    the built-in action on symbolic kinds, whose keys are fresh `Poly`
    tuples that are almost never looked up twice: add(acc, w, t, c) is
    `_tensor_action` on the action's theta, which adds c (w . t) straight
    into acc; no action is called.  images refuses m, once per module (class
    and `_shape()`), with the messages of `shen_larsson_apply`; W_0 is zero,
    so at n = 0 no actor term meets m and nothing is refused."""
    theta, accepted = action.theta, set()

    def add(acc: dict, w: Mapping, t: Mapping, c: Coeff = 1) -> dict:
        return _tensor_action(acc, w, t, theta.columns, c)

    def images(m: TensorElem):
        if n and (kind := (type(m), m._shape())) not in accepted:
            _require_acts_on(theta, n, m)
            accepted.add(kind)
        return add

    return images


def _symbolic_module_elems(module_elems: Sequence[TensorElem]) -> list[TensorElem]:
    """v_p (x) x^t with exponents t1, t2, ..., one for each (class, shape,
    component p) of a term of module_elems, in the order they first occur:
    every module element is a combination of these at integer exponents."""
    kinds: dict = {}
    for m in module_elems:
        for p, _ in m.terms:
            kinds.setdefault((type(m), m._shape(), p), m)
    return [m._new({(p, Poly.variables("t", m.n)): 1}) for (_, _, p), m in kinds.items()]


def _actor_images(images, actors: Sequence[WittElem], ms: Sequence[TensorElem]) -> list:
    """(u, [terms of u.m for m in ms]) for each actor u."""
    adds = [images(m) for m in ms]
    return [(u, [add({}, u.terms, m.terms) for add, m in zip(adds, ms)]) for u in actors]


def _module_axiom_defects(images, pairs, ms: Sequence[TensorElem]):
    """(u, v, m, residual) for each pair ((u, u.ms), (v, v.ms)) of
    `_actor_images` and each m in ms, in that order, whose residual
    [u, v].m - u.(v.m) + v.(u.m), summed in one dict, is nonzero."""
    adds = [images(m) for m in ms]
    for (u, u_ms), (v, v_ms) in pairs:
        bw, uw, vw = witt_bracket(u, v).terms, u.terms, v.terms
        for m, add, um, vm in zip(ms, adds, u_ms, v_ms):
            res = add({}, bw, m.terms)
            add(res, uw, vm, -1)
            add(res, vw, um)
            if res:
                yield u, v, m, res


def _weak_compat_defects(images, actors: Sequence[WittElem], monomials, ms: Sequence[TensorElem]):
    """(u, a, m, residual) for each actor u, monomial a and m in ms, in that
    nesting, whose residual u.(a m) - a (u.m) - u(a) m, summed in one dict,
    is nonzero; the products by a and u(a) are those of
    `TensorElem.poly_scale`."""
    adds = [images(m) for m in ms]
    scaled = [(a, [m.poly_scale(a).terms for m in ms]) for a in monomials]
    for u in actors:
        u_ms = [add({}, u.terms, m.terms) for add, m in zip(adds, ms)]
        for a, a_ms in scaled:
            ua = u.apply(a).terms
            for m, add, um, am in zip(ms, adds, u_ms, a_ms):
                res = add({}, u.terms, am)
                _add_product(res, um, a.terms, -1)
                _add_product(res, m.terms, ua, -1)
                if res:
                    yield u, a, m, res


def _decided_symbolically(action: WindowedAction, module_elems) -> bool:
    """Whether a window check may first be decided on symbolic kinds: action
    is the built-in Shen-Larsson action and every module element has a kind.
    Each window residual is then a symbolic one evaluated at integer
    exponents, summed over the terms of the module element:
    `_tensor_action` reads exponents only through +, * and truth tests that
    skip zero terms, and the residual is linear in m.  An arbitrary callable
    proves nothing on symbols, so it is never asked; a zero module element
    is left to the window loop, which passes it as it always has."""
    return type(action) is _ShenLarssonAction and all(m.terms for m in module_elems)


def check_module_axiom_window(
    action: WindowedAction,
    n: int,
    window: Window,
    module_elems: Sequence[TensorElem],
) -> list[Finding]:
    """[u, v].m = u.(v.m) - v.(u.m) on all windowed pairs and module elements.

    Each residual [u, v].m - u.(v.m) + v.(u.m) is summed in one term dict
    by `_module_axiom_defects`.  For the built-in `shen_larsson_action` that
    generator first runs on each unordered pair of actor kinds x^r d_i,
    x^s d_j (`_unordered_kind_pairs`) and each v_p (x) x^t, with `Poly`
    exponents, through `_symbolic_images`, which reads the action's theta
    and calls nothing.  The residual is antisymmetric in (u, v), because the
    Witt bracket is and the action is linear in the actor, so the pair
    (v, u) adds nothing, as in the window's `combinations`.  When none of
    those residuals is nonzero no window pair can fail and none is
    enumerated.  Otherwise, and for any other action, it runs on the window
    pairs, with the action (for the built-in one, `shen_larsson_apply`)
    called on basis elements and extended bilinearly by `_bilinear_images`,
    and a residual is made an element only for the finding built from it.
    Either way the reported scope is the window.
    """
    require_window_count(
        math.comb(n * window_size(n, window.bound), 2) * len(module_elems),
        "module-axiom identities",
    )
    if _decided_symbolically(action, module_elems):
        images, ms = _symbolic_images(action, n), _symbolic_module_elems(module_elems)
        kinds = [_actor_images(images, _symbolic_basis(n, "full", x), ms) for x in "rs"]
        if not any(_module_axiom_defects(images, _unordered_kind_pairs(*kinds), ms)):
            return []
    images = _bilinear_images(action, n)
    actors = witt_window_basis(n, window.bound)
    pairs = _actor_images(images, actors, module_elems)
    # each window element is rendered once, and only in the window pass
    label = {id(e): str(e) for e in (*actors, *module_elems)}
    return [
        Finding("module-axiom", (label[id(u)], label[id(v)], label[id(m)]), m._new(res))
        for u, v, m, res in _module_axiom_defects(images, itertools.combinations(pairs, 2), module_elems)
    ]


def check_weak_compat_window(
    action: WindowedAction,
    n: int,
    window: Window,
    module_elems: Sequence[TensorElem],
) -> list[Finding]:
    """u.(a m) = a (u.m) + u(a) m for windowed monomials a; the sparse
    counterpart of the first-order-operator compatibility.

    Each residual u.(a m) - a (u.m) - u(a) m is summed in one term dict by
    `_weak_compat_defects`.  For the built-in `shen_larsson_action` that
    generator first runs on each actor kind x^r d_i, on x^q and each
    v_p (x) x^t, with `Poly` exponents, through `_symbolic_images`, which
    reads the action's theta and calls nothing; when none of those
    residuals is nonzero nothing is enumerated.  Otherwise, and for any
    other action, it runs on the window, with the action (for the built-in
    one, `shen_larsson_apply`) called on basis elements and extended
    bilinearly by `_bilinear_images`, and a residual is made an element only
    for the finding built from it.  Either way the reported scope is the
    window.
    """
    size = window_size(n, window.bound)
    require_window_count(n * size * size * len(module_elems), "weak-compat identities")
    if _decided_symbolically(action, module_elems):
        images, ms = _symbolic_images(action, n), _symbolic_module_elems(module_elems)
        q = [LaurentPoly.monomial(n, Poly.variables("q", n))]
        if not any(_weak_compat_defects(images, _symbolic_basis(n, "full", "r"), q, ms)):
            return []
    images = _bilinear_images(action, n)
    actors = witt_window_basis(n, window.bound)
    monomials = laurent_window_basis(n, window.bound)
    label = {id(e): str(e) for e in (*actors, *monomials, *module_elems)}
    return [
        Finding("weak-compat", (label[id(u)], label[id(a)], label[id(m)]), m._new(res))
        for u, a, m, res in _weak_compat_defects(images, actors, monomials, module_elems)
    ]
