"""Finite-dimensional Lie algebras via structure constants.

Covers actions by derivations, crossed homomorphisms H: g -> h satisfying

    H[x, y] = rho(x)(Hy) - rho(y)(Hx) + [Hx, Hy],

the induced (twisted) action rho_H(x)u = rho(x)u + [Hx, u], semidirect
products, the twist map (x, u) |-> (x, Hx + u) between the two semidirect
products, and exhaustive grid classification of crossed homomorphisms by
`_grid_search`, the one grid search, which `cohomology.nijenhuis_grid` shares.
`gl_algebra(n)` is gl_n on its matrix units, the one finite model of
[E_ij, E_kl] = d_jk E_il - d_li E_kj that `witt` and `rinehart` read.

`FinLieAlgebra` and `witt.FinCommAlgebra` share one base, `_StructureAlgebra`:
structure constants stored for index pairs i < j of a Lie bracket, so
antisymmetry holds by construction, or i <= j of a commutative product, so
every bilinear identity is decided exactly by finitely many basis checks.
`structure_terms` lists their nonzeros once per algebra for both orders of
each pair, as `exact_coeff` values (ints where integral, like
`Matrix.col_nonzeros`); `mult_matrix` (`ad`), `bracket` and the one Leibniz
rule of either kind, `derivation_violations`, read it over nonzeros only.

The checks (`check_lie_algebra`, `check_action`, `check_crossed_hom`) decide
each basis identity over nonzeros: they accumulate its terms from
`structure_terms` and `Matrix.col_nonzeros` into one sparse {index: value}
dict (or one per column, for a matrix identity), and hand each basis site
with its accumulator (`_basis_sites`) to `report._nonzero_findings`, which
reports the nonempty ones.  `homomorphism_violations` is the one
Lie-homomorphism law of a representation, also for `rinehart`.  The law of a
map between algebras, `is_lie_homomorphism`, is the crossed-hom law with no
action: `_crossed_hom_accumulator` with no rho serves it, and with rho it
serves `check_crossed_hom` and `crossed_hom_residual`.  The twist map and
the graph x |-> (x, Hx) are checked with it between the structure constants
of `_semidirect_structure`, which takes any matrices (rho_H need not be an
action).  rho_H's sparse columns are built in one place, `_induced_columns`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, NotAction, NotCrossedHom, require_no_findings, require_window_count
from .errors import ParseError
from .linalg import (
    Coeff,
    Matrix,
    Vector,
    _Value,
    _add_scaled,
    _column_matrix,
    _dense,
    _entry_matrix,
    exact_coeff,
    is_zero_vector,
    lincomb,
    rational,
    require_shape,
    require_square_family,
    vector,
)
from .report import Finding, _is_nonzero, _nonzero_findings


class _StructureAlgebra(_Value):
    """Named basis vectors and a bilinear product given by dense structure
    vectors on index pairs: structure[(i, j)] = e_i e_j for the stored pairs,
    i < j for an antisymmetric product (`_swap_sign` -1) and i <= j for a
    commutative one (`_swap_sign` 1); a missing pair's product is zero.
    `_words` name the key, the pair condition and the value in key errors."""

    _fields = ("basis_names", "structure")
    _swap_sign = -1
    _words = ("structure key", "i<j", "bracket")

    def __init__(self, basis_names: tuple[str, ...], structure: Mapping[tuple[int, int], Vector]):
        self.basis_names, self.structure = basis_names, structure
        dim, (key, pair, value) = len(basis_names), self._words
        for (i, j), v in structure.items():
            if not (0 <= i <= j < dim) or (i == j and self._swap_sign < 0):
                raise DimensionMismatch(f"{key} ({i}, {j}) is not an {pair} pair")
            if len(v) != dim:
                raise DimensionMismatch(f"{value} value at ({i}, {j}) has length {len(v)}")

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    def basis_vector(self, i: int) -> Vector:
        return _dense({i: 1}, self.dim)

    @cached_property
    def structure_terms(self) -> dict[tuple[int, int], tuple[tuple[int, Coeff], ...]]:
        """structure_terms[(i, j)], for both orders of each stored pair: the
        nonzero (k, c) with e_i e_j = sum c e_k, as `exact_coeff` values."""
        terms = {}
        for (i, j), v in self.structure.items():
            nz = tuple((k, exact_coeff(c)) for k, c in enumerate(v) if c)
            if nz:
                terms[i, j] = nz
                terms[j, i] = nz if self._swap_sign > 0 else tuple((k, -c) for k, c in nz)
        return terms

    def mult_matrix(self, a: Vector) -> Matrix:
        """Left multiplication by a, e_j |-> a e_j, over the nonzeros of a."""
        n = self.dim
        if len(a) != n:
            raise DimensionMismatch("operand lengths differ from the algebra dimension")
        acc: dict = {}
        terms = self.structure_terms
        for i, x in enumerate(a):
            if x:
                for j in range(n):
                    for k, c in terms.get((i, j), ()):
                        acc[k, j] = acc.get((k, j), 0) + x * c
        return _entry_matrix(n, n, [(k, j, c) for (k, j), c in acc.items()])


class FinLieAlgebra(_StructureAlgebra):
    def bracket(self, x: Vector, y: Vector) -> Vector:
        """[x, y], summed over the nonzero coordinates of x and y."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(
                f"expected vectors of length {self.dim}, got {len(x)} and {len(y)}"
            )
        terms, acc = self.structure_terms, {}
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in ys:
                    _add_scaled(acc, a * b, terms.get((i, j), ()))
        return _dense(acc, self.dim)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of ad(x) = [x, .] in the defining basis: `mult_matrix`."""
        return self.mult_matrix(x)

    def __str__(self) -> str:
        return f"FinLieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


def lie_algebra(names: Sequence[str], brackets: Mapping[tuple[int, int], Iterable]) -> FinLieAlgebra:
    """Build an algebra from i<j bracket coordinates, dropping zero values."""
    structure = {}
    for (i, j), v in sorted(brackets.items()):
        vec = vector(v)
        if not is_zero_vector(vec):
            structure[(i, j)] = vec
    return FinLieAlgebra(tuple(names), structure)


def abelian(names: Sequence[str]) -> FinLieAlgebra:
    return FinLieAlgebra(tuple(names), {})


def two_dim_nonabelian() -> FinLieAlgebra:
    """Basis e1, e2 with [e1, e2] = e1."""
    return lie_algebra(("e1", "e2"), {(0, 1): (1, 0)})


def heisenberg() -> FinLieAlgebra:
    """Basis p, q, z with [p, q] = z, z central."""
    return lie_algebra(("p", "q", "z"), {(0, 1): (0, 0, 1)})


def sl2() -> FinLieAlgebra:
    """Basis e, f, h with [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    return lie_algebra(
        ("e", "f", "h"),
        {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)},
    )


def gl_algebra(n: int) -> FinLieAlgebra:
    """Basis E_11, E_12, ..., E_nn in row-major order (E_ij at i * n + j), with
    [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    units = list(itertools.product(range(n), repeat=2))
    structure = {}
    for (a, (i, j)), (b, (k, l)) in itertools.combinations(enumerate(units), 2):
        if j == k or l == i:
            v = {i * n + l: 1} if j == k else {}
            if l == i:
                v[k * n + j] = -1
            structure[a, b] = _dense(v, n * n)
    return FinLieAlgebra(tuple(f"E{i + 1}{j + 1}" for i, j in units), structure)


def _basis_sites(names: Sequence[str], tuples: Iterable[tuple[int, ...]], residual, site=()):
    """(site + the names of T, residual(*T)) for each basis index tuple T with
    a nonzero residual: the (site, residual) pairs `report._nonzero_findings`
    reads.  A zero residual's site is never named."""
    for T in tuples:
        r = residual(*T)
        if _is_nonzero(r):
            yield site + tuple(names[t] for t in T), r


def _pair_findings(rule: str, L: FinLieAlgebra, rows: int, residual) -> list[Finding]:
    """The findings of the sparse residual(i, j) over the basis pairs i < j of L."""
    pairs = itertools.combinations(range(L.dim), 2)
    return _nonzero_findings(rule, rows, _basis_sites(L.basis_names, pairs, residual))


def check_lie_algebra(L: FinLieAlgebra) -> list[Finding]:
    """List every basis triple violating the Jacobi identity, with the
    residual [e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]] accumulated
    over `structure_terms`."""
    terms = L.structure_terms

    def jacobi(i: int, j: int, k: int) -> dict:
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in terms.get((b, c), ()):
                _add_scaled(acc, x, terms.get((a, m), ()))
        return acc

    triples = itertools.combinations(range(L.dim), 3)
    return _nonzero_findings("jacobi", L.dim, _basis_sites(L.basis_names, triples, jacobi))


class LieAction(_Value):
    """rho: g -> Der(h) given by one matrix on h per g-basis vector."""

    __slots__ = _fields = ("source", "target", "matrices")

    def __init__(self, source: FinLieAlgebra, target: FinLieAlgebra, matrices: tuple[Matrix, ...]):
        self.source, self.target, self.matrices = source, target, matrices
        require_square_family(matrices, source.dim, target.dim, "action")

    def of(self, x: Vector) -> Matrix:
        """rho(x) for a general x, by linearity."""
        if len(x) != self.source.dim:
            raise DimensionMismatch("element has wrong length for the source algebra")
        if not x:
            return Matrix.zero(self.target.dim, self.target.dim)
        return lincomb(self.matrices, x)


def adjoint_action(L: FinLieAlgebra) -> LieAction:
    return LieAction(L, L, tuple(L.ad(L.basis_vector(i)) for i in range(L.dim)))


def zero_action(g: FinLieAlgebra, h: FinLieAlgebra) -> LieAction:
    return LieAction(g, h, tuple(Matrix.zero(h.dim, h.dim) for _ in range(g.dim)))


def homomorphism_violations(g: FinLieAlgebra, mats: Sequence[Matrix], rule: str) -> list[Finding]:
    """Every pair i < j with rho([e_i, e_j]) != [rho(e_i), rho(e_j)], for the
    square matrices rho(e_k) = mats[k].

    The residual is accumulated column by column from `col_nonzeros` and
    `structure_terms`; a failing pair's residual matrix is assembled from those
    columns.
    """
    cols = [m.col_nonzeros for m in mats]
    terms = g.structure_terms
    n = mats[0].cols if mats else 0

    def column(i: int, j: int, u: int) -> dict:
        acc: dict = {}
        for k, c in terms.get((i, j), ()):
            _add_scaled(acc, c, cols[k][u])
        for w, a in cols[j][u]:
            _add_scaled(acc, -a, cols[i][w])
        for w, a in cols[i][u]:
            _add_scaled(acc, a, cols[j][w])
        return acc

    return _pair_findings(rule, g, n, lambda i, j: [column(i, j, u) for u in range(n)])


def derivation_violations(A: _StructureAlgebra, D: Matrix, rule: str = "leibniz", site=()) -> list[Finding]:
    """Every stored pair (e_i, e_j) of A, either kind, at site + (e_i, e_j),
    where the Leibniz rule D(ab) = D(a)b + aD(b) fails; the residual is
    accumulated over `structure_terms` and `col_nonzeros`."""
    require_shape(D, A.dim, A.dim, "operator")
    terms, cols = A.structure_terms, D.col_nonzeros
    pairs = itertools.combinations if A._swap_sign < 0 else itertools.combinations_with_replacement

    def residual(i: int, j: int) -> dict:
        acc: dict = {}
        for k, c in terms.get((i, j), ()):
            _add_scaled(acc, c, cols[k])
        for u, x in cols[i]:
            _add_scaled(acc, -x, terms.get((u, j), ()))
        for u, x in cols[j]:
            _add_scaled(acc, -x, terms.get((i, u), ()))
        return acc

    sites = _basis_sites(A.basis_names, pairs(range(A.dim), 2), residual, site)
    return _nonzero_findings(rule, A.dim, sites)


def check_action(rho: LieAction) -> list[Finding]:
    """The derivation law of each rho(e_i), `derivation_violations` of h at
    site (e_i,), and the homomorphism law."""
    g, h = rho.source, rho.target
    findings = []
    for name, m in zip(g.basis_names, rho.matrices):
        findings += derivation_violations(h, m, "derivation", (name,))
    findings.extend(homomorphism_violations(g, rho.matrices, "homomorphism"))
    return findings


class CrossedHom(_Value):
    """Linear map H: g -> h; column i holds H(e_i) in h-coordinates."""

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: Matrix):
        self.matrix = matrix

    def apply(self, x: Vector) -> Vector:
        return self.matrix.apply(x)

    def column(self, i: int) -> Vector:
        return self.matrix.col(i)


class Setup(_Value):
    """The ambient quadruple (g, h, rho, H) for all later operations."""

    __slots__ = _fields = ("g", "h", "rho", "H")

    def __init__(self, g: FinLieAlgebra, h: FinLieAlgebra, rho: LieAction, H: CrossedHom):
        self.g, self.h, self.rho, self.H = g, h, rho, H
        if rho.source is not g and rho.source != g:
            raise DimensionMismatch("action source differs from g")
        if rho.target is not h and rho.target != h:
            raise DimensionMismatch("action target differs from h")
        require_shape(H.matrix, h.dim, g.dim, "H")


def _crossed_hom_accumulator(g: FinLieAlgebra, h: FinLieAlgebra, H: Matrix, rho: Sequence[Matrix] = ()):
    """acc(i, j): H[e_i,e_j] - rho(e_i)(He_j) + rho(e_j)(He_i) - [He_i, He_j]
    as a sparse dict, from `col_nonzeros` of H and the matrices rho(e_k) and
    `structure_terms` of g and h.  With no rho, the action terms drop out and
    acc(i, j) is the residual of the Lie-homomorphism law of H: g -> h."""
    g_terms, h_terms = g.structure_terms, h.structure_terms
    H_cols = H.col_nonzeros
    rho_cols = [m.col_nonzeros for m in rho]

    def acc(i: int, j: int) -> dict:
        r: dict = {}
        for k, c in g_terms.get((i, j), ()):
            _add_scaled(r, c, H_cols[k])
        if rho_cols:
            for u, x in H_cols[j]:
                _add_scaled(r, -x, rho_cols[i][u])
            for u, x in H_cols[i]:
                _add_scaled(r, x, rho_cols[j][u])
        for a, x in H_cols[i]:
            for b, y in H_cols[j]:
                _add_scaled(r, -x * y, h_terms.get((a, b), ()))
        return r

    return acc


def crossed_hom_residual(s: Setup, i: int, j: int) -> Vector:
    """H[e_i,e_j] - rho(e_i)(He_j) + rho(e_j)(He_i) - [He_i, He_j], the dense
    view of the accumulator `check_crossed_hom` reads."""
    return _dense(_crossed_hom_accumulator(s.g, s.h, s.H.matrix, s.rho.matrices)(i, j), s.h.dim)


def check_crossed_hom(s: Setup) -> list[Finding]:
    """Every basis pair (i, j), i < j, whose crossed-hom residual is nonzero."""
    residual = _crossed_hom_accumulator(s.g, s.h, s.H.matrix, s.rho.matrices)
    return _pair_findings("crossed-hom", s.g, s.h.dim, residual)


def induced_action(s: Setup) -> LieAction:
    """rho_H(x)u = rho(x)u + [Hx, u]; requires H to be a crossed homomorphism."""
    require_no_findings(check_crossed_hom(s), NotCrossedHom)
    return _induced_action_unchecked(s)


def _induced_columns(s: Setup) -> list[list[tuple[tuple[int, Coeff], ...]]]:
    """columns[i][u]: the nonzero (w, entry) of column u of rho_H(e_i), where

        rho_H(e_i) e_u = rho(e_i) e_u + sum_a H[a, i] [e_a, e_u],

    read from `col_nonzeros` and `structure_terms` with no dense rho_H.  The
    formula holds for any H; entries are `exact_coeff` values, ints when
    integral."""
    h_terms = s.h.structure_terms
    H_cols = s.H.matrix.col_nonzeros
    columns = []
    for i, m in enumerate(s.rho.matrices):
        cols_i = []
        for u, col in enumerate(m.col_nonzeros):
            acc = dict(col)
            for a, x in H_cols[i]:
                _add_scaled(acc, x, h_terms.get((a, u), ()))
            cols_i.append(tuple((w, exact_coeff(c)) for w, c in sorted(acc.items())))
        columns.append(cols_i)
    return columns


def _induced_action_unchecked(s: Setup) -> LieAction:
    n = s.h.dim
    mats = (_column_matrix([dict(c) for c in cols], n) for cols in _induced_columns(s))
    return LieAction(s.g, s.h, tuple(mats))


def _merged_names(g: FinLieAlgebra, h: FinLieAlgebra) -> tuple[str, ...]:
    if set(g.basis_names) & set(h.basis_names):
        return tuple(f"g.{n}" for n in g.basis_names) + tuple(f"h.{n}" for n in h.basis_names)
    return g.basis_names + h.basis_names


def _semidirect_structure(
    g: FinLieAlgebra, h: FinLieAlgebra, matrices: Sequence[Matrix]
) -> FinLieAlgebra:
    """g x h with [(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u + [u,v]) for the
    matrices rho(e_i) on h, which need not form an action."""
    dg, n = g.dim, g.dim + h.dim
    structure: dict[tuple[int, int], Vector] = {}

    def put(i: int, j: int, shift: int, terms):
        if terms:
            structure[i, j] = _dense({shift + k: c for k, c in terms}, n)

    for i, j in itertools.combinations(range(dg), 2):
        put(i, j, 0, g.structure_terms.get((i, j)))
    for i, m in enumerate(matrices):
        for u, col in enumerate(m.col_nonzeros):
            put(i, dg + u, dg, col)
    for u, v in itertools.combinations(range(h.dim), 2):
        put(dg + u, dg + v, dg, h.structure_terms.get((u, v)))
    return FinLieAlgebra(_merged_names(g, h), structure)


def semidirect(g: FinLieAlgebra, h: FinLieAlgebra, rho: LieAction) -> FinLieAlgebra:
    """g x h with [(x,u),(y,v)] = ([x,y], rho(x)v - rho(y)u + [u,v])."""
    require_no_findings(check_action(rho), NotAction)
    return _semidirect_structure(g, h, rho.matrices)


def _graph(s: Setup) -> Matrix:
    """[I; H], the matrix of x |-> (x, Hx)."""
    dg = s.g.dim
    entries = [(x, x, 1) for x in range(dg)]
    entries += [(dg + i, x, c) for x, col in enumerate(s.H.matrix.col_nonzeros) for i, c in col]
    return _entry_matrix(dg + s.h.dim, dg, entries)


def twist_iso_check(s: Setup) -> bool:
    """Whether (x,u) |-> (x, Hx+u), the matrix [[I, 0], [H, I]], is a Lie
    homomorphism from the rho_H-semidirect structure to the rho one.

    rho_H is formed from its defining formula whether or not it is an action.
    The result must coincide with emptiness of check_crossed_hom; both are
    computed and compared, and disagreement raises RuntimeError since it
    would mean an internal formula error.
    """
    g, h = s.g, s.h
    n = g.dim + h.dim
    entries = [(i, x, c) for x, col in enumerate(_graph(s).col_nonzeros) for i, c in col]
    twist = _entry_matrix(n, n, entries + [(u, u, 1) for u in range(g.dim, n)])
    src = _semidirect_structure(g, h, _induced_action_unchecked(s).matrices)
    holds = not is_lie_homomorphism(src, _semidirect_structure(g, h, s.rho.matrices), twist)
    expected = not check_crossed_hom(s)
    if holds != expected:
        raise RuntimeError(
            "twist map check disagrees with the crossed-homomorphism check; "
            "this indicates an internal error"
        )
    return holds


def iota_graph_is_homomorphism(s: Setup) -> bool:
    """Whether x |-> (x, Hx) lands homomorphically in the rho-semidirect product."""
    dst = _semidirect_structure(s.g, s.h, s.rho.matrices)
    return not is_lie_homomorphism(s.g, dst, _graph(s))


def _grid_values(grid: Sequence) -> Vector:
    """The values of grid, read with `rational`; a value equal as a Fraction
    to another raises ParseError."""
    entries = tuple(rational(x) for x in grid)
    repeated = [v for v, k in Counter(entries).items() if k > 1]
    if repeated:
        raise ParseError(f"grid value {repeated[0]} is repeated")
    return entries


def _grid_search(grid: Sequence, count: int, holds) -> list[Vector]:
    """The tuples of count values from grid, in `itertools.product` order, that
    holds accepts; the values are read by `_grid_values`, and then more than
    MAX_WINDOW_COUNT candidates raise SearchSpaceTooLarge before any is tried."""
    entries = _grid_values(grid)
    require_window_count(len(entries) ** count, "candidates")
    return [c for c in itertools.product(entries, repeat=count) if holds(c)]


def solve_crossed_homs_grid(
    g: FinLieAlgebra,
    h: FinLieAlgebra,
    rho: LieAction,
    grid: Sequence,
) -> list[CrossedHom]:
    """Exhaustively enumerate H with entries in grid; keep the crossed homs.

    Candidates are produced in row-major digit order over the grid as given,
    so the output order is deterministic.  rho is checked against g and h once;
    a rejected candidate stops at its first nonzero pair and builds no finding.
    """
    Setup(g, h, rho, CrossedHom(Matrix.zero(h.dim, g.dim)))
    pairs = list(itertools.combinations(range(g.dim), 2))

    def holds(combo: Vector) -> bool:
        acc = _crossed_hom_accumulator(g, h, Matrix(h.dim, g.dim, combo), rho.matrices)
        return not any(acc(i, j) for i, j in pairs)

    return [CrossedHom(Matrix(h.dim, g.dim, c)) for c in _grid_search(grid, h.dim * g.dim, holds)]


def is_lie_homomorphism(src: FinLieAlgebra, dst: FinLieAlgebra, phi: Matrix) -> list[Finding]:
    """Every basis pair i < j with phi[e_i, e_j] != [phi e_i, phi e_j]: the
    crossed-hom residual of phi with no action, reported as a dense vector."""
    require_shape(phi, dst.dim, src.dim, "map")
    return _pair_findings("lie-hom", src, dst.dim, _crossed_hom_accumulator(src, dst, phi))


def check_hom_pair(
    rho: LieAction,
    H: CrossedHom,
    H_prime: CrossedHom,
    phi_g: Matrix,
    phi_h: Matrix,
) -> list[Finding]:
    """Morphism-of-crossed-homomorphisms conditions for (phi_g, phi_h): H' -> H.

    Requires phi_g, phi_h to be Lie algebra endomorphisms together with
       H o phi_g = phi_h o H'      and
       phi_h(rho(x)u) = rho(phi_g x)(phi_h u).
    """
    g, h = rho.source, rho.target
    findings = []
    findings.extend(is_lie_homomorphism(g, g, phi_g))
    findings.extend(is_lie_homomorphism(h, h, phi_h))
    lhs = H.matrix * phi_g
    rhs = phi_h * H_prime.matrix
    diff = lhs - rhs
    if not diff.is_zero():
        findings.append(Finding("intertwine-H", ("H∘phi_g", "phi_h∘H'"), diff))
    for i in range(g.dim):
        lhs_m = phi_h * rho.matrices[i]
        rhs_m = rho.of(phi_g.col(i)) * phi_h
        diff_m = lhs_m - rhs_m
        if not diff_m.is_zero():
            findings.append(Finding("intertwine-action", (g.basis_names[i],), diff_m))
    return findings
