"""Graded Lie algebra on alternating cochains, crossed-homomorphism cohomology,
and linear deformation checks.

Cochains of degree k are alternating maps from k-fold products of g to h,
stored on strictly increasing basis index tuples; evaluation at a permuted
tuple picks up the permutation sign and repeated indices give zero.  The
one cochain format is sparse (`Cochain`): the coboundary, the graded bracket
and the cochain arithmetic read and write {u: c} values with `exact_coeff`
coordinates, so on integral data they run in int arithmetic.  Dense h-vectors
of Fractions are built only where an element of h leaves the module:
`eval_basis`, the residuals of `cochain_findings` and the matrix of the
trivial deformation.

One coboundary, `plain_differential`, builds the degree-raising map d of any
action.  On a degree-m cochain f and an increasing (m+1)-tuple S, with 0-based
positions,

    (d f)(S) = sum_pos (-1)^(m+pos+1) rho(e_S[pos]) f(S without pos)
             + sum_{pi<pj} (-1)^(m+pi+pj+1) f([e_S[pi], e_S[pj]], S without pi, pj).

It is computed in scatter form, from the nonzero values v = f(T) only:

* action terms: for each i not in T, (-1)^(m+pos+1) rho(e_i) v goes to
  S = T + {i}, where pos is the place of i in S;
* bracket terms: for each t = T[p] with R = T - {t}, and each a < b outside R
  with c = [e_a, e_b]_t nonzero, (-1)^(m+pi+pj+1) (-1)^p c v goes to
  S = R + {a, b}; (-1)^p moves e_t from the front of (t, R) to its place in T.

The tables behind it, the sparse columns of each rho(e_i) and the structure
constants grouped by target index t, are built once per call.  The sites of
a tuple T (where its action and bracket terms land) do not depend on the
value at T and are found once per T (`_scatter_sites`).  The image of the
unit value e_u at T is written once, `_unit_image`, and read three ways:
`_differential` sums the images scaled by the values of f; `_cells` lists
the images of the unit cochains of weight 0 (below), which
`differential_matrix` (under the trivial weights, where every cell counts,
in lexicographic columns) and `_weight_zero_rows` (sparsest columns first)
write out as the columns of d_k.  rho_H's tables are `_induced_tables`:
its columns come from `liealg._induced_columns`, the one place the rho_H
formula is written, and keep integral entries as ints, as do
`structure_terms` and `Matrix.col_nonzeros`, so the eliminations run in int
arithmetic while the pivots are units.

`cohomology_dims` ranks weight spaces, not whole coboundaries.  When a
g-basis element e_i acts diagonally, ad(e_i) on g and rho_H(e_i) on h, the
unit cochain (T, u) is an eigenvector of the Lie derivative L_(e_i) with
eigenvalue w_i(u) - sum over t in T of w_i(e_t).  `_weights` finds such e_i
(for a generalized Witt setup, the scaling derivations 1 (x) D_j), and d
keeps the weight vector w.  By Cartan's homotopy formula
L_x = d i_x + i_x d (H. Cartan, 1950; Hochschild and Serre, 1953), on the
cochains of a weight with some w_i != 0 the map d i_(e_i) / w_i is the
identity on cocycles, so that block is exact: its rank in degree k is
sum over j <= k of (-1)^(k-j) (its dim C^j).  Only the weight-0 block is
assembled (`_weight_zero_rows`) and eliminated; the counts give the rest,
so the reported dimensions are those of the whole complex.

The cohomology of a crossed homomorphism H is the Chevalley-Eilenberg
cohomology of g with coefficients in the induced action
rho_H(x)u = rho(x)u + [Hx, u], so on a degree-k cochain

    d_rho_H f = (-1)^(k+1) d_{rho_H} f,

the plain differential of rho_H with the classical (-1)^(i+1) / (-1)^(i+j)
signs restored.  `sign_relation_check` compares it with the independently
computed d_rho f + [[H, f]] through d_rho_H f = (-1)^(k-1) (d f + [[H, f]]).

The skew bracket [[f1, f2]] carries the global sign (-1)^(mn+1) over all
(m, n)-shuffles.  A linear map H is a crossed homomorphism exactly when
d H + (1/2)[[H, H]] vanishes, and the residual of that expression at (x, y)
is the negative of the pairwise crossed-homomorphism residual.

Linear deformations and Nijenhuis elements read the same two pieces.
H + tF is a crossed homomorphism for every t exactly when F is a 1-cocycle
of d_rho_H and (1/2)[[F, F]] = 0.  For a 1-cochain phi, (1/2)[[phi, phi]] at
(a, b) is [phi e_a, phi e_b], so that one bracket is each commuting law:
deformation-commute for F, Nij1 for ad x on g and Nij2 for rho(x) on h.
`cochain_findings` reports a cochain at its basis sites, for these laws, the
cocycle law and the Maurer-Cartan residual alike.  A Nijenhuis element x
gives the trivial deformation F = d_rho_H(-Hx); Nij4 (rho(x) kills each
rho_H(e_j)(Hx)) and deforiso-1 read that same coboundary.  `nijenhuis_grid`
builds the tables of rho_H once per grid, and a candidate's conditions are
computed in order up to the first that fails.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import comb, prod
from typing import Mapping, Sequence

from .errors import DimensionMismatch, NotCrossedHom, NotNijenhuis, require_no_findings, require_window_count
from .liealg import FinLieAlgebra, LieAction, Setup, _grid_search, _induced_columns, check_crossed_hom
from .linalg import Coeff, Matrix, Vector, _add_scaled, _dense, _echelon, _entry_matrix, exact_coeff
from .linalg import _Value, invert, require_shape
from .report import Finding, _nonzero_findings


class Cochain(_Value):
    """A degree-k cochain: values[T], T strictly increasing, is {u: c}, the
    nonzero coordinates of f(e_T), ints where integral and Fractions
    otherwise.  A T where f vanishes has no entry, so the field equality of
    `_Value` is the equality of cochains."""

    __slots__ = _fields = ("degree", "g_dim", "h_dim", "values")

    def __init__(self, degree: int, g_dim: int, h_dim: int, values: Mapping[tuple[int, ...], Mapping]):
        self.degree, self.g_dim, self.h_dim, self.values = degree, g_dim, h_dim, values
        for key, v in values.items():
            if len(key) != degree or any(not 0 <= t < g_dim for t in key):
                raise DimensionMismatch(f"bad index tuple {key} for degree {degree}")
            if list(key) != sorted(set(key)):
                raise DimensionMismatch(f"index tuple {key} is not strictly increasing")
            if not v:
                raise DimensionMismatch(f"cochain value at {key} is empty; leave it out")
            if not all(type(u) is int and 0 <= u < h_dim for u in v):
                raise DimensionMismatch(f"cochain value at {key} has an index outside h: {v}")
            if not all(c and type(c) in (int, Fraction) for c in v.values()):
                raise DimensionMismatch(f"cochain value at {key} has a zero or inexact coordinate: {v}")

    def is_zero(self) -> bool:
        return not self.values


def _cochain(degree: int, g_dim: int, h_dim: int, acc: dict) -> Cochain:
    """The Cochain of sparse accumulators {T: {u: c}} with no zero c: empty
    values dropped, coordinates as `exact_coeff` values, T sorted."""
    values = {T: {u: exact_coeff(c) for u, c in acc[T].items()} for T in sorted(acc) if acc[T]}
    return Cochain(degree, g_dim, h_dim, values)


def zero_cochain(degree: int, g_dim: int, h_dim: int) -> Cochain:
    return Cochain(degree, g_dim, h_dim, {})


def cochain_from_matrix(H: Matrix) -> Cochain:
    """Reinterpret a linear map h-dim x g-dim as a degree-1 cochain."""
    return _cochain(1, H.cols, H.rows, {(i,): dict(col) for i, col in enumerate(H.col_nonzeros)})


def cochain_add(a: Cochain, b: Cochain) -> Cochain:
    if (a.degree, a.g_dim, a.h_dim) != (b.degree, b.g_dim, b.h_dim):
        raise DimensionMismatch("cochain shapes differ")
    values = {T: dict(v) for T, v in a.values.items()}
    for T, v in b.values.items():
        _add_scaled(values.setdefault(T, {}), 1, v.items())
    return _cochain(a.degree, a.g_dim, a.h_dim, values)


def cochain_scale(c, a: Cochain) -> Cochain:
    c = exact_coeff(c)
    if not c:
        return zero_cochain(a.degree, a.g_dim, a.h_dim)
    values = {T: {u: c * x for u, x in v.items()} for T, v in a.values.items()}
    return _cochain(a.degree, a.g_dim, a.h_dim, values)


def _sort_with_sign(idx: Sequence[int]) -> tuple[tuple[int, ...], int] | None:
    """Sorted tuple and permutation sign; None when an index repeats."""
    arr = list(idx)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return tuple(arr), sign


def eval_basis(f: Cochain, idx: Sequence[int]) -> Vector:
    """Value at basis vectors e_{idx[0]}, ..., with alternation built in, as a
    dense vector of Fractions."""
    res = _sort_with_sign(idx)
    if res is None:
        return _dense({}, f.h_dim)
    key, sign = res
    return _dense({u: sign * c for u, c in f.values.get(key, {}).items()}, f.h_dim)


def _by_target(g: FinLieAlgebra) -> list[list[tuple[int, int, Coeff]]]:
    """For each target index t, the structure constants (a, b, [e_a, e_b]_t)
    with a < b and a nonzero value, read from `structure_terms`."""
    by_target = [[] for _ in range(g.dim)]
    for (a, b), terms in sorted(g.structure_terms.items()):
        if a < b:
            for t, c in terms:
                by_target[t].append((a, b, c))
    return by_target


def _coboundary_tables(rho: LieAction):
    """What the scatter step reads: for each g-basis index i the sparse columns
    [(w, rho(e_i)[w, u]) ...] of rho(e_i), and `_by_target` of the source."""
    return [m.col_nonzeros for m in rho.matrices], _by_target(rho.source)


def _induced_tables(s: Setup):
    """The tables of `_coboundary_tables` for rho_H, from
    `liealg._induced_columns`, with `exact_coeff` entries throughout."""
    return _induced_columns(s), _by_target(s.g)


def _scatter_sites(tables, g_dim: int, T: tuple[int, ...]):
    """Where the plain differential of a cochain supported at T alone sends
    its value, apart from the value itself.

    Returns the action sites (S, columns of rho(e_i), negate), one per i not
    in T, and the bracket sites [(S, coefficient)], merged per S with zeros
    dropped.
    """
    columns, by_target = tables
    m = len(T)
    acts = []
    pos = 0
    for i in range(g_dim):
        if pos < m and T[pos] == i:
            pos += 1
            continue
        acts.append((T[:pos] + (i,) + T[pos:], columns[i], (m + pos + 1) % 2))
    brackets: dict = {}
    for p, t in enumerate(T):
        R = T[:p] + T[p + 1 :]
        for a, b, c in by_target[t]:
            if a in R or b in R:
                continue
            pa = bisect_left(R, a)
            pb = bisect_left(R, b)
            S = R[:pa] + (a,) + R[pa:pb] + (b,) + R[pb:]
            # (-1)^(m + pi + pj + 1) with pi = pa, pj = pb + 1, times (-1)^p
            neg = (m + pa + pb + p) % 2
            brackets[S] = brackets.get(S, 0) + (-c if neg else c)
    return acts, [(S, c) for S, c in brackets.items() if c]


def _unit_image(sites, u: int) -> dict:
    """The plain differential of the unit value e_u at T alone, {(S, w): value},
    from the sites of T (`_scatter_sites`); entries that cancel are dropped."""
    acts, brackets = sites
    out = {(S, u): c for S, c in brackets}
    for S, col_i, neg in acts:
        for w, a in col_i[u]:
            key = (S, w)
            c = out.get(key, 0) + (-a if neg else a)
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _differential(tables, f: Cochain) -> Cochain:
    """The plain differential of f with the scatter tables of an action: the
    sum of `_unit_image` scaled by each nonzero value of f."""
    out: dict = {}
    for T, v in f.values.items():
        sites = _scatter_sites(tables, f.g_dim, T)
        for u, x in v.items():
            _add_scaled(out, x, _unit_image(sites, u).items())
    values: dict = {}
    for (S, w), c in out.items():
        values.setdefault(S, {})[w] = c
    return _cochain(f.degree + 1, f.g_dim, f.h_dim, values)


def plain_differential(rho: LieAction, f: Cochain) -> Cochain:
    """Degree-raising differential built from the action alone."""
    if (f.g_dim, f.h_dim) != (rho.source.dim, rho.target.dim):
        raise DimensionMismatch("cochain does not match the action's algebras")
    return _differential(_coboundary_tables(rho), f)


def derived_bracket(h: FinLieAlgebra, f1: Cochain, f2: Cochain) -> Cochain:
    """Skew bracket with sign (-1)^(mn+1) over all (m, n)-shuffles.

    Each pair of nonzero values f1(T1), f2(T2) with disjoint T1, T2 adds
    +-[f1(T1), f2(T2)] at S = sorted(T1 + T2), signed by that shuffle.
    """
    if f1.g_dim != f2.g_dim or f1.h_dim != f2.h_dim:
        raise DimensionMismatch("cochains live over different ambients")
    if f1.h_dim != h.dim:
        raise DimensionMismatch("cochain values do not live in the given algebra")
    m, n = f1.degree, f2.degree
    global_sign = -1 if (m * n + 1) % 2 else 1
    terms = h.structure_terms
    totals: dict = {}
    for T1, v1 in f1.values.items():
        for T2, v2 in f2.values.items():
            merged = _sort_with_sign(T1 + T2)
            if merged is None:
                continue
            S, sign = merged
            acc = totals.setdefault(S, {})
            for a, x in v1.items():
                xs = x if sign == global_sign else -x
                for b, y in v2.items():
                    _add_scaled(acc, xs * y, terms.get((a, b), ()))
    return _cochain(m + n, f1.g_dim, h.dim, totals)


def _half_square(h: FinLieAlgebra, f: Cochain) -> Cochain:
    """(1/2)[[f, f]]; for a 1-cochain its value at (a, b) is [f e_a, f e_b]."""
    return cochain_scale(Fraction(1, 2), derived_bracket(h, f, f))


def mc_residual(s: Setup) -> Cochain:
    """d H + (1/2)[[H, H]]; vanishes exactly when H is a crossed homomorphism."""
    Hc = cochain_from_matrix(s.H.matrix)
    dH = plain_differential(s.rho, Hc)
    return cochain_add(dH, _half_square(s.h, Hc))


def _require_crossed_hom(s: Setup):
    require_no_findings(check_crossed_hom(s), NotCrossedHom)


def _twisted_differential(tables, f: Cochain) -> Cochain:
    """d_rho_H f = (-1)^(k+1) times the plain differential of rho_H, with the
    tables of `_induced_tables`."""
    df = _differential(tables, f)
    return df if f.degree % 2 else cochain_scale(-1, df)


def ce_differential(s: Setup, f: Cochain) -> Cochain:
    """Coboundary of the twisted action rho_H; requires a certified H."""
    if (f.g_dim, f.h_dim) != (s.g.dim, s.h.dim):
        raise DimensionMismatch("cochain does not match the setup")
    _require_crossed_hom(s)
    return _twisted_differential(_induced_tables(s), f)


def sign_relation_check(s: Setup, f: Cochain) -> bool:
    """d_rho_H f == (-1)^(k-1) (d f + [[H, f]]), evaluated exactly."""
    lhs = ce_differential(s, f)
    Hc = cochain_from_matrix(s.H.matrix)
    rhs = cochain_add(plain_differential(s.rho, f), derived_bracket(s.h, Hc, f))
    if (f.degree - 1) % 2:
        rhs = cochain_scale(-1, rhs)
    return lhs == rhs


class DegreeDims(_Value):
    __slots__ = _fields = ("k", "dim_C", "dim_Z", "dim_B", "dim_H")

    def __init__(self, k: int, dim_C: int, dim_Z: int, dim_B: int, dim_H: int):
        self.k, self.dim_C, self.dim_Z, self.dim_B, self.dim_H = k, dim_C, dim_Z, dim_B, dim_H


class CohomologyReport(_Value):
    __slots__ = _fields = ("degrees",)

    def __init__(self, degrees: tuple[DegreeDims, ...]):
        self.degrees = degrees

    def dims_H(self) -> list[int]:
        return [d.dim_H for d in self.degrees]

    def to_json(self) -> dict:
        return {"degrees": [{f: getattr(d, f) for f in d._fields} for d in self.degrees]}


def _cells(tables, weights, k: int):
    """The images (`_unit_image`) of the degree-k unit cochains (T, u) of
    weight 0, T in lexicographic order and u ascending.

    Cell (T, u) has weight w_h[u] - sum of w_g[t], t in T; the u are bucketed
    by weight, so each T finds its weight-0 cells at once and its sites
    (`_scatter_sites`) are found once for all of them.  With the trivial
    weights ([()] * dim g, [()] * dim h) every cell counts.
    """
    w_g, w_h = weights
    g_dim, zero = len(w_g), (0,) * len(w_g[0]) if w_g else ()
    bucket: dict[tuple, list[int]] = {}
    for u, w in enumerate(w_h):
        bucket.setdefault(w, []).append(u)
    for T in itertools.combinations(range(g_dim), k):
        us = bucket.get(tuple(map(sum, zip(zero, *(w_g[t] for t in T)))))
        if us:
            sites = _scatter_sites(tables, g_dim, T)
            for u in us:
                yield _unit_image(sites, u)


def differential_matrix(s: Setup, k: int) -> Matrix:
    """Matrix of the degree-k coboundary on the lexicographic tuple basis, a
    dense matrix of Fractions: column (T, u) is the image of the unit cochain
    (`_cells` with the trivial weights) times (-1)^(k+1), at rows (S, w)."""
    if k < 0:
        raise DimensionMismatch(f"the top cohomology degree must be >= 0, got {k}")
    g_dim, h_dim = s.g.dim, s.h.dim
    row_base = {S: p * h_dim for p, S in enumerate(itertools.combinations(range(g_dim), k + 1))}
    sign = 1 if k % 2 else -1
    cells = enumerate(_cells(_induced_tables(s), ([()] * g_dim, [()] * h_dim), k))
    entries = ((row_base[S] + w, j, sign * c) for j, image in cells for (S, w), c in image.items())
    return _entry_matrix(len(row_base) * h_dim, comb(g_dim, k) * h_dim, entries)


def _eigenvalues(images) -> list[Coeff] | None:
    """The diagonal of an operator given by images[j], the nonzero (k, c) of
    its value at basis vector j; None when some image leaves its own line."""
    diagonal = [0] * len(images)
    for j, image in enumerate(images):
        for k, c in image:
            if k != j:
                return None
            diagonal[j] = c
    return diagonal


def _weights(s: Setup, tables) -> tuple[list[tuple], list[tuple]]:
    """The weight vectors (w_g, w_h) of the g- and h-basis.

    A g-basis index i counts when ad(e_i) (from `structure_terms`) and rho_H(e_i)
    (from the tables) are diagonal, with eigenvalues lam and mu, and the
    tables are homogeneous for them: rho_H(e_j) e_u has only components e_w
    with mu[w] - mu[u] = lam[j], and [e_a, e_b]_t != 0 only where
    lam[t] = lam[a] + lam[b].  For an action of a Lie algebra these hold
    whenever the diagonals do; they make every row of d_k one weight.
    w_g[j] and w_h[u] list the eigenvalues over the counted indices; with
    none counted they are all the empty weight.
    """
    g_dim, terms = s.g.dim, s.g.structure_terms
    columns, by_target = tables
    lams, mus = [], []
    for i in range(g_dim):
        lam = _eigenvalues([terms.get((i, j), ()) for j in range(g_dim)])
        mu = None if lam is None else _eigenvalues(columns[i])
        if mu is None:
            continue
        if all(
            mu[w] - mu[u] == lam[j]
            for j, cols in enumerate(columns)
            for u, col in enumerate(cols)
            for w, _ in col
        ) and all(lam[a] + lam[b] == lam[t] for t, abc in enumerate(by_target) for a, b, _ in abc):
            lams.append(lam)
            mus.append(mu)
    w_g = [tuple(lam[j] for lam in lams) for j in range(g_dim)]
    return w_g, [tuple(mu[u] for mu in mus) for u in range(s.h.dim)]


def _weight_zero_rows(tables, weights, k: int) -> tuple[dict[tuple, dict[int, Coeff]], int]:
    """The nonzero rows {(S, w): {column: value}} of the weight-0 block of d_k
    up to sign, and its number of columns.

    The columns are the images of `_cells`, numbered sparsest first; rows are
    keyed by (S, w) as the columns reach them.  Neither that order nor the
    global sign (-1)^(k+1) of d_k, left out, changes the rank.
    """
    cols = sorted(_cells(tables, weights, k), key=len)
    rows: dict[tuple, dict[int, Coeff]] = {}
    for col, image in enumerate(cols):
        for key, c in image.items():
            rows.setdefault(key, {})[col] = c
    return rows, len(cols)


def cohomology_dims(s: Setup, k_max: int) -> CohomologyReport:
    """Exact cocycle/coboundary/cohomology dimensions for degrees 0..k_max.

    Coboundaries in degree 0 are taken to be zero, so dim H^0 counts the
    invariants of the twisted action.  The tables of rho_H are built once.
    Only the weight-0 block of each d_k is assembled, as sparse rows, and
    eliminated.  By Cartan's formula L_x = d i_x + i_x d the blocks of
    nonzero weight are exact (see the module docstring), so their rank in
    degree k is the count

        sum over j <= k of (-1)^(k-j) (dim C^j - dim C^j(0)),

    and the dimensions reported are those of the whole complex.  With no
    diagonal element every cochain has weight 0 and the whole complex is
    ranked.  Like the cohomology itself, this assumes d o d = 0: g a Lie
    algebra and rho an action, which the CLI checks first.  `_weights` uses
    an e_i only where d keeps its weights, so no row mixes weights even then.
    Raises SearchSpaceTooLarge before any assembly when k_max + 2 degrees,
    or some C^(k+1) with k <= k_max, exceed MAX_WINDOW_COUNT.
    """
    if k_max < 0:
        raise DimensionMismatch(f"the top cohomology degree must be >= 0, got {k_max}")
    g_dim, h_dim = s.g.dim, s.h.dim
    require_window_count(k_max + 2, "cohomology degrees")
    dims_C = [comb(g_dim, k) * h_dim for k in range(k_max + 2)]
    for c in dims_C[1:]:
        require_window_count(c, "cochain coordinates")
    _require_crossed_hom(s)
    tables = _induced_tables(s)
    weights = _weights(s, tables)
    ranks, nonzero_rank = [], 0
    for k in range(k_max + 1):
        rows, weight_zero = _weight_zero_rows(tables, weights, k)
        nonzero_rank = dims_C[k] - weight_zero - nonzero_rank
        ranks.append(len(_echelon(list(rows.values()), weight_zero)[1]) + nonzero_rank)
    degrees = []
    for k in range(k_max + 1):
        z = dims_C[k] - ranks[k]
        b = ranks[k - 1] if k > 0 else 0
        degrees.append(DegreeDims(k, dims_C[k], z, b, z - b))
    return CohomologyReport(tuple(degrees))


def cochain_map_phi(phi_g: Matrix, phi_h: Matrix, f: Cochain) -> Cochain:
    """Transport f along (phi_g, phi_h): f |-> phi_h o f o (phi_g^{-1})^(x k).

    f(phi_g^{-1} e_T) is expanded multilinearly over the nonzeros of the
    inverse's columns t in T; `_sort_with_sign` alternates each term."""
    require_shape(phi_g, f.g_dim, f.g_dim, "phi_g")
    require_shape(phi_h, f.h_dim, f.h_dim, "phi_h")
    inv, columns = invert(phi_g).col_nonzeros, phi_h.col_nonzeros
    values = {}
    for T in itertools.combinations(range(f.g_dim), f.degree):
        w = values[T] = {}
        for terms in itertools.product(*(inv[t] for t in T)):
            key = _sort_with_sign([s for s, _ in terms])
            if key is not None and key[0] in f.values:
                c = key[1] * prod(x for _, x in terms)
                for u, y in f.values[key[0]].items():
                    _add_scaled(w, c * y, columns[u])
    return _cochain(f.degree, f.g_dim, f.h_dim, values)


# ---------------------------------------------------------------------------
# linear deformations and Nijenhuis elements


def cochain_findings(rule: str, names: Sequence[str], f: Cochain) -> list[Finding]:
    """One finding per nonzero value of f, at the basis names of its tuple, in
    tuple order, with the value as a dense vector of Fractions."""
    sites = ((tuple(names[t] for t in S), f.values[S]) for S in sorted(f.values))
    return _nonzero_findings(rule, f.h_dim, sites)


def _commuting_findings(
    rule: str, names: Sequence[str], h: FinLieAlgebra, phi: Matrix
) -> list[Finding]:
    """Every basis pair a < b of phi's source with [phi e_a, phi e_b] != 0 in h."""
    return cochain_findings(rule, names, _half_square(h, cochain_from_matrix(phi)))


def _trivial_generator(s: Setup, tables, x: Vector) -> Matrix:
    """The matrix of d_rho_H(-Hx): column i is -rho_H(e_i)(Hx)."""
    minus_Hx = {u: -c for u, c in enumerate(s.H.apply(x)) if c}
    d = _twisted_differential(tables, _cochain(0, s.g.dim, s.h.dim, {(): minus_Hx}))
    images = [(u, i, c) for (i,), image in d.values.items() for u, c in image.items()]
    return _entry_matrix(s.h.dim, s.g.dim, images)


def check_linear_deformation(s: Setup, frkH: Matrix) -> list[Finding]:
    """Whether H + t*frkH stays a crossed homomorphism for every t.

    Requires frkH to be a 1-cocycle of the twisted coboundary and
    (1/2)[[frkH, frkH]] to vanish, i.e. the images of basis pairs to commute.
    """
    _require_crossed_hom(s)
    require_shape(frkH, s.h.dim, s.g.dim, "deformation direction")
    names = s.g.basis_names
    d = _twisted_differential(_induced_tables(s), cochain_from_matrix(frkH))
    return cochain_findings("deformation-cocycle", names, d) + _commuting_findings(
        "deformation-commute", names, s.h, frkH
    )


def _nijenhuis_conditions(s: Setup, tables, x: Vector):
    """The findings of Nij1, ..., Nij4 at x, for a certified H: one list per
    condition, each computed only when the next one is asked for."""
    g, h = s.g, s.h
    adx = g.ad(x)
    yield _commuting_findings("Nij1", g.basis_names, g, adx)
    rx = s.rho.of(x)
    yield _commuting_findings("Nij2", h.basis_names, h, rx)
    nij3 = []
    for j in range(g.dim):
        m = s.rho.of(adx.col(j)) * rx
        if not m.is_zero():
            nij3.append(Finding("Nij3", (g.basis_names[j],), m))
    yield nij3
    # rho(x) rho_H(e_j)(Hx) = 0: rho(x) times minus the trivial generator
    images = rx * -_trivial_generator(s, tables, x)
    yield cochain_findings("Nij4", g.basis_names, cochain_from_matrix(images))


def check_nijenhuis(s: Setup, x: Vector) -> list[Finding]:
    """The four Nijenhuis conditions at x, reported per failing basis site."""
    _require_crossed_hom(s)
    if len(x) != s.g.dim:
        raise DimensionMismatch("element has the wrong length for g")
    return list(itertools.chain.from_iterable(_nijenhuis_conditions(s, _induced_tables(s), x)))


def nijenhuis_grid(s: Setup, grid: Sequence) -> list[Vector]:
    """All coordinate tuples over the grid passing check_nijenhuis, by
    `liealg._grid_search`; H is certified and the tables of rho_H built once."""
    _require_crossed_hom(s)
    tables = _induced_tables(s)
    return _grid_search(grid, s.g.dim, lambda x: not any(_nijenhuis_conditions(s, tables, x)))


def trivial_deformation_generator(s: Setup, x: Vector) -> Matrix:
    """The coboundary d_rho_H(-Hx) of the 0-cochain -Hx: column i is -rho_H(e_i)(Hx).

    For a Nijenhuis x this generates a deformation that is trivial; the
    result always passes check_linear_deformation.
    """
    require_no_findings(check_nijenhuis(s, x), NotNijenhuis)
    return _trivial_generator(s, _induced_tables(s), x)


def check_deformation_equivalence(
    s: Setup, frkH1: Matrix, frkH2: Matrix, x: Vector
) -> list[Finding]:
    """Equivalence of H + t*frkH1 and H + t*frkH2 witnessed by x.

    Verifies the two derived identities (the difference is the coboundary of
    -Hx, and frkH1[x, y] = rho(x) frkH2(y)) together with the first three
    Nijenhuis constraints on the witness.
    """
    _require_crossed_hom(s)
    if len(x) != s.g.dim:
        raise DimensionMismatch("element has the wrong length for g")
    tables = _induced_tables(s)
    findings = []
    diff = (frkH2 - frkH1) - _trivial_generator(s, tables, x)
    if not diff.is_zero():
        findings.append(Finding("deforiso-1", ("frkH2 - frkH1",), diff))
    twisted = frkH1 * s.g.ad(x) - s.rho.of(x) * frkH2
    findings += cochain_findings("deforiso-2", s.g.basis_names, cochain_from_matrix(twisted))
    for nij in itertools.islice(_nijenhuis_conditions(s, tables, x), 3):
        findings += nij
    return findings
