"""Sparse exact arithmetic for vector-field algebras over Laurent polynomials.

The ambient algebra is spanned by x^r d_i with r in Z^n and d_i = x_i @/@x_i,
with bracket

    [x^r d_i, x^s d_j] = s_i x^{r+s} d_j - r_j x^{r+s} d_i.

A_n, gl_n (x) A_n, the Shen-Larsson modules V (x) A_n and W_n itself are
all tensor modules V (x) A_n; W_n is the one of V*, the dual of the natural
gl_n-representation, with x^r d_i = v_i (x) x^r.  Their elements
(`LaurentPoly`, `GlLaurent`, `VTensorA`, `WittElem`) share one layout,
{(p, r): c} for v_p (x) x^r, with one product by A_n (`_add_product`, behind
`TensorElem.poly_scale`) and one action loop (`_tensor_action`), both adding
into the caller's accumulator dict: `WittElem.apply` runs the loop with
theta = 0, the coefficientwise action, `witt_bracket` with theta(E_ki) = -E_ik,
and `rinehart.shen_larsson_apply` with the table of a gl_n-representation
theta.  `gl_bracket` reads the brackets of `liealg.gl_algebra(n)`.
`verify_witt_crossed_hom` sums each residual in one dict with them.

Everything is written in the d_i basis (including the Hamiltonian fields; in
that basis their bracket closes with coefficient sum(r_{n+i} s_i - s_{n+i} r_i)
and the quadratic coefficient matrices land in sp_{2n}).  A Window bounds
which basis elements a verification covers; every individual identity check
is exact.  Exponents may also be `poly.Poly` polynomials: the kernels read
them only through +, - and * and through truth tests that skip zero terms.
One builder, `_family_basis`, writes each family's elements at a list of
exponent tuples: the window's (`witt_window_basis`, `sdiv_window_basis`,
`ham_window_basis`) or one tuple of variables (`_symbolic_basis`, one
element per kind).  `verify_witt_crossed_hom` runs its one pair-residual
generator, `_crossed_hom_defects`, and `_landing_defects` on the symbolic
kinds first and on the window only when one of them is nonzero; the
Shen-Larsson window checks of `rinehart` do the same for the built-in
action.

Coefficients of the sparse elements are exact rationals stored as Python
`int` when integral and as `fractions.Fraction` otherwise (`exact_coeff`);
the two compare, hash and print alike.  Every structure constant of the Witt,
gl_n and Shen-Larsson kernels is an integer, so on integral input they run in
int arithmetic; Fractions appear only through non-integral input, such as the
pq twist with q = 1/2.  Dense `Matrix`/`Vector` values stay Fractions.

Finite-dimensional commutative algebras and their derivation-generated Lie
algebras (the generalized Witt construction) live here too, so the same
crossed-homomorphism checker from `liealg` can certify the canonical maps on
finite models.  `FinCommAlgebra` is the commutative kind of the structure
algebra of `liealg` (`FinLieAlgebra` is the antisymmetric one): it shares
the layout, the nonzero view `structure_terms`, `mult_matrix` and the
Leibniz rule `derivation_violations`, and adds a unit and the associativity
check, which reads the view.
The generalized Witt algebra A (x) Delta is the action Lie-Rinehart algebra of
the Leibniz pair (A, span Delta): one builder, `action_structure`, writes the
S (x) A structure constants and the coefficient operators mult(a_s) beta_i for
`generalized_witt` (S abelian on Delta), `rinehart.action_lie_rinehart` and,
with no beta, `gl_tensor_algebra` (S = `liealg.gl_algebra(m)`); one
`_canonical_matrix` serves the setup and `canonical_crossed_hom_GW`.
`_validate_delta` returns that abelian S once Delta commutes, which is the
Lie-homomorphism law of Delta on S (`liealg.homomorphism_violations`), and
one `_gl_tensor_setup` builds the Setup (L, gl_n (x) A, I (x) anchor, H)
of `generalized_witt_setup` and of `rinehart.certify_gl_tensor_crossed_hom`.

Direction indices are 0-based in the Python API and rendered 1-based (d_1,
E_11, ...) in strings and JSON.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .errors import (
    MAX_WINDOW_COUNT,
    DimensionMismatch,
    IndexOutOfRange,
    MalformedP,
    NotCommuting,
    NotDerivation,
    ParseError,
    SearchSpaceTooLarge,
    require_int,
    require_window_count,
)
from .liealg import (
    CrossedHom,
    FinLieAlgebra,
    LieAction,
    Setup,
    _StructureAlgebra,
    _basis_sites,
    abelian,
    derivation_violations,
    gl_algebra,
    homomorphism_violations,
)
from .linalg import Coeff, Matrix, Vector, _Value, _add_scaled, _dense, _entry_matrix, exact_coeff, rational
from .poly import Poly
from .report import Finding, _nonzero_findings

MultiIndex = tuple[int, ...]


def _exponents(r: Sequence[int], n: int) -> MultiIndex:
    """r as an exponent tuple of length n: an int or a `Poly` (a symbolic
    exponent) is kept and an integral Fraction stored as its int; any other
    entry (a bool, a float, a string, a non-integral value) raises
    ParseError, a wrong length DimensionMismatch."""
    r = tuple(r)
    if len(r) != n:
        raise DimensionMismatch(f"exponent length {len(r)} != {n}")
    if all(type(e) is int for e in r):
        return r
    out = []
    for e in r:
        if type(e) is Fraction and e.denominator == 1:
            e = e.numerator
        if type(e) is not int and type(e) is not Poly:
            raise ParseError(f"exponent {e!r} is not an integer")
        out.append(e)
    return tuple(out)


def _coeff(c) -> Coeff:
    """`exact_coeff(c)`, with a `Poly` passed through: the coefficients of
    elements with symbolic exponents are polynomials in them."""
    return c if type(c) is Poly else exact_coeff(c)


def _add_term(terms: dict, key, coeff: Coeff):
    c = terms.get(key, 0) + coeff
    if c:
        terms[key] = c
    else:
        terms.pop(key, None)


def _exp_str(r: MultiIndex) -> str:
    return "x^(" + ",".join(str(e) for e in r) + ")"


class Window(_Value):
    """Exponent bound B >= 1: the windowed set is all r with |r_k| <= B."""

    __slots__ = _fields = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound
        require_int(DimensionMismatch, "window bound", (bound,))
        if bound < 1:
            raise DimensionMismatch("window bound must be >= 1")


def window_size(n: int, bound: int) -> int:
    """The number (2 bound + 1)^n of exponent tuples in a window.

    Raises DimensionMismatch for a negative n, and SearchSpaceTooLarge above
    MAX_WINDOW_COUNT, without computing the power when it is certainly too
    large (a side of at least 2 and n of at least 24 give at least
    2^24 > 10^7 tuples).
    """
    if n < 0:
        raise DimensionMismatch(f"variable count {n} is negative")
    side = max(2 * bound + 1, 0)
    if side >= 2 and n >= MAX_WINDOW_COUNT.bit_length():
        raise SearchSpaceTooLarge(
            f"{side}^{n} window exponent tuples exceed the {MAX_WINDOW_COUNT} guard"
        )
    return require_window_count(side ** n, "window exponent tuples")


def window_exponents(n: int, bound: int) -> list[MultiIndex]:
    window_size(n, bound)
    return list(itertools.product(range(-bound, bound + 1), repeat=n))


class TensorElem:
    """Element of a tensor module V (x) A_n: `terms` maps (p, r) to the
    coefficient of v_p (x) x^r, a nonzero exact rational.

    A value is an int or a Fraction, never a bool or a float; the constructors
    and `scale` store an integral value as its int.  Elements built with
    symbolic (`Poly`) exponents have `Poly` values.

    A_n is V = C with p = 0 (`LaurentPoly`), gl_n (x) A_n is V = gl_n with
    p = i * n + j for E_ij, the basis order of `liealg.gl_algebra(n)`
    (`GlLaurent`), W_n is V = the dual of the natural representation, with
    p = i for x^r d_i (`WittElem`), and `VTensorA` takes any
    gl_n-representation V.  The classes are slotted `linalg._Value`s whose
    last field is `terms`; they differ only in the fields before it
    (`_shape`), which fix the ambient space, and in `term_label(p, r)`, the
    rendered v_p (x) x^r ("" for the unit of A_n).  Only elements of the same
    class and shape combine.  Equality is that of `_Value`: the same class
    and equal fields.
    """

    __slots__ = _fields = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, MultiIndex], Coeff]):
        self.n, self.terms = n, terms

    @classmethod
    def zero(cls, *shape):
        return cls(*shape, {})

    def _shape(self) -> tuple:
        return (self.n,)

    def _new(self, terms: dict):
        return type(self)(*self._shape(), terms)

    def _require_same(self, other: "TensorElem"):
        if type(other) is not type(self) or other._shape() != self._shape():
            raise DimensionMismatch(
                f"cannot combine {type(self).__name__}{self._shape()} with "
                f"{type(other).__name__}{other._shape()}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        self._require_same(other)
        return self._new(_add_scaled(dict(self.terms), 1, other.terms.items()))

    def __sub__(self, other):
        self._require_same(other)
        return self._new(_add_scaled(dict(self.terms), -1, other.terms.items()))

    def __neg__(self):
        return self._new({k: -v for k, v in self.terms.items()})

    def scale(self, c):
        c = _coeff(c)  # an int product is kept as it is; any other is normalised
        terms = self.terms.items() if c else ()
        return self._new({k: p if type(p := c * v) is int else _coeff(p) for k, v in terms})

    def sorted_terms(self) -> list:
        """The terms in the order of (p, r); with symbolic exponents, each
        number (or constant `Poly`) before any other `Poly`, those by their
        canonical `str`."""
        return sorted(self.terms.items(), key=_term_order)

    def poly_scale(self, a: "LaurentPoly"):
        """Multiply the coefficient factor: a (v_p (x) x^s) = v_p (x) a x^s."""
        if type(a) is not LaurentPoly:
            raise DimensionMismatch(f"cannot scale by a {type(a).__name__}, only by a LaurentPoly")
        if a.n != self.n:
            raise DimensionMismatch("variable counts differ")
        return self._new(_add_product({}, self.terms, a.terms))

    def __str__(self) -> str:
        parts = []
        for (p, r), c in self.sorted_terms():
            label = self.term_label(p, r)
            if type(c) is Poly and len(c.terms) > 1:
                c = f"({c})"
            prefix = "" if c == 1 else "-" if c == -1 else f"{c}*"
            parts.append(prefix + label if label else str(c))
        return " + ".join(parts) if parts else "0"


def _term_order(item) -> tuple:
    """Sort key of a term ((p, r), c): p, then r entrywise, a number e as
    (0, e) and a non-constant `Poly` as (1, str)."""
    (p, r), _ = item
    key = []
    for e in r:
        if type(e) is Poly:
            e = e.terms.get((), 0) if not e.terms.keys() - {()} else str(e)
        key.append((1, e) if type(e) is str else (0, e))
    return p, key


def _add_product(acc: dict, terms: Mapping, a_terms: Mapping, c: Coeff = 1) -> dict:
    """Add c (a t) to acc and return acc, for a tensor element t with `terms`
    and a Laurent polynomial a with `a_terms`: the product of
    `TensorElem.poly_scale`."""
    for (p, s), ct in terms.items():
        ct = c * ct
        for (_, r), ca in a_terms.items():
            _add_term(acc, (p, tuple(map(add, s, r))), ct * ca)
    return acc


def _tensor_action(acc: dict, w: Mapping, terms: Mapping, theta=(), c: Coeff = 1) -> dict:
    """Add c (w . m) to acc and return acc, for an element of W_n with terms w
    and a tensor element m with `terms`, where

        (x^r d_i) . (v_p (x) x^s) = s_i v_p (x) x^{r+s} + sum_k r_k theta(E_ki) v_p (x) x^{r+s}

    and theta[i][p] lists the nonzero (k, p2, e), e the (p2, p) entry of
    theta(E_ki).  Without theta it is zero: the coefficientwise action.
    """
    for (i, r), cw in w.items():
        cw = c * cw
        cols = theta[i] if theta else None
        for (p, s), ct in terms.items():
            si, key_exp = s[i], None
            if si:
                key_exp = tuple(map(add, r, s))
                _add_term(acc, (p, key_exp), cw * ct * si)
            if cols:
                for k, p2, e in cols[p]:
                    rk = r[k]
                    if rk:
                        key_exp = key_exp or tuple(map(add, r, s))
                        _add_term(acc, (p2, key_exp), cw * ct * rk * e)
    return acc


class LaurentPoly(TensorElem, _Value):
    """Element of the Laurent polynomial algebra A_n = C (x) A_n, sparse;
    keys are (0, exponent tuple)."""

    __slots__ = ()

    @staticmethod
    def monomial(n: int, r: Sequence[int], coeff=1) -> "LaurentPoly":
        c = _coeff(coeff)
        r = _exponents(r, n)
        return LaurentPoly(n, {(0, r): c} if c else {})

    def supported_only_on(self, var: int) -> bool:
        return all(
            all(e == 0 for k, e in enumerate(r) if k != var) for _, r in self.terms
        )

    def term_label(self, p: int, r: MultiIndex) -> str:
        return _exp_str(r) if any(r) else ""


class WittElem(TensorElem, _Value):
    """Element sum c_{i,r} x^r d_i of W_n, sparse; keys are (direction,
    exponent tuple)."""

    __slots__ = ()

    @staticmethod
    def basis(n: int, r: Sequence[int], i: int, coeff=1) -> "WittElem":
        require_int(IndexOutOfRange, "direction", (i,), n)
        r = _exponents(r, n)
        c = _coeff(coeff)
        return WittElem(n, {(i, r): c} if c else {})

    def apply(self, m: TensorElem) -> TensorElem:
        """Coefficientwise action on a tensor element:
        (x^r d_i)(v_p (x) x^s) = s_i v_p (x) x^{r+s}."""
        if m.n != self.n:
            raise DimensionMismatch("variable counts differ")
        return m._new(_tensor_action({}, self.terms, m.terms))

    def term_label(self, p: int, r: MultiIndex) -> str:
        return (f"{_exp_str(r)} " if any(r) else "") + f"d_{p + 1}"


@functools.cache
def _dual_natural(n: int) -> tuple:
    """theta(E_ki) = -E_ik, the dual of the natural representation, in the
    layout of `_tensor_action`: theta[i][p] = ((p, i, -1),)."""
    return tuple(tuple(((p, i, -1),) for p in range(n)) for i in range(n))


def witt_bracket(a: WittElem, b: WittElem) -> WittElem:
    """[x^r d_i, x^s d_j] = s_i x^{r+s} d_j - r_j x^{r+s} d_i, extended bilinearly:
    the action of W_n on its own tensor module."""
    a._require_same(b)
    return WittElem(a.n, _tensor_action({}, a.terms, b.terms, _dual_natural(a.n)))


def divergence(w: WittElem) -> LaurentPoly:
    """Linear extension of x^r d_i |-> r_i x^r."""
    out: dict[tuple[int, MultiIndex], Coeff] = {}
    for (i, r), c in w.terms.items():
        if r[i]:
            _add_term(out, (0, r), c * r[i])
    return LaurentPoly(w.n, out)


def s_generator(n: int, i: int, j: int, r: Sequence[int]) -> WittElem:
    """Divergence-free generator r_j x^r d_i - r_i x^r d_j."""
    require_int(IndexOutOfRange, "directions", (i, j), n)
    r = _exponents(r, n)
    out: dict[tuple[int, MultiIndex], Coeff] = {}
    _add_term(out, (i, r), r[j])
    _add_term(out, (j, r), -r[i])
    return WittElem(n, out)


def hamiltonian_field(n: int, r: Sequence[int]) -> WittElem:
    """h(r) = sum_i (r_{n+i} x^r d_i - r_i x^r d_{n+i}) as an element of W_{2n}."""
    r = _exponents(r, 2 * n)
    coeffs = r[n:] + tuple(-e for e in r[:n])
    return WittElem(2 * n, {(k, r): c for k, c in enumerate(coeffs) if c})


def hamiltonian_bracket_coefficient(n: int, r: Sequence[int], s: Sequence[int]) -> Fraction:
    """Structure coefficient sum_i (r_{n+i} s_i - s_{n+i} r_i) of [h(r), h(s)]."""
    return Fraction(sum(r[n + i] * s[i] - s[n + i] * r[i] for i in range(n)))


class GlLaurent(TensorElem, _Value):
    """Element of gl_n (x) A_n; keys are (i * n + j, exponent tuple) for
    E_ij (x) x^r."""

    __slots__ = ()

    @staticmethod
    def basis(n: int, i: int, j: int, r: Sequence[int], coeff=1) -> "GlLaurent":
        require_int(IndexOutOfRange, "matrix position", (i, j), n)
        c = _coeff(coeff)
        r = _exponents(r, n)
        return GlLaurent(n, {(i * n + j, r): c} if c else {})

    def term_label(self, p: int, r: MultiIndex) -> str:
        i, j = divmod(p, self.n)
        return f"E_{i + 1}{j + 1}" + (f" (x) {_exp_str(r)}" if any(r) else "")


class VTensorA(TensorElem, _Value):
    """Element of V (x) A_n for a gl_n-representation V of dimension dim_v;
    keys are (component index, exponent tuple)."""

    __slots__ = ("dim_v",)
    _fields = ("n", "dim_v", "terms")

    def __init__(self, n: int, dim_v: int, terms: Mapping[tuple[int, MultiIndex], Coeff]):
        self.n, self.dim_v, self.terms = n, dim_v, terms

    @staticmethod
    def basis(n: int, dim_v: int, p: int, r: Sequence[int], coeff=1) -> "VTensorA":
        require_int(DimensionMismatch, "component", (p,), dim_v)
        c = _coeff(coeff)
        r = _exponents(r, n)
        return VTensorA(n, dim_v, {(p, r): c} if c else {})

    def _shape(self) -> tuple:
        return (self.n, self.dim_v)

    def term_label(self, p: int, r: MultiIndex) -> str:
        return f"v{p + 1} (x) {_exp_str(r)}"


@functools.cache
def _gl_brackets(n: int) -> dict:
    return gl_algebra(n).structure_terms


def gl_bracket(a: GlLaurent, b: GlLaurent) -> GlLaurent:
    """[g (x) p, h (x) q] = [g, h] (x) pq, with [g, h] read from `gl_algebra(n)`."""
    a._require_same(b)
    brackets = _gl_brackets(a.n)
    out: dict[tuple[int, MultiIndex], Coeff] = {}
    for (pa, r), ca in a.terms.items():
        for (pb, s), cb in b.terms.items():
            terms = brackets.get((pa, pb))
            if terms:
                c = ca * cb
                key_exp = tuple(map(add, r, s))
                for k, e in terms:
                    _add_term(out, (k, key_exp), c * e)
    return GlLaurent(a.n, out)


def canonical_crossed_hom_W(w: WittElem) -> GlLaurent:
    """Linear extension of x^r d_j |-> sum_i r_i E_ij (x) x^r."""
    n = w.n
    out: dict[tuple[int, MultiIndex], Coeff] = {}
    for (j, r), c in w.terms.items():
        for i, ri in enumerate(r):
            if ri:
                _add_term(out, (i * n + j, r), c * ri)
    return GlLaurent(n, out)


def crossed_hom_pq(p: Sequence[LaurentPoly], q, w: WittElem) -> LaurentPoly:
    """Linear extension of x^r d_i |-> (p_i + q r_i) x^r into the coefficients.

    Each p_i must be a one-variable Laurent polynomial in x_i.
    """
    q = rational(q)
    n = w.n
    if len(p) != n:
        raise MalformedP(f"need {n} twisting polynomials, got {len(p)}")
    for i, pi in enumerate(p):
        if pi.n != n:
            raise DimensionMismatch(f"p_{i + 1} lives in {pi.n} variables, expected {n}")
        if not pi.supported_only_on(i):
            raise MalformedP(f"p_{i + 1} involves a variable other than x_{i + 1}")
    out: dict[tuple[int, MultiIndex], Coeff] = {}
    for (i, r), c in w.terms.items():
        _add_product(out, {(0, r): c}, p[i].terms)
        if r[i]:
            _add_term(out, (0, r), _coeff(q * r[i] * c))
    return LaurentPoly(n, out)


def _family_basis(n: int, family: str, exponents) -> list[WittElem]:
    """The family's basis elements, zero ones dropped, at each exponent tuple
    of exponents(k), k = 2n for ham and n otherwise: x^r d_i, r major (full,
    pq); d_k, then d_ij(r), (i, j) major (sdiv); h(r) in W_2n (ham)."""
    if family == "ham":
        return [h for r in exponents(2 * n) if not (h := hamiltonian_field(n, r)).is_zero()]
    rs = exponents(n)
    if family == "sdiv":
        return [WittElem.basis(n, (0,) * n, k) for k in range(n)] + [
            e
            for i, j in itertools.combinations(range(n), 2)
            for r in rs
            if not (e := s_generator(n, i, j, r)).is_zero()
        ]
    return [WittElem.basis(n, r, i) for r in rs for i in range(n)]


def witt_window_basis(n: int, bound: int) -> list[WittElem]:
    return _family_basis(n, "full", functools.partial(window_exponents, bound=bound))


def sdiv_window_basis(n: int, bound: int) -> list[WittElem]:
    """d_k plus all nonzero generators d_ij(r) with windowed exponents."""
    return _family_basis(n, "sdiv", functools.partial(window_exponents, bound=bound))


def ham_window_basis(n: int, bound: int) -> list[WittElem]:
    return _family_basis(n, "ham", functools.partial(window_exponents, bound=bound))


@functools.cache
def symplectic_form(n: int) -> Matrix:
    """Block matrix ((0, I), (-I, 0)) of size 2n."""
    entries = [(i, n + i, 1) for i in range(n)] + [(n + i, i, -1) for i in range(n)]
    return _entry_matrix(2 * n, 2 * n, entries)


FAMILIES = ("full", "sdiv", "ham", "pq")


def _symbolic_basis(n: int, family: str, name: str) -> list[WittElem]:
    """One element of each kind in the family's window basis, with the
    exponents `Poly.variables(name, ...)`: every window element is one of
    them at integer exponents."""
    return _family_basis(n, family, lambda k: (Poly.variables(name, k),))


def _unordered_kind_pairs(first: Sequence, second: Sequence):
    """(first[i], second[j]) for i <= j, in `combinations_with_replacement`
    order.  For an identity antisymmetric in its two elements, as the Witt
    and gl brackets make each pair residual here, a pair of kinds i > j is
    the pair (j, i) with the exponents swapped and the residual negated."""
    for i, j in itertools.combinations_with_replacement(range(len(first)), 2):
        yield first[i], second[j]


def _landing_defects(family: str, He: GlLaurent) -> dict:
    """{r: defect} for each exponent r at which the coefficient matrix M of
    He, read from its terms, leaves the family's subalgebra: for sdiv the
    trace of M (sl_n), for ham the nonzero entries {(a, b): c} of
    M^T J + J M with J = `symplectic_form` (sp_2n); other families land
    anywhere.  For the antisymmetric J the entry M_xy adds -J_kx M_xy at
    (y, k) and J_kx M_xy at (k, y)."""
    out: dict = {}
    if family == "sdiv":
        for (p, r), c in He.terms.items():
            if p % (He.n + 1) == 0:
                _add_term(out, r, c)
    elif family == "ham":
        N = He.n
        J = symplectic_form(N // 2).col_nonzeros
        for (p, r), c in He.terms.items():
            x, y = divmod(p, N)
            acc = out.setdefault(r, {})
            for k, j in J[x]:
                _add_term(acc, (y, k), -j * c)
                _add_term(acc, (k, y), j * c)
            if not acc:
                del out[r]
    return out


def _crossed_hom_defects(H, pairs, abelian_target: bool):
    """(a, b, residual) for each pair ((a, Ha), (b, Hb)), in the order of
    pairs, whose residual H[a,b] - a.(Hb) + b.(Ha) - [Ha, Hb], summed in one
    dict with `_tensor_action` and `gl_bracket`, is nonzero; an abelian
    target has no bracket term."""
    for (a, Ha), (b, Hb) in pairs:
        res = dict(H(witt_bracket(a, b)).terms)
        _tensor_action(res, a.terms, Hb.terms, (), -1)
        _tensor_action(res, b.terms, Ha.terms)
        if not abelian_target:
            _add_scaled(res, -1, gl_bracket(Ha, Hb).terms.items())
        if res:
            yield a, b, Ha._new(res)


def verify_witt_crossed_hom(
    n: int,
    family: str,
    window: Window,
    p: Sequence[LaurentPoly] | None = None,
    q=None,
) -> list[Finding]:
    """Check H[u,v] = u.(Hv) - v.(Hu) + [Hu, Hv] on all windowed basis pairs.

    family selects the elements and the map H:
      full -- x^r d_i with the quadratic matrix-valued H into gl_n;
      sdiv -- divergence-free generators (adds per-coefficient trace checks);
      ham  -- Hamiltonian fields inside W_{2n} (adds symplectic-landing checks);
      pq   -- x^r d_i with the scalar-valued twisting map into the Laurent
              polynomials; the target is abelian, so the bracket term is zero.

    The residual H[u,v] - u.(Hv) + v.(Hu) - [Hu, Hv] is summed in one dict
    by one generator, `_crossed_hom_defects`.  It runs first on each
    unordered pair of kinds of window element (x^r d_i; d_k or d_ij(r);
    h(r)), built by `_symbolic_basis` with `Poly` exponents r and s, the
    first kind with r and the second with s (`_unordered_kind_pairs`), and
    stops at the first nonzero residual.  The residual is antisymmetric in
    the pair, because the Witt and gl brackets are and H is linear, so the
    pair (b, a) adds nothing to (a, b), as in the window's `combinations`.
    Each window pair's residual is thus a symbolic residual evaluated at
    integer exponents, up to sign, so when every symbolic residual is zero
    no window pair can fail and none is enumerated.  That holds
    because the maps and kernels read exponents only through +, - and *,
    and through truth tests that only skip terms whose coefficient is then
    zero.  Otherwise the same generator runs on the window pairs, with H(e)
    computed once per element, and each residual it yields becomes a
    finding.  The landing conditions of sdiv and ham (`_landing_defects`,
    read from the terms of H(e)) are linear, so they too are decided on the
    images of the symbolic kinds first, and the window elements are built
    only when one of the two symbolic checks fails.  Either way the
    reported scope is the window: each check is exact, and the window
    bounds which pairs the verdict covers.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if family == "ham":
        count = window_size(2 * n, window.bound)
    elif family == "sdiv":
        # window_size first: it refuses a negative n, which math.comb would
        # meet with a bare ValueError
        count = n + window_size(n, window.bound) * math.comb(n, 2)
    else:
        count = n * window_size(n, window.bound)
    require_window_count(math.comb(count, 2), "windowed pairs")
    if family == "pq":
        if p is None or q is None:
            raise MalformedP("family pq requires the twisting data p and q")
        H = functools.partial(crossed_hom_pq, p, q)
    else:
        H = canonical_crossed_hom_W
    abelian_target = family == "pq"
    kinds = [[(e, H(e)) for e in _symbolic_basis(n, family, x)] for x in "rs"]
    pairs_fail = any(_crossed_hom_defects(H, _unordered_kind_pairs(*kinds), abelian_target))
    lands = not any(_landing_defects(family, He) for _, He in kinds[0])
    if not pairs_fail and lands:
        return []
    basis = {"sdiv": sdiv_window_basis, "ham": ham_window_basis}.get(family, witt_window_basis)
    images = [(e, H(e)) for e in basis(n, window.bound)]
    findings: list[Finding] = []
    if pairs_fail:
        pairs = itertools.combinations(images, 2)
        for a, b, res in _crossed_hom_defects(H, pairs, abelian_target):
            findings.append(Finding("crossed-hom", (str(a), str(b)), res))
    if not lands:
        rule = "sl-landing" if family == "sdiv" else "sp-landing"
        for e, He in images:
            for r, defect in sorted(_landing_defects(family, He).items()):
                if family == "sdiv":
                    defect = rational(defect)
                else:
                    defect = _entry_matrix(He.n, He.n, [(i, j, c) for (i, j), c in defect.items()])
                findings.append(Finding(rule, (str(e), _exp_str(r)), defect))
    return findings


# ---------------------------------------------------------------------------
# finite-dimensional commutative algebras and the generalized Witt construction


class FinCommAlgebra(_StructureAlgebra):
    """Commutative associative algebra via structure constants on i <= j pairs."""

    _fields = ("basis_names", "structure", "unit")
    _swap_sign = 1
    _words = ("product key", "i<=j", "product")

    def __init__(self, basis_names, structure, unit: Vector | None = None):
        super().__init__(basis_names, structure)
        self.unit = unit
        if unit is not None and len(unit) != self.dim:
            raise DimensionMismatch("unit vector has the wrong length")


def _truncated_exponents(bounds: Sequence[int]) -> list[MultiIndex]:
    """The exponents of the monomial basis of the algebra truncated at bounds,
    in lex order; raises DimensionMismatch for a bound < 1."""
    bounds = tuple(bounds)
    require_int(DimensionMismatch, "truncation bound", bounds)
    if any(b < 1 for b in bounds):
        raise DimensionMismatch("each truncation bound must be >= 1")
    return list(itertools.product(*(range(b) for b in bounds)))


def truncated_polynomial_algebra(bounds: Sequence[int]) -> FinCommAlgebra:
    """Monomial algebra on x_1..x_m with x_i^{bounds[i]} = 0; basis in lex order."""
    exps = _truncated_exponents(bounds)
    index = {e: k for k, e in enumerate(exps)}
    m = len(exps[0])

    def name(e: MultiIndex) -> str:
        if all(c == 0 for c in e):
            return "1"
        parts = []
        for v, c in enumerate(e):
            if c == 0:
                continue
            var = "x" if m == 1 else f"x{v + 1}"
            parts.append(var if c == 1 else f"{var}^{c}")
        return "*".join(parts)

    products = {}
    for a, ea in enumerate(exps):
        for b in range(a, len(exps)):
            prod = index.get(tuple(p + q for p, q in zip(ea, exps[b])))
            if prod is not None:
                products[(a, b)] = _dense({prod: 1}, len(exps))
    # the unit x^0 comes first in lex order
    return FinCommAlgebra(tuple(name(e) for e in exps), products, _dense({0: 1}, len(exps)))


def scaling_derivation(bounds: Sequence[int], var: int) -> Matrix:
    """The Euler-type derivation x_var d/dx_var on the truncated algebra."""
    exps = _truncated_exponents(bounds)
    require_int(IndexOutOfRange, "variable", (var,), len(exps[0]))
    return _entry_matrix(len(exps), len(exps), [(k, k, e[var]) for k, e in enumerate(exps)])


def check_comm_algebra(A: FinCommAlgebra) -> list[Finding]:
    """Associativity on basis triples; the unit must act as the identity.

    The residual (a_i a_j) a_k - a_i (a_j a_k) is accumulated over
    `structure_terms`."""
    terms = A.structure_terms

    def associator(i: int, j: int, k: int) -> dict:
        acc: dict = {}
        for m, c in terms.get((i, j), ()):
            _add_scaled(acc, c, terms.get((m, k), ()))
        for m, c in terms.get((j, k), ()):
            _add_scaled(acc, -c, terms.get((i, m), ()))
        return acc

    triples = itertools.product(range(A.dim), repeat=3)
    findings = _nonzero_findings("associativity", A.dim, _basis_sites(A.basis_names, triples, associator))
    if A.unit is not None:
        diff = A.mult_matrix(A.unit) - Matrix.identity(A.dim)
        if not diff.is_zero():
            findings.append(Finding("unit", ("1",), diff))
    return findings


def _validate_delta(A: FinCommAlgebra, Delta: Sequence[Matrix]) -> FinLieAlgebra:
    """The abelian S on Delta, basis D1, D2, ..., once each Delta[k] is a
    derivation of A and each pair commutes: Delta is then a Lie homomorphism
    from S, and its first failing pair raises NotCommuting."""
    for k, D in enumerate(Delta):
        bad = derivation_violations(A, D)
        if bad:
            raise NotDerivation(f"Delta[{k}] violates the Leibniz rule: {bad[0]}")
    S = abelian(tuple(f"D{i + 1}" for i in range(len(Delta))))
    bad = homomorphism_violations(S, Delta, "commute")
    if bad:
        a, b = (S.basis_names.index(name) for name in bad[0].site)
        raise NotCommuting(f"Delta[{a}] and Delta[{b}] do not commute")
    return S


SparseColumns = list[tuple[tuple[int, Coeff], ...]]


def coefficient_columns(A: FinCommAlgebra, beta: Sequence[Matrix]) -> list[SparseColumns]:
    """columns[i * dim A + s][t]: the nonzero (u, c) of a_s beta_i(a_t), that is
    column t of the coefficient operator mult(a_s) beta_i, read from
    `structure_terms` and `col_nonzeros`."""
    terms = A.structure_terms
    columns = []
    for D in beta:
        for s in range(A.dim):
            op = []
            for col in D.col_nonzeros:
                acc: dict = {}
                for u, x in col:
                    _add_scaled(acc, x, terms.get((s, u), ()))
                op.append(tuple((u, exact_coeff(c)) for u, c in sorted(acc.items())))
            columns.append(op)
    return columns


def block_diagonal(columns: SparseColumns, copies: int) -> Matrix:
    """I_copies (x) M as a Matrix of Fractions, for M given by its sparse columns."""
    d = len(columns)
    n = copies * d
    entries = [(u, t, c) for t, col in enumerate(columns) for u, c in col]
    return _entry_matrix(n, n, ((b + u, b + t, c) for u, t, c in entries for b in range(0, n, d)))


def action_structure(
    A: FinCommAlgebra, S: FinLieAlgebra, beta: Sequence[Matrix], names: Sequence[str]
) -> tuple[FinLieAlgebra, list[SparseColumns]]:
    """The Lie algebra S (x) A of a Leibniz pair (A, S, beta), basis a_s x_i
    at i * dim A + s, with

        [a_s x_i, a_t x_j] = [x_i, x_j] (x) a_s a_t + a_s beta_i(a_t) x_j - a_t beta_j(a_s) x_i,

    scattered from the nonzero brackets of S, the nonzero products of A and
    the nonzero coefficient columns, which are returned with it.  An empty
    beta gives the current algebra S (x) A.  beta is not checked here.
    """
    dimA, n = A.dim, len(names)
    ops = coefficient_columns(A, beta)
    accs: dict[tuple[int, int], dict] = {}
    for (i, j), terms in S.structure_terms.items():
        if i < j:
            for (s, t), st in A.structure_terms.items():
                accs[i * dimA + s, j * dimA + t] = {k * dimA + u: c * d for k, c in terms for u, d in st}
    # a_s beta_i(a_t) x_j is a term of the pair (a_s x_i, a_t x_j) at p, q
    # and, with the opposite sign, of the same pair taken in the other order
    for p, op in enumerate(ops):
        for t, col in enumerate(op):
            if col:
                for q in range(t, n, dimA):
                    if p != q:
                        key, sign = ((p, q), 1) if p < q else ((q, p), -1)
                        _add_scaled(accs.setdefault(key, {}), sign, [(q - t + u, c) for u, c in col])
    structure = {pq: _dense(accs[pq], n) for pq in sorted(accs) if accs[pq]}
    return FinLieAlgebra(tuple(names), structure), ops


def _generalized_witt(A: FinCommAlgebra, Delta: Sequence[Matrix]):
    S = _validate_delta(A, Delta)
    names = (f"{a}*{d}" for d in S.basis_names for a in A.basis_names)
    return action_structure(A, S, Delta, tuple(names))


def generalized_witt(A: FinCommAlgebra, Delta: Sequence[Matrix]) -> FinLieAlgebra:
    """Free module A (x) Delta with [a p, b q] = a p(b) q - b q(a) p.

    Requires every member of Delta to be a derivation of A and all pairs to
    commute; the basis is a_s (x) D_i ordered with i major.  It is the Lie
    algebra of the action Lie-Rinehart algebra of (A, span Delta), with the
    abelian S on Delta: one `action_structure` builds both.
    """
    return _generalized_witt(A, Delta)[0]


def gl_tensor_algebra(m: int, A: FinCommAlgebra) -> FinLieAlgebra:
    """gl_m (x) A as a finite Lie algebra; basis E_ij (x) a_s with (i, j) major:
    the `action_structure` of `gl_algebra(m)` on A with no derivations, whose
    bracket is [E_a (x) a_s, E_b (x) a_t] = [E_a, E_b] (x) a_s a_t."""
    gl = gl_algebra(m)
    names = tuple(f"{e}({a})" for e in gl.basis_names for a in A.basis_names)
    return action_structure(A, gl, (), names)[0]


def _canonical_matrix(A: FinCommAlgebra, Delta: Sequence[Matrix]) -> Matrix:
    """The canonical H: a_s D_j |-> sum_i E_ij (x) D_i(a_s), read from the
    nonzeros of each D_i's columns."""
    m, dimA = len(Delta), A.dim
    entries = (
        ((i * m + j) * dimA + u, j * dimA + s, c)
        for i, D in enumerate(Delta)
        for s, col in enumerate(D.col_nonzeros)
        for u, c in col
        for j in range(m)
    )
    return _entry_matrix(m * m * dimA, m * dimA, entries)


def _gl_tensor_setup(lie: FinLieAlgebra, anchor_columns, A: FinCommAlgebra, n: int, H: Matrix) -> Setup:
    """The Setup (L, gl_n (x) A, rho, H) of a map into gl_n (x) A on which L
    acts through the coefficients: rho(x) = I_{n^2} (x) anchor(x), from the
    sparse columns of each anchor(x) (`block_diagonal`)."""
    h = gl_tensor_algebra(n, A)
    mats = tuple(block_diagonal(columns, n * n) for columns in anchor_columns)
    return Setup(lie, h, LieAction(lie, h, mats), CrossedHom(H))


def generalized_witt_setup(A: FinCommAlgebra, Delta: Sequence[Matrix]) -> Setup:
    """Bundle (g, h, rho, H) for the canonical map on a finite model.

    g is the derivation-generated algebra, h = gl_m (x) A, rho acts through
    the coefficients, and H sends a_s D_j to sum_i E_ij (x) D_i(a_s).
    """
    g, ops = _generalized_witt(A, Delta)
    # rho(a_s D_i) multiplies the coefficient by a_s after applying D_i.
    return _gl_tensor_setup(g, ops, A, len(Delta), _canonical_matrix(A, Delta))


def canonical_crossed_hom_GW(
    A: FinCommAlgebra, Delta: Sequence[Matrix], element: Vector
) -> Vector:
    """Image of an element (coordinates in the a_s D_i basis) under the canonical map."""
    _validate_delta(A, Delta)
    if len(element) != len(Delta) * A.dim:
        raise DimensionMismatch(
            f"element has length {len(element)}, expected {len(Delta) * A.dim}"
        )
    return _canonical_matrix(A, Delta).apply(element)
