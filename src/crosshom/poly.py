"""Exact multivariate polynomials over Q, for symbolic exponents.

A `Poly` is a finite sum of nonzero rational multiples of monomials in named
variables, stored as {monomial: coefficient} with each monomial a tuple of
(variable, power >= 1) pairs sorted by variable.  Coefficients are `int` when
integral and `Fraction` otherwise.  `+`, `-`, `*` and `**` (by an int >= 0)
take a `Poly`, an `int` or a `Fraction` on either side; a bool or a float is
refused, as in every other exact value of the package.  `+` and `*` by a
number work on the terms directly, without building a constant `Poly` (`p + 0`
and `p * 1` are p itself), and `==` between two polynomials compares their
term dicts.  A polynomial is true
when it is nonzero, and a constant compares and hashes as its int or Fraction,
so an exponent tuple whose entries happen to be constant finds the same dict
key as the plain numbers.  `str` is canonical: terms in graded lexicographic
order (r1^2, r1*r2, r2^2, r1, ...).

`witt.verify_witt_crossed_hom` runs its pair identity and its sl/sp landing
conditions once on elements whose exponents are the variables of
`Poly.variables`, and `rinehart.check_module_axiom_window` and
`check_weak_compat_window` do the same with the built-in Shen-Larsson action
on v_p (x) x^t: the sparse Witt and Shen-Larsson kernels read exponents only
through `+`, `*` and truth tests, so they run on them as they are.  The pair
identities run on each unordered pair of element kinds, the first with
exponents r and the second with s: their residuals are antisymmetric in the
pair, because the Witt and gl brackets are, so the other order adds nothing.
Each identity has one residual generator, run on the symbolic elements and,
only when it yields there, on the window's.
"""

from __future__ import annotations

from fractions import Fraction


def _exact(c):
    """An integral Fraction as its int."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _monomial_product(a: tuple, b: tuple) -> tuple:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 and len(b) == 1:
        (va, ea), (vb, eb) = a[0], b[0]
        if va == vb:
            return ((va, ea + eb),)
        return a + b if va < vb else b + a
    powers = dict(a)
    for v, e in b:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items()))


class Poly:
    """Exact polynomial over Q in named variables; immutable."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        """From {monomial: coefficient}, every coefficient a nonzero `int` or
        non-integral `Fraction`; build values with `variables` and the ring
        operations."""
        self.terms = terms
        self._hash = None

    @staticmethod
    def variables(name: str, count: int) -> tuple[Poly, ...]:
        """The variables name1, ..., name<count>."""
        return tuple(Poly({((f"{name}{k + 1}", 1),): 1}) for k in range(count))

    def __add__(self, other):
        if type(other) is Poly:
            items = other.terms.items()
        elif type(other) is int or type(other) is Fraction:
            if not other:
                return self
            items = (((), other),)
        else:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in items:
            c += terms.get(m, 0)
            if c:
                terms[m] = _exact(c)
            else:
                del terms[m]
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        if type(other) is not Poly:
            if type(other) is not int and type(other) is not Fraction:
                return NotImplemented
            if other == 1:
                return self
            return Poly({m: _exact(c * other) for m, c in self.terms.items()} if other else {})
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _monomial_product(ma, mb)
                c = terms.get(m, 0) + ca * cb
                if c:
                    terms[m] = c
                else:
                    del terms[m]
        return Poly({m: _exact(c) for m, c in terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            return NotImplemented
        out = Poly({(): 1})
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not Poly:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            terms = self.terms
            if not terms.keys() - {()}:
                self._hash = hash(terms.get((), 0))
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    def __str__(self) -> str:
        def graded_lex(item):
            m = item[0]
            return -sum(e for _, e in m), [(v, -e) for v, e in m]

        out = ""
        for m, c in sorted(self.terms.items(), key=graded_lex):
            mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)
            a = abs(c)
            body = mono if a == 1 and mono else f"{a}*{mono}" if mono else str(a)
            if out:
                out += (" - " if c < 0 else " + ") + body
            else:
                out = ("-" if c < 0 else "") + body
        return out or "0"

    __repr__ = __str__


def _coerce(x) -> Poly | None:
    """x as a Poly when it is a Poly, an int or a Fraction; otherwise None."""
    if type(x) is Poly:
        return x
    if type(x) is int or type(x) is Fraction:
        return Poly({(): _exact(x)} if x else {})
    return None
