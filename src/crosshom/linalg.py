"""Exact rational vectors, dense matrices, and rank/kernel/inverse routines.

Public values are `fractions.Fraction`: vector coordinates and `Matrix`
entries are exact and kept in canonical reduced form (positive denominator,
gcd 1) by the standard library.  Vectors are plain tuples of Fractions;
matrices are thin immutable wrappers around a row-major tuple.
`Matrix.apply` and `Matrix.__mul__` run over the nonzeros only: they read
`Matrix.col_nonzeros`, the nonzero entries of each column, listed once per
matrix and cached (no code assigns a `Matrix`'s fields after `__init__`,
so the list never goes stale).
That view is integral: it holds `exact_coeff` values, ints where the entry
is integral, so sparse kernels on integral data run in `int` arithmetic.
A view value written into a dense vector or `Matrix` goes through
`rational` (or is added onto a Fraction zero), so public values stay
Fractions.

Only this module writes the row-major layout: every matrix given by its
nonzeros is built by the one writer `_entry_matrix` (through `_column_matrix`
for sparse dict columns), and a vector given by its nonzeros by `_dense`.
A matrix's shape is checked in one place, `require_shape`, and a family of
square matrices, one per basis vector (an action, a module, an anchor, a
representation), in `require_square_family`, which words its count and
calls `require_shape` on each member.

`rank`, `kernel_basis` and `invert` share one elimination over sparse rows,
dicts {column: nonzero entry} built from the nonzero entries of the dense
matrix, so its work follows the nonzeros rather than rows x cols.  Integers
live only in these private rows: an integral entry is stored as an `int`
(`exact_coeff`), and the elimination keeps it one while the pivots it meets
are 1 or -1, so integral matrices such as coboundaries eliminate in `int`
arithmetic; a non-unit pivot divides, into `Fraction`.  What the routines
return is converted back to Fractions.  Columns are taken left to right; the
pivot for a column is the candidate row with the fewest nonzeros (the row
half of the Markowitz rule), ties broken by the smaller bit-size of the pivot
entry, to limit fill-in and coefficient growth.  Because the columns keep
their order, the reduced row echelon form that `kernel_basis` and `invert`
read is the unique one of the matrix, whatever rows the pivot rule picks;
`rank` stops at the echelon form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatch, ParseError, SingularMatrix

Rational = Fraction
Vector = tuple[Fraction, ...]
Coeff = int | Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_EXPONENT = re.compile(r"[eE][-+]?\d")


def rational(x, where: str = "") -> Fraction:
    """Coerce a Fraction, an int or a string ("p/q", an integer or a decimal).

    This is the one place where text becomes a Fraction.  Every failure raises
    ParseError, whose message starts with `where` when one is given.  Exponent
    notation ("1e5") is refused: Fraction would expand "1e999999999" into a
    billion-digit integer.  A bool is refused although it is an int: a JSON
    `true` in a coefficient is a malformed file, not the number 1.
    """
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    prefix = f"{where}: " if where else ""
    if not isinstance(x, str):
        raise ParseError(f"{prefix}expected a rational string, got {x!r}")
    if _EXPONENT.search(x):
        raise ParseError(f"{prefix}exponent notation is not accepted: {x!r}")
    try:
        return Fraction(x.strip())
    except (ValueError, ZeroDivisionError) as exc:
        reason = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise ParseError(f"{prefix}cannot parse rational {x!r}: {reason}") from None


def exact_coeff(x) -> Coeff:
    """`rational(x)`, stored as an int when it is integral."""
    if type(x) is int:
        return x
    q = rational(x)
    return q.numerator if q.denominator == 1 else q


def vector(entries: Iterable) -> Vector:
    return tuple(rational(e) for e in entries)


def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)


def render_vector(a: Vector) -> str:
    return "(" + ", ".join(str(x) for x in a) + ")"


class _Value:
    """The base of the package's value classes: equality, hash and repr over
    the attributes a subclass names in `_fields`, in the format of a
    dataclass.  Objects are equal when they have the same class and equal
    fields; a class is hashable when its fields are.

    A subclass writes its own `__init__`, which assigns the fields plainly and
    then checks them.  There is no setter guard: values are immutable by a
    rule of the package, which tests/test_hygiene.py enforces, that no code
    assigns a field after `__init__` (a CLI `Report`'s status and error
    aside).  A class without a `cached_property` is slotted.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Matrix(_Value):
    """Dense matrix of Fractions, row-major, immutable."""

    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[Fraction, ...]):
        self.rows, self.cols, self.data = rows, cols, data
        if len(data) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(data)}")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            data.extend(rational(e) for e in r)
        return Matrix(nrows, ncols, tuple(data))

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, (ZERO,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return _entry_matrix(n, n, [(i, i, 1) for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vector:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    @cached_property
    def col_nonzeros(self) -> tuple[tuple[tuple[int, Coeff], ...], ...]:
        """col_nonzeros[j]: the nonzero (i, entry) pairs of column j, top to
        bottom, with `exact_coeff` entries."""
        cols: list[list[tuple[int, Coeff]]] = [[] for _ in range(self.cols)]
        for k, x in enumerate(self.data):
            if x:
                i, j = divmod(k, self.cols)
                cols[j].append((i, exact_coeff(x)))
        return tuple(tuple(c) for c in cols)

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatch(f"matrix has {self.cols} cols, vector length {len(v)}")
        out = [ZERO] * self.rows
        for col, x in zip(self.col_nonzeros, v):
            if x:
                for i, a in col:
                    out[i] += a * x
        return tuple(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        require_shape(other, self.rows, self.cols, "summand")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.data, other.data)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        require_shape(other, self.rows, self.cols, "subtrahend")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.data, other.data)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.data))

    def scale(self, c) -> "Matrix":
        c = rational(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.data))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            n = other.cols
            data = [ZERO] * (self.rows * n)
            left = self.col_nonzeros
            for j, col in enumerate(other.col_nonzeros):
                for k, b in col:
                    for i, a in left[k]:
                        data[i * n + j] += a * b
            return Matrix(self.rows, n, tuple(data))
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.data)

    def render_rows(self) -> list[list[str]]:
        return [[str(e) for e in self.row(i)] for i in range(self.rows)]

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(r) for r in self.render_rows()) + "]"


def require_shape(m: Matrix, rows: int, cols: int, what: str) -> None:
    """Raise DimensionMismatch "what is RxC, expected rowsxcols" unless m is rows x cols."""
    if (m.rows, m.cols) != (rows, cols):
        raise DimensionMismatch(f"{what} is {m.rows}x{m.cols}, expected {rows}x{cols}")


def require_square_family(mats: Sequence[Matrix], count: int, dim: int, what: str) -> None:
    """The one check of a family of square matrices, one per basis vector:
    `count` of them ("need count what matrices, got M"), each dim x dim."""
    if len(mats) != count:
        raise DimensionMismatch(f"need {count} {what} matrices, got {len(mats)}")
    for m in mats:
        require_shape(m, dim, dim, f"{what} matrix")


def lincomb(mats: Sequence[Matrix], coeffs: Sequence) -> Matrix:
    """sum_i coeffs[i] * mats[i]; the matrices must share one shape."""
    if len(mats) != len(coeffs):
        raise DimensionMismatch(f"{len(mats)} matrices but {len(coeffs)} coefficients")
    if not mats:
        raise DimensionMismatch("an empty linear combination has no shape")
    rows, cols = mats[0].rows, mats[0].cols
    data = [ZERO] * (rows * cols)
    for m, c in zip(mats, coeffs):
        require_shape(m, rows, cols, "summand")
        if c:
            c = rational(c)
            for k, a in enumerate(m.data):
                if a:
                    data[k] += c * a
    return Matrix(rows, cols, tuple(data))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; flat index of (i1, i2) is i1 * b.rows + i2."""
    entries = (
        (i1 * b.rows + i2, j1 * b.cols + j2, x * y)
        for j1, ca in enumerate(a.col_nonzeros)
        for i1, x in ca
        for j2, cb in enumerate(b.col_nonzeros)
        for i2, y in cb
    )
    return _entry_matrix(a.rows * b.rows, a.cols * b.cols, entries)


def _bit_size(q: Coeff) -> int:
    return abs(q.numerator).bit_length() + q.denominator.bit_length()


def _sparse_rows(m: Matrix) -> list[dict[int, Coeff]]:
    cols, data = m.cols, m.data
    return [
        {j: exact_coeff(x) for j, x in enumerate(data[i * cols : (i + 1) * cols]) if x}
        for i in range(m.rows)
    ]


def _add_scaled(r: dict[int, Coeff], f: Coeff, terms: Iterable[tuple[int, Coeff]]) -> dict:
    """r += f * terms in place for (key, value) pairs, dropping entries that cancel; returns r."""
    for j, x in terms:
        y = r.get(j, 0) + f * x
        if y:
            r[j] = y
        else:
            del r[j]
    return r


def _dense(acc: dict[int, Coeff], n: int) -> Vector:
    """A sparse accumulator {index: value} as a length-n tuple of Fractions."""
    out = [ZERO] * n
    for k, x in acc.items():
        out[k] = rational(x)
    return tuple(out)


def _entry_matrix(rows: int, cols: int, entries: Iterable[tuple[int, int, Coeff]]) -> Matrix:
    """The rows x cols matrix with value x at (i, j) for each (i, j, x) in
    entries and zero elsewhere: the one writer of the row-major layout for a
    matrix given by its nonzeros.  Each distinct x is made a Fraction once
    (`rational`); an (i, j) given twice keeps its last x."""
    data = [ZERO] * (rows * cols)
    fractions: dict[Coeff, Fraction] = {}
    for i, j, x in entries:
        q = fractions.get(x)
        if q is None:
            q = fractions[x] = rational(x)
        data[i * cols + j] = q
    return Matrix(rows, cols, tuple(data))


def _column_matrix(columns: Sequence[dict[int, Coeff]], rows: int) -> Matrix:
    """The rows x len(columns) matrix whose column j is the sparse dict columns[j]."""
    entries = ((i, j, x) for j, c in enumerate(columns) for i, x in c.items())
    return _entry_matrix(rows, len(columns), entries)


def _echelon(
    rows: list[dict[int, Coeff]], ncols: int
) -> tuple[list[dict[int, Coeff]], list[int]]:
    """Row echelon form of sparse rows, consumed; returns (pivot rows, pivot columns).

    Columns are taken left to right.  Every active row sits in the bucket of
    its leading column, so the candidates for column c are exactly bucket c.
    The pivot is the candidate with the fewest nonzeros, ties broken by the
    smaller bit-size of its entry at c; it is scaled to a leading 1.  A pivot
    entry of 1 is used as it is and one of -1 is negated, so rows of ints stay
    ints; only a non-unit pivot divides, into Fractions.
    """
    buckets: dict[int, list[dict[int, Coeff]]] = {}
    for r in rows:
        if r:
            buckets.setdefault(min(r), []).append(r)
    pivot_rows: list[dict[int, Coeff]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not buckets:
            break
        cands = buckets.pop(c, None)
        if cands is None:
            continue
        fewest = min(map(len, cands))
        ties = [r for r in cands if len(r) == fewest]
        best = ties[0] if len(ties) == 1 else min(ties, key=lambda r: _bit_size(r[c]))
        p = best[c]
        if p == 1:
            piv = best
        elif p == -1:
            piv = {j: -x for j, x in best.items()}
        else:
            inv = ONE / p
            piv = {j: x * inv for j, x in best.items()}
        for r in cands:
            if r is best:
                continue
            _add_scaled(r, -r[c], piv.items())
            if r:
                buckets.setdefault(min(r), []).append(r)
        pivot_rows.append(piv)
        pivots.append(c)
    return pivot_rows, pivots


def _reduced_echelon(
    rows: list[dict[int, Coeff]], ncols: int
) -> tuple[list[dict[int, Coeff]], list[int]]:
    """Reduced row echelon form: the echelon form, back-substituted bottom-up."""
    pivot_rows, pivots = _echelon(rows, ncols)
    for k in range(len(pivots) - 1, 0, -1):
        pc, piv = pivots[k], pivot_rows[k]
        for r in pivot_rows[:k]:
            f = r.get(pc)
            if f:
                _add_scaled(r, -f, piv.items())
    return pivot_rows, pivots


def rank(m: Matrix) -> int:
    return len(_echelon(_sparse_rows(m), m.cols)[1])


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space; length cols - rank, each v has m.v = 0.

    Vector j sets the j-th free column to 1, the other free columns to 0 and
    each pivot column to minus its reduced row's entry in that free column.
    """
    rows, pivots = _reduced_echelon(_sparse_rows(m), m.cols)
    pivot_set = set(pivots)
    basis = {fc: {fc: 1} for fc in range(m.cols) if fc not in pivot_set}
    for pc, row in zip(pivots, rows):
        for j, x in row.items():
            if j != pc:
                basis[j][pc] = -x
    return [_dense(v, m.cols) for v in basis.values()]


def invert(m: Matrix) -> Matrix:
    """Exact inverse; raises SingularMatrix when rank < dimension."""
    require_shape(m, m.cols, m.cols, "inverted matrix")
    n = m.rows
    rows = _sparse_rows(m)
    for i, r in enumerate(rows):
        r[n + i] = 1
    rows, pivots = _reduced_echelon(rows, 2 * n)
    if pivots != list(range(n)):
        raise SingularMatrix(f"matrix of rank {len([p for p in pivots if p < n])} < {n}")
    return Matrix.from_rows([[r.get(n + j, 0) for j in range(n)] for r in rows])
