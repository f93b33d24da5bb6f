import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crosshom.errors import DimensionMismatch, ParseError, SingularMatrix
from crosshom.linalg import (
    Matrix,
    _column_matrix,
    _echelon,
    _entry_matrix,
    _reduced_echelon,
    invert,
    kernel_basis,
    kron,
    lincomb,
    rank,
    rational,
)

from conftest import FIXTURES, kernel_setups, random_fraction_vector, ref_apply
from test_acceptance import _rank_mod_p_rows


def _random_sparse_matrix(rng: random.Random) -> Matrix:
    """Small rational matrix, often sparse, with some rows and columns zeroed."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice((0.2, 0.5, 0.9))
    data = [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
        data[i] = [Fraction(0)] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
        for r in data:
            r[j] = Fraction(0)
    return Matrix.from_rows(data)


def test_rank_identity():
    assert rank(Matrix.identity(2)) == 2


def test_rank_proportional_rows():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) == 1


def test_rank_empty_matrix():
    assert rank(Matrix(0, 0, ())) == 0


def test_kernel_proportional_rows():
    basis = kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
    assert len(basis) == 1
    (v,) = basis
    # proportional to (-2, 1)
    assert v[0] * 1 == v[1] * -2
    assert v != (0, 0)


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(3)) == []


def test_kernel_zero_matrix():
    basis = kernel_basis(Matrix.zero(2, 3))
    assert len(basis) == 3


def test_kernel_vectors_annihilated():
    rng = random.Random(11)
    mats = []
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mats.append(
            Matrix.from_rows(
                [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            )
        )
    mats += [_random_sparse_matrix(rng) for _ in range(60)]
    for m in mats:
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == m.cols
        for v in basis:
            assert all(c == 0 for c in m.apply(v))


def test_invert_involution_example():
    m = Matrix.from_rows([[-1, 2], [0, 1]])
    inv = invert(m)
    assert inv * m == Matrix.identity(2)
    assert m * inv == Matrix.identity(2)
    assert inv == m  # this particular matrix is its own inverse


def test_invert_identity():
    assert invert(Matrix.identity(4)) == Matrix.identity(4)


def test_invert_singular():
    with pytest.raises(SingularMatrix):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def test_invert_random():
    rng = random.Random(5)
    done = 0
    while done < 15:
        n = rng.randint(1, 4)
        m = Matrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        )
        if rank(m) < n:
            continue
        inv = invert(m)
        assert m * inv == Matrix.identity(n)
        assert inv * m == Matrix.identity(n)
        done += 1


def test_invert_sparse_random():
    rng = random.Random(23)
    done = 0
    while done < 30:
        m = _random_sparse_matrix(rng)
        if m.rows != m.cols or rank(m) < m.rows:
            if m.rows == m.cols:
                with pytest.raises(SingularMatrix):
                    invert(m)
            continue
        assert invert(m) * m == Matrix.identity(m.rows)
        done += 1


def test_rank_and_kernel_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20)
    for _ in range(60):
        m = _random_sparse_matrix(rng)
        sm = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.data])
        assert rank(m) == sm.rank()
        # sympy's null space basis is read off the reduced row echelon form in
        # the same way, so the unique RREF gives identical vectors
        expected = [tuple(Fraction(int(c.p), int(c.q)) for c in v) for v in sm.nullspace()]
        assert kernel_basis(m) == expected


def test_rational_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
        assert rational(str(q)) == q
    assert rational("-3/7") == Fraction(-3, 7)
    assert str(Fraction(-3, 7)) == "-3/7"
    assert str(Fraction(4)) == "4"


def test_rational_accepts_ints_decimals_and_fractions():
    assert rational(5) == Fraction(5)
    assert rational(Fraction(2, 3)) == Fraction(2, 3)
    assert rational(" 1.5 ") == Fraction(3, 2)
    assert rational("-0.25") == Fraction(-1, 4)


@pytest.mark.parametrize(
    "bad", ["1/0", "x", "", "1/x", 1.5, None, [1], "1e5", "2E-3", "1.5e+2", True, False]
)
def test_rational_failures_are_parse_errors(bad):
    with pytest.raises(ParseError):
        rational(bad)


def test_rational_failure_names_its_location():
    with pytest.raises(ParseError, match=r"^setup\.H: cannot parse rational '1/0'"):
        rational("1/0", "setup.H")
    with pytest.raises(ParseError, match=r"^--q: exponent notation"):
        rational("1e3", "--q")


def test_rational_zero_denominator_says_so():
    # the message names the fault, not the text of Fraction's ZeroDivisionError
    with pytest.raises(ParseError) as info:
        rational("1/0", "--q")
    assert str(info.value) == "--q: cannot parse rational '1/0': zero denominator"
    with pytest.raises(ParseError, match=r"^cannot parse rational ' -2/0 ': zero denominator$"):
        rational(" -2/0 ")


def test_lincomb():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert lincomb([a, b], [Fraction(2), Fraction(-1, 2)]) == a.scale(2) + b.scale(Fraction(-1, 2))
    assert lincomb([a, b], [0, 0]) == Matrix.zero(2, 2)
    with pytest.raises(DimensionMismatch):
        lincomb([a, b], [1])
    with pytest.raises(DimensionMismatch):
        lincomb([a, Matrix.identity(3)], [1, 1])
    with pytest.raises(DimensionMismatch):
        lincomb([], [])


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, (Fraction(1),))
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2).apply((Fraction(1),))
    with pytest.raises(DimensionMismatch):
        Matrix.identity(2) * Matrix.zero(3, 3)


def _ref_kron(a: Matrix, b: Matrix) -> Matrix:
    """The Kronecker product by four nested loops over every entry."""
    data = []
    for i1 in range(a.rows):
        for i2 in range(b.rows):
            for j1 in range(a.cols):
                for j2 in range(b.cols):
                    data.append(a.entry(i1, j1) * b.entry(i2, j2))
    return Matrix(a.rows * b.rows, a.cols * b.cols, tuple(data))


def test_kron_shapes_and_entries():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    k = kron(a, b)
    assert (k.rows, k.cols) == (4, 4)
    # (i1,i2),(j1,j2) entry is a[i1,j1] * b[i2,j2]
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert k.entry(i1 * 2 + i2, j1 * 2 + j2) == a.entry(i1, j1) * b.entry(i2, j2)
    # every shape, empty ones included, against the dense loop, in Fractions
    rng = random.Random(83)
    for _ in range(60):
        r1, c1, r2, c2 = (rng.randint(0, 3) for _ in range(4))
        a, b = _random_shaped(rng, r1, c1), _random_shaped(rng, r2, c2)
        _assert_same_matrix(kron(a, b), _ref_kron(a, b))
    a, b = Matrix.from_rows([[1, 0, -2], [0, 3, 0]]), Matrix.from_rows([[Fraction(1, 2), 2]])
    _assert_same_matrix(kron(a, b), _ref_kron(a, b))


def test_identity_is_the_dense_unit_matrix():
    for n in range(5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        _assert_same_matrix(Matrix.identity(n), Matrix.from_rows(eye))


# --- the one writer of the row-major layout ---


def test_entry_matrix_writes_every_shape_in_fractions():
    # non-square, int and Fraction values mixed; an (i, j) given twice keeps its last value
    entries = [(0, 2, 1), (1, 0, Fraction(1, 2)), (1, 1, 2), (0, 0, 5), (0, 0, Fraction(2))]
    got = _entry_matrix(2, 3, entries)
    _assert_same_matrix(got, Matrix.from_rows([[2, 0, 1], [Fraction(1, 2), 2, 0]]))
    # each distinct value becomes a Fraction once: 2 and Fraction(2) share it
    assert got.data[0] is got.data[4]
    for rows, cols in ((3, 0), (0, 3), (0, 0), (2, 5)):
        _assert_same_matrix(_entry_matrix(rows, cols, []), Matrix.zero(rows, cols))
    # a rows x 0 matrix, which no list of columns gives, and a non-square one
    _assert_same_matrix(_column_matrix([], 3), Matrix.zero(3, 0))
    got = _column_matrix([{0: 1, 3: Fraction(-2, 3)}, {}, {2: 4}], 4)
    _assert_same_matrix(got, Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 4], [Fraction(-2, 3), 0, 0]]))


def test_entry_matrix_rebuilds_random_matrices_from_their_nonzeros():
    rng = random.Random(84)
    for _ in range(80):
        m = _random_shaped(rng, rng.randint(0, 6), rng.randint(0, 6))
        # the integral view of col_nonzeros mixes ints and Fractions
        columns = m.col_nonzeros
        entries = [(i, j, x) for j, col in enumerate(columns) for i, x in col]
        rng.shuffle(entries)
        _assert_same_matrix(_entry_matrix(m.rows, m.cols, entries), m)
        _assert_same_matrix(_column_matrix([dict(c) for c in columns], m.rows), m)


# --- the sparse Matrix kernels against the dense loops ---


def _ref_mul(a: Matrix, b: Matrix) -> Matrix:
    """The dense product: a row-by-column sum for every output entry."""
    data = []
    for i in range(a.rows):
        for j in range(b.cols):
            s = Fraction(0)
            for k in range(a.cols):
                x = a.data[i * a.cols + k]
                if x:
                    s += x * b.data[k * b.cols + j]
            data.append(s)
    return Matrix(a.rows, b.cols, tuple(data))


def _random_shaped(rng: random.Random, rows: int, cols: int) -> Matrix:
    data = [random_fraction_vector(rng, cols) for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
        data[i] = (Fraction(0),) * cols
    for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
        data = [r[:j] + (Fraction(0),) + r[j + 1 :] for r in data]
    return Matrix(rows, cols, tuple(x for r in data for x in r))


def _assert_same_matrix(got: Matrix, expected: Matrix):
    assert (got.rows, got.cols, got.data) == (expected.rows, expected.cols, expected.data)
    assert all(type(x) is Fraction for x in got.data)


def test_col_nonzeros_lists_each_column():
    rng = random.Random(80)
    for _ in range(40):
        m = _random_shaped(rng, rng.randint(0, 6), rng.randint(0, 6))
        assert len(m.col_nonzeros) == m.cols
        for j, col in enumerate(m.col_nonzeros):
            assert col == tuple((i, x) for i, x in enumerate(m.col(j)) if x)


def test_sparse_apply_and_mul_match_dense_reference_on_random_matrices():
    rng = random.Random(81)
    for _ in range(150):
        r, k, c = (rng.randint(0, 6) for _ in range(3))
        a, b = _random_shaped(rng, r, k), _random_shaped(rng, k, c)
        v = random_fraction_vector(rng, k)
        got = a.apply(v)
        assert got == ref_apply(a, v) and all(type(x) is Fraction for x in got)
        _assert_same_matrix(a * b, _ref_mul(a, b))
    _assert_same_matrix(Matrix(0, 0, ()) * Matrix(0, 0, ()), Matrix(0, 0, ()))
    _assert_same_matrix(Matrix.zero(3, 0) * Matrix.zero(0, 2), Matrix.zero(3, 2))
    assert Matrix.zero(0, 3).apply((Fraction(1),) * 3) == ()


def test_sparse_apply_and_mul_match_dense_reference_on_actions():
    rng = random.Random(82)
    for s in kernel_setups():
        mats = list(s.rho.matrices) + [s.H.matrix] + [s.h.ad(s.H.column(i)) for i in range(s.g.dim)]
        for m in mats:
            for _ in range(3):
                v = random_fraction_vector(rng, m.cols)
                assert m.apply(v) == ref_apply(m, v)
        square = [m for m in mats if m.rows == m.cols == s.h.dim]
        for a, b in zip(square, rng.sample(square, min(len(square), 6))):
            _assert_same_matrix(a * b, _ref_mul(a, b))
        _assert_same_matrix(s.rho.matrices[0] * s.H.matrix, _ref_mul(s.rho.matrices[0], s.H.matrix))


sparse_int_rows = st.integers(1, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3).filter(bool), max_size=n),
            max_size=10,
        ),
    )
)


@settings(max_examples=200, deadline=None, database=None)
@given(sparse_int_rows)
def test_echelon_of_int_rows_matches_fraction_rows_and_rank_mod_p(case):
    ncols, rows = case
    int_rows, int_pivots = _echelon([dict(r) for r in rows], ncols)
    frac_rows, frac_pivots = _echelon([{j: Fraction(x) for j, x in r.items()} for r in rows], ncols)
    assert int_pivots == frac_pivots
    assert int_rows == frac_rows
    assert len(int_pivots) == _rank_mod_p_rows(rows)
    for r, c in zip(int_rows, int_pivots):
        assert min(r) == c and r[c] == 1


def test_echelon_keeps_ints_through_unit_pivots():
    # shuffled rows of a triangular integer matrix with diagonal +-1: every
    # pivot is 1 or -1, so the (reduced) echelon form is all ints
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(1, 8)
        rows = [
            {i: rng.choice((1, -1)), **{j: rng.randint(1, 4) for j in range(i + 1, n) if rng.random() < 0.5}}
            for i in range(n)
        ]
        rng.shuffle(rows)
        for eliminate in (_echelon, _reduced_echelon):
            pivot_rows, pivots = eliminate([dict(r) for r in rows], n)
            assert pivots == list(range(n))
            assert all(type(x) is int for r in pivot_rows for x in r.values())


def test_kernel_and_inverse_of_integral_matrices_are_fractions():
    basis = kernel_basis(Matrix.from_rows([[1, 2, 0], [2, 4, 0]]))
    assert basis == [(-2, 1, 0), (0, 0, 1)]
    assert all(type(x) is Fraction for v in basis for x in v)
    inv = invert(Matrix.from_rows([[2, 1], [1, 1]]))
    assert inv == Matrix.from_rows([[1, -1], [-1, 2]])
    assert all(type(x) is Fraction for x in inv.data)


# --- the value classes against the dataclasses they replaced ---------------
#
# Each value class of the package was a dataclass with these fields, in this
# order; Report was the one mutable (unfrozen, so unhashable) one.

VALUE_FIELDS = {
    "Matrix": ("rows", "cols", "data"),
    "Finding": ("rule", "site", "residual"),
    "Report": ("command", "status", "findings", "payload", "error"),
    "_StructureAlgebra": ("basis_names", "structure"),
    "FinLieAlgebra": ("basis_names", "structure"),
    "FinCommAlgebra": ("basis_names", "structure", "unit"),
    "LieAction": ("source", "target", "matrices"),
    "CrossedHom": ("matrix",),
    "Setup": ("g", "h", "rho", "H"),
    "Window": ("bound",),
    "LaurentPoly": ("n", "terms"),
    "WittElem": ("n", "terms"),
    "GlLaurent": ("n", "terms"),
    "VTensorA": ("n", "dim_v", "terms"),
    "AModuleStructure": ("algebra", "dim_m", "action"),
    "FirstOrderOp": ("D", "sigma"),
    "LieRinehart": ("algebra", "lie", "a_action", "anchor"),
    "LeibnizPair": ("algebra", "lie", "beta"),
    "GlnRep": ("n", "dim_v", "theta"),
    "Cochain": ("degree", "g_dim", "h_dim", "values"),
    "DegreeDims": ("k", "dim_C", "dim_Z", "dim_B", "dim_H"),
    "CohomologyReport": ("degrees",),
}


def _value_samples() -> dict:
    """One object of each value class, by class name."""
    from crosshom import cohomology, formats, liealg, report, rinehart, witt

    g, A = liealg.sl2(), witt.truncated_polynomial_algebra((2,))
    lr, _ = formats.load_file(FIXTURES / "derivations_trunc3.lr.json")
    dims = cohomology.DegreeDims(1, 3, 2, 1, 1)
    objects = [
        Matrix.identity(2),
        report.Finding("leibniz", ("e1", "e2"), (Fraction(1), Fraction(0))),
        report.Report("check-lie"),
        liealg._StructureAlgebra(("a", "b"), {(0, 1): (Fraction(1), Fraction(0))}),
        g,
        A,
        liealg.adjoint_action(g),
        liealg.CrossedHom(Matrix.zero(3, 3)),
        liealg.Setup(g, g, liealg.adjoint_action(g), liealg.CrossedHom(Matrix.zero(3, 3))),
        witt.Window(2),
        witt.LaurentPoly.monomial(2, (1, -1), Fraction(1, 2)),
        witt.WittElem.basis(2, (1, 0), 1),
        witt.GlLaurent.basis(2, 0, 1, (0, 2)),
        witt.VTensorA.basis(2, 2, 1, (1, 1)),
        rinehart.regular_module(A),
        rinehart.FirstOrderOp(Matrix.identity(2), Matrix.zero(2, 2)),
        lr,
        rinehart.underlying_pair(lr),
        rinehart.natural_rep_gl(2),
        cohomology.cochain_from_matrix(Matrix.identity(2)),
        dims,
        cohomology.CohomologyReport((dims,)),
    ]
    return {type(obj).__name__: obj for obj in objects}


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_the_value_classes_are_the_former_dataclasses():
    from crosshom.linalg import _Value

    found, stack = set(), [_Value]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        if cls is not _Value and cls.__module__.startswith("crosshom."):
            found.add(cls.__name__)
    assert found == set(VALUE_FIELDS) == set(_value_samples())


@pytest.mark.parametrize("name", sorted(VALUE_FIELDS))
def test_value_class_matches_its_dataclass(name):
    # the same fields and constructor, equality, hash and repr as a dataclass
    # with those fields
    import dataclasses

    obj = _value_samples()[name]
    cls, fields = type(obj), VALUE_FIELDS[name]
    assert cls._fields == fields
    values = [getattr(obj, f) for f in fields]
    copy, by_name = cls(*values), cls(**dict(zip(fields, values)))
    assert copy == obj and by_name == obj and copy is not obj
    assert obj.__eq__(object()) is NotImplemented
    reference = dataclasses.make_dataclass(name, fields, frozen=name != "Report")
    assert repr(obj) == repr(reference(*values))
    assert repr(obj).startswith(f"{name}(")
    assert _hash_or_error(obj) == _hash_or_error(reference(*values))
    # a class is slotted unless it caches a property in its __dict__
    slotted = not any(
        isinstance(v, functools.cached_property) for c in cls.__mro__ for v in vars(c).values()
    )
    assert hasattr(obj, "__dict__") is not slotted


def test_value_hashability_is_that_of_the_dataclasses():
    hashable = {n for n, obj in _value_samples().items() if _hash_or_error(obj) is not TypeError}
    assert hashable == {
        "Matrix", "Finding", "CrossedHom", "Window", "FirstOrderOp", "DegreeDims", "CohomologyReport",
    }  # fmt: skip
    from crosshom.report import Finding

    with pytest.raises(TypeError):
        hash(Finding("first-order", ("a",), {"a": 1}))


def test_value_classes_with_the_same_fields_differ():
    from crosshom.liealg import FinLieAlgebra
    from crosshom.report import Finding, Report
    from crosshom.witt import FinCommAlgebra, LaurentPoly, WittElem

    assert WittElem(2, {}) != LaurentPoly(2, {}) and WittElem(2, {}) == WittElem.zero(2)
    names, structure = ("a", "b"), {(0, 1): (Fraction(1), Fraction(0))}
    assert FinLieAlgebra(names, structure) != FinCommAlgebra(names, structure)
    assert FinLieAlgebra(names, structure) == FinLieAlgebra(names, dict(structure))
    # defaults, and Report's fresh list and dict
    assert FinCommAlgebra(names, {}).unit is None and Finding("r", ()).residual is None
    first, second = Report("check-lie"), Report("check-lie")
    assert first == second and first.findings is not second.findings and first.payload is not second.payload
    assert (first.status, first.findings, first.payload, first.error) == ("pass", [], {}, None)
