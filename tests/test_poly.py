import random
from fractions import Fraction

import pytest

from crosshom.poly import Poly

from conftest import poly_at

R = Poly.variables("r", 3)


def random_poly(rng, terms=4, degree=3):
    out = Poly({})
    for _ in range(terms):
        c = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        for _ in range(rng.randint(0, degree)):
            c = c * rng.choice(R)
        out = out + c
    return out


@pytest.mark.parametrize("seed", range(20))
def test_ring_laws_on_random_polynomials(seed):
    rng = random.Random(seed)
    a, b, c = (random_poly(rng) for _ in range(3))
    zero, one = Poly({}), Poly({(): 1})
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and not a * zero
    assert a - a == 0 and not (a - a) and -(-a) == a and a - b == -(b - a)
    assert a**0 == 1 and a**3 == a * a * a
    assert 2 * a == a + a == a * 2 and Fraction(1, 2) * (a + a) == a
    assert 1 - a == -(a - 1) and hash(a + b) == hash(b + a)
    # evaluation at integer points is a ring homomorphism
    for _ in range(5):
        point = {f"r{k + 1}": rng.randint(-4, 4) for k in range(3)}
        va, vb, vc = (poly_at(x, point) for x in (a, b, c))
        assert poly_at(a * b - c, point) == va * vb - vc
        assert poly_at((a + 2) ** 2, point) == (va + 2) ** 2


def test_coefficients_are_exact_and_stored_as_int_when_integral():
    r1, r2, _ = R
    p = Fraction(1, 2) * r1 + Fraction(1, 2) * r1 + Fraction(2, 3) * r2
    assert p.terms == {(("r1", 1),): 1, (("r2", 1),): Fraction(2, 3)}
    assert type(p.terms[(("r1", 1),)]) is int
    assert (r1 * r2 * r1).terms == {(("r1", 2), ("r2", 1)): 1}


@pytest.mark.parametrize("value", [0, 1, -7, Fraction(1, 2), Fraction(-9, 4), Fraction(6, 3)])
def test_a_constant_equals_and_hashes_as_its_value(value):
    r1 = R[0]
    const = (r1 + value) - r1
    assert const == value and value == const
    assert hash(const) == hash(value)
    assert {value: "key"}[const] == "key" and {const: "key"}[value] == "key"
    assert (r1 + 1, const) == (r1 + 1, value)
    assert hash((r1 + 1, const)) == hash((r1 + 1, value))
    assert bool(const) == bool(value)
    assert r1 != value and r1 + value != value


def test_other_types_are_refused():
    r1 = R[0]
    for bad in (1.5, True, "3", None):
        with pytest.raises(TypeError):
            r1 + bad
        with pytest.raises(TypeError):
            bad * r1
    assert r1 != 1.0 and r1 != "r1"
    for bad in (-1, Fraction(1, 2), r1):
        with pytest.raises(TypeError):
            r1**bad


def test_str_is_canonical():
    r1, r2, r3 = R
    assert str(Poly({})) == "0"
    assert str(r1 * (r1 - 1) * (r1 + 1)) == "r1^3 - r1"
    assert str(3 - r2 * r1 * 2 + Fraction(1, 2) * r3**2) == "-2*r1*r2 + 1/2*r3^2 + 3"
    # the same polynomial built two ways prints the same
    assert str((r1 + r2) ** 2) == str(r2**2 + 2 * r2 * r1 + r1 * r1) == "r1^2 + 2*r1*r2 + r2^2"
