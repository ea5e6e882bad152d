"""Field axioms, root-of-unity identities and polynomial algebra over Q(w)."""

import math
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopdens.cyclotomic import (
    Cyclotomic,
    CycPoly,
    GammaPoleError,
    I_SQRT3,
    NotDivisibleError,
    OMEGA,
    ONE,
    ZERO,
    gamma_ratio,
    pochhammer,
    q_power,
)


# -- reference: per-coefficient schoolbook arithmetic on Cyclotomic/Fraction --


def ref_strip(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def ref_mul(p, q):
    """Schoolbook product of two coefficient lists over Q(w)."""
    if not p or not q:
        return ()
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci.is_zero():
            continue
        for j, cj in enumerate(q):
            out[i + j] = out[i + j] + ci * cj
    return ref_strip(out)


def ref_divmod(num, den):
    """Long division of coefficient lists over Q(w): (quotient, remainder)."""
    rem = list(num)
    lead_inv = den[-1].inverse()
    qdeg = len(rem) - len(den)
    quot = [ZERO] * (qdeg + 1)
    for k in range(qdeg, -1, -1):
        factor = rem[k + len(den) - 1] * lead_inv
        quot[k] = factor
        if factor.is_zero():
            continue
        for j, dj in enumerate(den):
            rem[k + j] = rem[k + j] - factor * dj
    return ref_strip(quot), ref_strip(rem)


def ref_horner(p, x):
    acc = ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rand_frac(rng, span=12):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_cyc(rng):
    return Cyclotomic(rand_frac(rng), rand_frac(rng))


def test_omega_identities():
    w = OMEGA
    assert w * w == w - 1
    assert w**3 == Cyclotomic(-1)
    assert w**6 == ONE
    assert w + w.inverse() == ONE
    assert I_SQRT3 == 2 * w - 1
    assert I_SQRT3 * I_SQRT3 == Cyclotomic(-3)


def test_q_powers_and_unit_product():
    assert q_power(2) * q_power(-2) == ONE
    assert q_power(3) == Cyclotomic(-1)
    assert q_power(7) == q_power(1)
    # needed so Q(q^2)P(q^-2) = f_Q(q^2)f_P(q^-2)
    assert (ONE + q_power(2)) * (ONE + q_power(-2)) == ONE


def test_field_axioms_randomized():
    rng = random.Random(0)
    for _ in range(200):
        x, y, z = rand_cyc(rng), rand_cyc(rng), rand_cyc(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == ONE


def test_conjugation_is_complex_conjugation():
    rng = random.Random(1)
    for _ in range(50):
        x = rand_cyc(rng)
        assert abs(complex(x.conjugate()) - complex(x).conjugate()) < 1e-12
        assert x * x.conjugate() == Cyclotomic(x.norm())


def test_float_rendering_tracks_exact_ops():
    rng = random.Random(2)
    for _ in range(200):
        x, y = rand_cyc(rng), rand_cyc(rng)
        for exact, approx in (
            (x + y, complex(x) + complex(y)),
            (x - y, complex(x) - complex(y)),
            (x * y, complex(x) * complex(y)),
        ):
            assert abs(complex(exact) - approx) < 1e-12 * max(1.0, abs(approx))
        if not y.is_zero():
            q = x / y
            approx = complex(x) / complex(y)
            assert abs(complex(q) - approx) < 1e-12 * max(1.0, abs(approx))


def test_real_and_rational_parts():
    x = Cyclotomic(Fraction(1, 3), Fraction(1, 2))
    assert x.real_part() == Fraction(1, 3) + Fraction(1, 4)
    assert not x.is_rational()
    assert Cyclotomic(Fraction(7, 5)).as_rational() == Fraction(7, 5)
    with pytest.raises(ValueError):
        x.as_rational()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_pochhammer_examples():
    assert pochhammer(Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 3), 2) == Fraction(4, 9)
    # (5/6 - N/2)_N at N = 1, squared
    assert pochhammer(Fraction(1, 3), 1) ** 2 == Fraction(1, 9)


def test_pochhammer_splitting_property():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_frac(rng)
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_gamma_ratio_examples():
    assert gamma_ratio(Fraction(2, 3), 1) == Fraction(2, 3)
    assert gamma_ratio(Fraction(-1, 3), 1) == Fraction(-1, 3)
    assert gamma_ratio(Fraction(1, 3), -1) == Fraction(-3, 2)


def test_gamma_ratio_poles():
    with pytest.raises(GammaPoleError):
        gamma_ratio(Fraction(0), 2)
    with pytest.raises(GammaPoleError):
        gamma_ratio(Fraction(2), -3)  # lands on Gamma(-1)
    with pytest.raises(GammaPoleError):
        gamma_ratio(Fraction(-4), 1)


def test_gamma_ratio_vs_pochhammer_identity():
    rng = random.Random(4)
    for _ in range(100):
        a = Fraction(rng.randint(-80, 80), 7)
        if a.denominator == 1:  # integer arguments can sit on poles
            continue
        n = rng.randint(0, 6)
        assert gamma_ratio(a, n) == pochhammer(a, n)
        assert gamma_ratio(a, -n) * pochhammer(a - n, n) == 1


def test_poly_scale_arg():
    p = CycPoly([1, 1])
    assert p.scale_arg(ONE) == p
    p2 = CycPoly([Fraction(-1, 2), 1])
    assert p2.scale_arg(q_power(2)) == CycPoly([Cyclotomic(Fraction(-1, 2)), q_power(2)])
    # (x^2)(s = q^3): q^6 = 1 leaves it unchanged
    assert CycPoly([0, 0, 1]).scale_arg(q_power(3)) == CycPoly([0, 0, 1])


def test_poly_divide_exact():
    sq = CycPoly.binomial_power(1, 1, 2)
    fq = CycPoly([Fraction(-1, 2), 0, Fraction(3, 2), 1])
    assert fq.divide_exact(sq) == CycPoly([Fraction(-1, 2), 1])
    fp = CycPoly([-2, -3, 0, 1])
    assert fp.divide_exact(sq) == CycPoly([-2, 1])
    with pytest.raises(NotDivisibleError):
        sq.divide_exact(CycPoly.binomial_power(1, 1, 3))
    err = None
    try:
        CycPoly([1, 1]).divide_exact(CycPoly([0, 1]))
    except NotDivisibleError as exc:
        err = exc
    assert err is not None and err.remainder == CycPoly([1])


def test_poly_ring_consistency():
    rng = random.Random(5)
    for _ in range(40):
        p = CycPoly([rand_cyc(rng) for _ in range(rng.randint(0, 5))])
        q = CycPoly([rand_cyc(rng) for _ in range(rng.randint(1, 5))])
        x = rand_cyc(rng)
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
        if not q.is_zero():
            assert (p * q).divide_exact(q) == p


def test_poly_derivative():
    p = CycPoly([5, 0, Fraction(3, 2), 1])
    assert p.derivative() == CycPoly([0, 3, 3])
    assert CycPoly([7]).derivative().is_zero()


def test_binomial_power():
    assert CycPoly.binomial_power(1, 1, 2) == CycPoly([1, 2, 1])
    assert CycPoly.binomial_power(1, -1, 2) == CycPoly([1, -2, 1])
    assert CycPoly.binomial_power(1, 1, 0) == CycPoly([1])
    with pytest.raises(ValueError, match="n >= 0"):
        CycPoly.binomial_power(1, 1, -1)


def test_rational_elements_hash_like_their_fractions():
    assert Cyclotomic(1) == 1 and hash(Cyclotomic(1)) == hash(1)
    assert len({1, Cyclotomic(1)}) == 1
    assert hash(Cyclotomic(Fraction(3, 2))) == hash(Fraction(3, 2))
    assert len({Fraction(3, 2), Cyclotomic(Fraction(3, 2))}) == 1
    assert {Cyclotomic(Fraction(-4, 6)): "x"}[Fraction(-2, 3)] == "x"
    assert len({OMEGA, Cyclotomic(0, 1), Cyclotomic(1, 1)}) == 2


def test_canonical_form_is_route_independent():
    half = CycPoly([Fraction(1, 2)])
    assert half * 2 == CycPoly([1]) and hash(half * 2) == hash(CycPoly([1]))
    assert CycPoly([0, 0]).degree == -1 and CycPoly([0, 0]) == CycPoly()
    assert hash(CycPoly([0, 0])) == hash(CycPoly())
    p = CycPoly([Fraction(1, 3), Cyclotomic(Fraction(2, 9), Fraction(-1, 6)), 5])
    q = CycPoly([Fraction(5, 4), OMEGA])
    routes = (
        (p + q) - q,
        (p * q).divide_exact(q),
        p * Fraction(6, 7) * Fraction(7, 6),
        p.scale_arg(q_power(1)).scale_arg(q_power(5)),
        CycPoly([Fraction(2, 6), Cyclotomic(Fraction(4, 18), Fraction(-3, 18)), Fraction(10, 2)]),
        CycPoly(list(p.coeffs) + [0, 0]),
        -(-p),
    )
    for r in routes:
        assert r == p and hash(r) == hash(p) and r.coeffs == p.coeffs


def test_coeffs_are_cyclotomic_in_lowest_terms():
    p = CycPoly([Fraction(2, 4), Cyclotomic(Fraction(3, 9), Fraction(-5, 10)), 0, 7])
    assert p.degree == 3
    assert p.coeffs == (
        Cyclotomic(Fraction(1, 2)),
        Cyclotomic(Fraction(1, 3), Fraction(-1, 2)),
        ZERO,
        Cyclotomic(7),
    )
    for k, c in enumerate(p.coeffs):
        assert isinstance(c, Cyclotomic) and c == p.coeff(k)
        for part in (c.a, c.b):
            assert isinstance(part, Fraction)
            assert part.denominator > 0 and math.gcd(part.numerator, part.denominator) == 1
    assert p.coeff(4) == ZERO and p.coeff(-1) == ZERO
    assert CycPoly().coeffs == ()


# -- property test against the reference ---------------------------------------

_fractions = st.builds(
    Fraction,
    st.integers(-(10**6), 10**6),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 35, 3**20]),
)
_elements = st.builds(Cyclotomic, _fractions, _fractions | st.just(Fraction(0)))
_polys = st.lists(_elements, max_size=6)


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, _elements, _polys, st.lists(_fractions, max_size=4))
def test_poly_ops_match_reference(p, q, x, r, monic_low):
    P, Q = CycPoly(p), CycPoly(q)
    p, q = ref_strip(p), ref_strip(q)
    assert P.coeffs == p and P.degree == len(p) - 1
    assert (P * Q).coeffs == ref_mul(p, q)
    pairs = list(zip_longest(p, q, fillvalue=ZERO))
    assert (P + Q).coeffs == ref_strip(a + b for a, b in pairs)
    assert (P - Q).coeffs == ref_strip(a - b for a, b in pairs)
    assert (P * x).coeffs == ref_strip(c * x for c in p)
    assert P.derivative().coeffs == ref_strip([k * c for k, c in enumerate(p)][1:])
    for k in range(6):
        s = q_power(k)
        assert P.scale_arg(s).coeffs == ref_strip(c * s**i for i, c in enumerate(p))
        assert P.evaluate(s) == ref_horner(p, s)
    assert P.evaluate(x) == ref_horner(p, x)
    assert P(Fraction(-3, 7)) == ref_horner(p, Cyclotomic(Fraction(-3, 7)))

    monic = tuple(Cyclotomic(c) for c in monic_low) + (ONE,)
    # a Q(w) divisor; its leading coefficient may or may not have a w-part
    general = q if any(not c.is_rational() for c in q) else (x, OMEGA + 1)
    for den in (monic, general):
        D = CycPoly(den)
        assert (P * D).divide_exact(D).coeffs == p
        # p*den plus a low-degree perturbation, and p itself
        low = list(r[: len(den) - 1])
        shifted = list(ref_mul(p, den)) + [ZERO] * len(low)
        for k, c in enumerate(low):
            shifted[k] = shifted[k] + c
        for num in (ref_strip(shifted), p):
            check_division(num, den)


def check_division(num, den):
    quot, rem = ref_divmod(num, den) if len(num) >= len(den) else ((), num)
    if not rem:
        assert CycPoly(num).divide_exact(CycPoly(den)).coeffs == quot
        return
    with pytest.raises(NotDivisibleError) as err:
        CycPoly(num).divide_exact(CycPoly(den))
    assert err.value.remainder.coeffs == rem


def test_divide_exact_by_a_non_monic_divisor():
    # x^2 = (x/2 - 1/4)(2x + 1) + 1/4
    with pytest.raises(NotDivisibleError) as err:
        CycPoly([0, 0, 1]).divide_exact(CycPoly([1, 2]))
    assert err.value.remainder == CycPoly([Fraction(1, 4)])
    # x^2 = (x/w - 1/w^2)(w x + 1) + 1/w^2
    with pytest.raises(NotDivisibleError) as err:
        CycPoly([0, 0, 1]).divide_exact(CycPoly([1, OMEGA]))
    assert err.value.remainder == CycPoly([q_power(-2)])
    # x^2 = (-x - 1)(1 - x) + 1: a negative integer leading coefficient
    with pytest.raises(NotDivisibleError) as err:
        CycPoly([0, 0, 1]).divide_exact(CycPoly([1, -1]))
    assert err.value.remainder == CycPoly([1])
    assert CycPoly([1, 0, -1]).divide_exact(CycPoly([1, -1])) == CycPoly([1, 1])
    d = CycPoly([Fraction(2, 3), Cyclotomic(-1, 3)])
    quot = CycPoly([1, Cyclotomic(Fraction(1, 5), 2), OMEGA])
    assert (quot * d).divide_exact(d) == quot
    assert (quot * d).divide_exact(-quot) == -d
