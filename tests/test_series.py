"""Truncated power series: precision bookkeeping, arithmetic, composition,
functional inverse, exact division (including Laurent tails), and JSON."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit import series
from tmfkit.algebra import (
    AlgebraError, NotDivisible, ZZ, QQ, PrimeField, IntegersMod,
    LocalizedIntegers, QuadExtField, Poly, PolynomialRing,
)
from tmfkit.series import Series, _product
from tmfkit.fgl import FormalGroupLaw, honda_fgl
from tmfkit.weierstrass import WeierstrassCurve, formal_group

from elimination import eliminate


def zt(precision, terms):
    return Series(ZZ, ("t",), precision, terms)


class TestConstruction:
    def test_precision_must_be_positive(self):
        with pytest.raises(AlgebraError):
            Series(ZZ, ("t",), 0, {})

    def test_terms_beyond_precision_dropped(self):
        f = zt(3, {(5,): 9, (2,): 1})
        assert f.terms == {(2,): 1}

    def test_zero_coefficients_dropped(self):
        assert zt(4, {(1,): 0}).is_zero()

    def test_one_variable_negative_exponent_needs_no_flag(self):
        f = zt(4, {(-1,): 1, (2,): 3})
        assert f.coeff((-1,)) == 1 and f.valuation() == -1
        assert f == zt(4, {(2,): 3, (-1,): 1})

    def test_laurent_is_single_variable_only(self):
        msg = "a series of several variables has no negative exponents"
        for vars, e in [(("x", "y"), (-1, 2)), (("x", "y"), (3, -1)),
                        (("a", "b", "c"), (0, -2, 1))]:
            with pytest.raises(AlgebraError, match=msg):
                Series(ZZ, vars, 4, {e: 1})

    def test_at_most_three_variables(self):
        with pytest.raises(AlgebraError):
            Series(ZZ, ("a", "b", "c", "d"), 3, {})


class TestArithmetic:
    def test_add_truncates_to_min_precision(self):
        f = zt(5, {(1,): 1})
        g = zt(3, {(2,): 4})
        h = f + g
        assert h.precision == 3
        assert h.terms == {(1,): 1, (2,): 4}

    def test_mul_uses_valuation(self):
        # (t * u) to precision 4 still knows its t^4 coefficient is exact:
        # valuation 1 + valuation 1 pushes the reliable window up
        f = zt(4, {(1,): 1})
        assert (f * f).coeff((2,)) == 1

    def test_geometric_inverse(self):
        f = zt(6, {(0,): 1, (1,): -1})
        g = f.inverse_unit()
        assert all(g.coeff((k,)) == 1 for k in range(6))
        assert (f * g).agrees_with(Series.one(ZZ, ("t",), 6))

    def test_inverse_needs_unit_constant_term(self):
        with pytest.raises(AlgebraError):
            zt(4, {(0,): 2}).inverse_unit()

    def test_pow(self):
        f = zt(6, {(0,): 1, (1,): 1})
        assert f ** 3 == zt(6, {(0,): 1, (1,): 3, (2,): 3, (3,): 1})
        assert (f ** 0) == Series.one(ZZ, ("t",), 6)

    def test_shift(self):
        f = zt(4, {(1,): 7})
        g = f.shift(2)
        assert g.coeff((3,)) == 7
        h = Series(ZZ, ("t",), 4, {(1,): 7}).shift(-1)
        assert h.coeff((0,)) == 7

    def test_ring_mismatch_rejected(self):
        f = zt(4, {(1,): 1})
        g = Series(QQ, ("t",), 4, {(1,): QQ.one})
        with pytest.raises(AlgebraError):
            f + g


class TestCalculus:
    def test_derivative_drops_precision(self):
        f = zt(5, {(3,): 2})
        df = f.derivative()
        assert df.precision == 4
        assert df.coeff((2,)) == 6

    def test_integrate_raises_precision(self):
        f = Series(QQ, ("t",), 4, {(1,): QQ.from_int(2)})
        F = f.integrate()
        assert F.precision == 5
        assert QQ.eq(F.coeff((2,)), QQ.one)

    def test_integrate_derivative_roundtrip(self):
        f = Series(QQ, ("t",), 6,
                   {(k,): QQ.from_int(k + 1) for k in range(1, 5)})
        assert f.derivative().integrate().agrees_with(f)

    def test_integrate_needs_divisibility(self):
        f = zt(4, {(1,): 1})   # t -> t^2/2 is not integral
        with pytest.raises((AlgebraError, NotDivisible)):
            f.integrate()


class TestComposition:
    def test_compose(self):
        f = zt(5, {(1,): 1, (2,): 1})            # t + t^2
        g = zt(5, {(1,): 2})                     # 2t
        assert f.compose(g) == zt(5, {(1,): 2, (2,): 4})

    def test_compose_claims_only_known_degrees(self):
        # t^2 + O(t^3) at t: t^3 and t^4 depend on the unknown t^3, t^4 of f
        f = zt(3, {(2,): 1})
        t = Series.gen(ZZ, ("t",), 10, "t")
        assert f.compose(t) == zt(3, {(2,): 1})

    def test_compose_needs_positive_valuation(self):
        f = zt(5, {(1,): 1})
        with pytest.raises(AlgebraError):
            f.compose(zt(5, {(0,): 1}))

    def test_compose_rejects_a_multivariate_outer_series(self):
        F = Series(ZZ, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1})
        t = Series.gen(ZZ, ("t",), 5, "t")
        with pytest.raises(AlgebraError, match="compose requires a "
                           "single-variable outer series"):
            F.compose(t)

    def test_compose_rejects_a_pole(self):
        # the pole is read off the terms: a shifted series with no negative
        # exponent left composes, and one with a pole is refused by subst
        t = Series.gen(ZZ, ("t",), 5, "t")
        f = zt(6, {(-1,): 4, (0,): 1, (2,): 3})
        assert f.shift(1).compose(t) == zt(5, {(0,): 4, (1,): 1, (3,): 3})
        with pytest.raises(AlgebraError,
                           match="cannot substitute into a Laurent series"):
            f.compose(t)

    @pytest.mark.parametrize("pf,pg", [(4, 7), (7, 4)])
    def test_compose_with_a_zero_side_is_constant(self, pf, pg):
        xy = ("x", "y")
        f = zt(pf, {(0,): 5, (1,): 1, (3,): 2})
        g = Series(ZZ, xy, pg, {(1, 0): 1, (1, 1): -2})
        want = Series.constant(ZZ, xy, min(pf, pg), 5)
        assert f.compose(Series.zero(ZZ, xy, pg)) == want
        assert zt(pf, {}).compose(g) == Series.zero(ZZ, xy, min(pf, pg))

    def test_subst_two_variables(self):
        F = Series(ZZ, ("x", "y"), 5,
                   {(1, 0): 1, (0, 1): 1, (1, 1): 1})  # x + y + xy
        t = Series.gen(ZZ, ("t",), 5, "t")
        val = F.subst([t, t])                    # 2t + t^2
        assert val == zt(5, {(1,): 2, (2,): 1})

    def test_subst_rejects_mismatched_values_and_laurent_outer(self):
        F = Series(ZZ, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1})
        t = Series.gen(ZZ, ("t",), 5, "t")
        u = Series.gen(ZZ, ("u",), 5, "u")
        with pytest.raises(AlgebraError):
            F.subst([t, u])
        laurent = Series(ZZ, ("q",), 4, {(-1,): 1, (1,): 1})
        with pytest.raises(AlgebraError):
            laurent.subst([t])

    def test_reverse_pinned(self):
        # functional inverse of t + t^2: signed Catalan numbers
        f = zt(6, {(1,): 1, (2,): 1})
        assert f.reverse() == zt(6, {(1,): 1, (2,): -1, (3,): 2,
                                     (4,): -5, (5,): 14})

    def test_reverse_composes_to_identity(self):
        f = zt(8, {(1,): 1, (2,): 3, (3,): -2, (5,): 7})
        t = Series.gen(ZZ, ("t",), 8, "t")
        assert f.compose(f.reverse()).agrees_with(t)
        assert f.reverse().compose(f).agrees_with(t)

    def test_reverse_needs_unit_linear_term(self):
        with pytest.raises(AlgebraError):
            zt(5, {(2,): 1}).reverse()

    @pytest.mark.parametrize("precision", [2, 3, 6])
    def test_reverse_rejects_laurent_input(self, precision):
        # a pole has no compositional inverse, even when the window is too
        # short to show it in f(g)
        for terms in ({(-1,): 1, (1,): 1}, {(-3,): 2, (1,): 1}):
            f = Series(ZZ, ("t",), precision, terms)
            with pytest.raises(AlgebraError,
                               match="cannot reverse a Laurent series"):
                f.reverse()


class TestDivision:
    # divide_exact divides only by a unit constant term; the elimination
    # helper divides by t^v times a unit
    def test_exact_division(self):
        f = zt(5, {(1,): 2, (2,): 2})
        g = zt(5, {(1,): 1})
        with pytest.raises(NotDivisible, match="lowest term t is not a unit"):
            f.divide_exact(g)
        h = eliminate(f, g)
        assert h.coeff((0,)) == 2 and h.coeff((1,)) == 2

    def test_laurent_division(self):
        # a one-variable quotient may have a pole
        one = Series.one(ZZ, ("t",), 6)
        t2 = zt(6, {(2,): 1})
        with pytest.raises(NotDivisible):
            one.divide_exact(t2)
        assert eliminate(one, t2) == zt(2, {(-2,): 1})

    def test_laurent_division_precision_guard(self):
        # each unit of denominator valuation costs precision; running out
        # is an error, not a silent wrong answer
        one = Series.one(ZZ, ("t",), 4)
        with pytest.raises(AlgebraError, match="exhaust the precision"):
            eliminate(one, zt(4, {(2,): 1}))

    def test_a_divisor_with_a_pole_is_refused(self):
        g = zt(4, {(-1,): 1, (0,): 1})
        with pytest.raises(NotDivisible, match="lowest term t\\^-1 is not"):
            Series.one(ZZ, ("t",), 4).divide_exact(g)

    def test_negative_quotient_exponent_in_several_variables(self):
        # 2y / 2x would be x^-1 y: no series of two variables holds it
        xy = ("x", "y")
        f = Series(ZZ, xy, 5, {(0, 1): 2})
        g = Series(ZZ, xy, 5, {(1, 0): 2})
        with pytest.raises(NotDivisible):
            f.divide_exact(g)
        with pytest.raises(NotDivisible):
            eliminate(f, g)

    def test_inexact_division_rejected(self):
        f = zt(5, {(1,): 1})
        g = zt(5, {(1,): 2})
        with pytest.raises(NotDivisible):
            f.divide_exact(g)
        with pytest.raises(NotDivisible):
            eliminate(f, g)

    # divide_exact refuses a non-unit lowest coefficient, or a divisor of
    # several variables with no unit constant term, naming the lowest term;
    # the elimination helper divides them
    @pytest.mark.parametrize("f,g,terms,precision", [
        (zt(5, {(1,): 2, (2,): 4}), zt(5, {(1,): 2}), {(0,): 1, (1,): 2}, 4),
        (zt(6, {(0,): 2}), zt(6, {(2,): 2}), {(-2,): 1}, 2),
        (zt(6, {(0,): 6, (1,): 3}), zt(6, {(0,): 3, (1,): 3}),
         {(0,): 2, (1,): -1, (2,): 1, (3,): -1, (4,): 1, (5,): -1}, 6),
        (Series(ZZ, ("x", "y"), 5, {(1, 0): 2, (1, 1): 2}),
         Series(ZZ, ("x", "y"), 5, {(1, 0): 2}), {(0, 0): 1, (0, 1): 1}, 4),
    ], ids=["2t+4t^2 by 2t", "2 by 2t^2", "6+3t by 3+3t", "2x+2xy by 2x"])
    def test_non_unit_lead(self, f, g, terms, precision):
        lowest = str(g._like(dict(g.sorted_terms()[:1])))
        with pytest.raises(NotDivisible, match="lowest term %s is not a unit"
                           % re.escape(lowest)):
            f.divide_exact(g)
        h = eliminate(f, g)
        assert (h.terms, h.precision) == (terms, precision)
        assert (h * g).agrees_with(f, h.precision)

    def test_a_unit_lowest_term_of_several_variables_is_refused(self):
        xy = ("x", "y")
        g = Series(ZZ, xy, 5, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(NotDivisible, match="lowest term y is not"):
            Series.zero(ZZ, xy, 5).divide_exact(g)


class TestSerialization:
    def test_roundtrip(self):
        f = Series(QQ, ("x", "y"), 4,
                   {(1, 0): QQ.from_int(1), (1, 1): QQ.coeff_from_json("1/2")})
        g = Series.from_json(f.to_json())
        assert g == f

    def test_laurent_roundtrip(self):
        f = Series(ZZ, ("q",), 3, {(-1,): 1, (0,): 744})
        g = Series.from_json(f.to_json())
        assert g == f and g.valuation() == -1

    def test_deterministic_term_order(self):
        f = Series(ZZ, ("t",), 5, {(3,): 1, (1,): 2})
        exps = [t["exp"] for t in f.to_json()["terms"]]
        assert exps == sorted(exps)


class TestAgreement:
    def test_agrees_with_up_to_shared_precision(self):
        f = zt(3, {(1,): 1})
        g = zt(7, {(1,): 1, (5,): 9})   # differ only beyond precision 3
        assert f.agrees_with(g)
        assert not g.agrees_with(zt(7, {(1,): 2}))


@given(a=st.integers(-9, 9), b=st.integers(-9, 9), c=st.integers(-9, 9),
       d=st.integers(-9, 9))
@settings(max_examples=50, deadline=None)
def test_product_distributes(a, b, c, d):
    f = zt(6, {(0,): a, (1,): b})
    g = zt(6, {(1,): c, (2,): d})
    h = zt(6, {(0,): 1, (3,): a})
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@given(coeffs=st.lists(st.integers(-5, 5), min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_reverse_is_involutive_on_valid_input(coeffs):
    terms = {(i + 1,): c for i, c in enumerate([1] + coeffs)}
    f = Series(ZZ, ("t",), 8, terms)
    assert f.reverse().reverse().agrees_with(f)


# -- truncated Horner against the plain loop ----------------------------------

def plain_product(a, b):
    """Every pair of terms, then the window rule of Series.__mul__."""
    R = a.ring
    va, vb = a.valuation(), b.valuation()
    if va is None or vb is None:
        n = min(a.precision, b.precision)
    else:
        n = min(a.precision + vb, b.precision + va)
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = R.add(out.get(e, R.zero), R.mul(c1, c2))
    return Series(R, a.vars, n, out)


def plain_compose(f, g):
    """The untruncated Horner loop acc -> acc * g + a_d, cut to
    n = min(precisions)."""
    R = f.ring
    n = min(f.precision, g.precision)
    top = max((e[0] for e in f.terms), default=0)
    acc = Series.zero(R, g.vars, n)
    for d in range(top, -1, -1):
        acc = plain_product(acc, g)
        c = f.coeff((d,))
        if not R.is_zero(c):
            acc = acc + Series.constant(R, g.vars, n, c)
    return acc.truncate(n)


def plain_reverse(f):
    """Degree-by-degree reversion, each error read from a full compose of
    f and g cut to precision k + 1 (the t^k coefficient needs no more)."""
    R = f.ring
    n = f.precision
    a1i = R.inv(f.coeff((1,)))
    g = Series(R, f.vars, n, {(1,): a1i})
    for k in range(2, n):
        h = plain_compose(f.truncate(k + 1), g.truncate(k + 1))
        err = h.coeff((k,))
        g = g + Series(R, f.vars, n, {(k,): R.neg(R.mul(err, a1i))})
    return g


def plain_formal_inverse(law):
    """i with F(t, i) = 0 degree by degree, each error read from a
    substitution at the law's full precision."""
    R = law.ring
    n = law.precision
    t = Series.gen(R, ("t",), n, "t")
    inv = -t
    for k in range(2, n):
        err = law.F.subst([t, inv]).coeff((k,))
        if not R.is_zero(err):
            inv = inv + Series(R, ("t",), n, {(k,): R.neg(err)})
    return inv


def monomials(nvars, d):
    """Exponent tuples of total degree d in nvars variables, lex order."""
    if nvars == 1:
        return [(d,)]
    return [(i,) + e for i in range(d + 1) for e in monomials(nvars - 1, d - i)]


def random_coeff(rng, R):
    if R == QQ:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if isinstance(R, IntegersMod):
        return rng.randrange(R.m)
    if R == ZZ:
        return rng.randint(-5, 5)
    if isinstance(R, QuadExtField):
        return (rng.randrange(R.p), rng.randrange(R.p))
    if isinstance(R, PolynomialRing):
        return Poly(R.base, [random_coeff(rng, R.base)
                             for _ in range(rng.randint(0, 2))])
    # Z_(p): denominators prime to p; Z[1/2]: powers of 2
    den = (rng.choice([1, 2, 4, 5, 7]) if R.at is not None
           else 2 ** rng.randint(0, 3))
    return Fraction(rng.randint(-5, 5), den)


def random_series(rng, R, vars, precision, low):
    """Each monomial of total degree in [low, precision) with chance 0.6."""
    terms = {}
    for d in range(low, precision):
        for e in monomials(len(vars), d):
            if rng.random() < 0.6:
                terms[e] = random_coeff(rng, R)
    return Series(R, vars, precision, terms)


def some_units(R):
    if R == QQ:
        return [Fraction(1), Fraction(2, 3), Fraction(-7, 5)]
    if isinstance(R, IntegersMod):
        # every unit below 16, and past that a few large ones: a modulus
        # near 2^61 has too many units to list
        units = [u for u in range(1, min(R.m, 16)) if R.is_unit(u)]
        return units + [u for u in (R.m // 3, R.m - 2, R.m - 1)
                        if R.m > 16 and R.is_unit(u)]
    if R == ZZ:
        return [1, -1]
    if isinstance(R, QuadExtField):
        return [(1, 0), (2, 1), (0, 2)]
    if isinstance(R, PolynomialRing):
        return [R.from_int(1), R.from_int(-1)]
    if R.at is not None:
        return [Fraction(1), Fraction(-5, 7), Fraction(2, 5)]
    return [Fraction(1), Fraction(-1, 2), Fraction(4)]


# both paths of the kernels: plain ints on rings with the to_cleared hook
# (Q and its localizations over a common denominator; Z; Z/m and F_p reduced
# mod m, two moduli past a machine word) and ring arithmetic (F_p^2, F_p[T])
RINGS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
         PrimeField(13), IntegersMod(4), IntegersMod(6), IntegersMod(8),
         IntegersMod(9), IntegersMod(12), IntegersMod(2 ** 61 - 1),
         IntegersMod(2 ** 64 + 13), ZZ, LocalizedIntegers(at=3),
         LocalizedIntegers(inverted=(2,)), QuadExtField(3),
         PolynomialRing(PrimeField(3))]


def extend(rng, s, extra):
    """s with random terms added in the `extra` degrees from its precision
    up, at precision s.precision + extra: the same series, known further."""
    tail = random_series(rng, s.ring, s.vars, s.precision + extra,
                         s.precision)
    return s._like({**s.terms, **tail.terms}, s.precision + extra)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_compose_matches_plain_horner(R):
    rng = random.Random("compose %r" % (R,))
    for case in range(60):
        vars = ("t",) if case % 2 else ("x", "y")
        pf, pg = rng.randint(1, 8), rng.randint(1, 8)
        f = random_series(rng, R, ("t",), pf, rng.choice([0, 1, 2, 3]))
        g = random_series(rng, R, vars, pg, rng.choice([1, 1, 2]))
        got, want = f.compose(g), plain_compose(f, g)
        assert (got.terms, got.precision) == (want.terms, min(pf, pg)), \
            (f, g)
        # soundness: no claimed coefficient depends on the unknown terms
        more = extend(rng, f, 3).compose(extend(rng, g, 3))
        assert more.precision >= got.precision, (f, g)
        assert more.truncate(got.precision).terms == got.terms, (f, g)
        assert plain_product(f, f) == f * f
        assert plain_product(g, g) == g * g


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_reverse_matches_plain_loop(R):
    # units other than 1 exercise the U^(2k-1) scaling of the cleared path
    rng = random.Random("reverse %r" % (R,))
    units = some_units(R)
    if R == QQ:
        units += [Fraction(-3, 2), Fraction(5)]
    for case in range(15):
        n = rng.randint(12, 20) if case < 3 else rng.randint(2, 8)
        f = random_series(rng, R, ("t",), n, 2)
        a1 = rng.choice(units)
        f = f + Series(R, ("t",), f.precision, {(1,): a1})
        got, want = f.reverse(), plain_reverse(f)
        assert (got.terms, got.precision) == (want.terms, want.precision), f


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("R", [QQ, LocalizedIntegers(at=7)], ids=repr)
def test_reverse_matches_plain_loop_on_honda_logs(R, p):
    """Sparse logarithms sum c t^(p^i) / p^i, scaled by a unit c."""
    for n, c in ((p ** 2 + 2, Fraction(1)), (17, Fraction(-3, 2)),
                 (20, Fraction(5))):
        terms = {}
        i = 0
        while p ** i < n:
            terms[(p ** i,)] = c / p ** i
            i += 1
        f = Series(R, ("t",), n, terms)
        got, want = f.reverse(), plain_reverse(f)
        assert (got.terms, got.precision) == (want.terms, want.precision), f


HONDA = {2: [(1, 7), (2, 9)], 3: [(1, 8), (2, 11)], 5: [(1, 9)]}


@pytest.mark.parametrize("R", [ZZ, QQ, PrimeField(2), PrimeField(3),
                               PrimeField(5), PrimeField(13), IntegersMod(12),
                               IntegersMod(2 ** 61 - 1)], ids=repr)
def test_formal_inverse_matches_plain_loop(R):
    laws = [make(R, N) for N in (4, 7, 10) for make in
            (FormalGroupLaw.multiplicative, FormalGroupLaw.additive)]
    laws += [honda_fgl(R.p, h, N) for h, N in HONDA.get(R.characteristic(), ())]
    laws += [formal_group(WeierstrassCurve.from_ints(R, *a), N)["fgl"]
             for a in ((1, 0, 0, 2, 3), (0, 1, 1, -1, 0), (1, -1, 1, 0, 2))
             for N in (5, 9)]
    for law in laws:
        got, want = law.formal_inverse(), plain_formal_inverse(law)
        assert (got.terms, got.precision) == (want.terms, want.precision), law


# -- Horner subst and recurrence inverse_unit against the plain loops ---------

def plain_subst(f, values):
    """Sum over the terms of f of c * prod P_i^e_i, each power formed by
    repeated products, kept below n = min(precisions)."""
    R = f.ring
    tgt = values[0]
    n = min([f.precision] + [v.precision for v in values])
    acc = Series.zero(R, tgt.vars, n)
    for exp, c in f.terms.items():
        m = Series.constant(R, tgt.vars, n, c)
        for P, e in zip(values, exp):
            for _ in range(e):
                m = plain_product(m, P).truncate(n)
        acc = acc + m
    return acc


def plain_inverse_unit(f):
    """Geometric series: f = c0 (1 - h), 1/f = c0^-1 * sum_k h^k."""
    R = f.ring
    n = f.precision
    c0i = R.inv(f.constant_term())
    one = Series.one(R, f.vars, n)
    h = one - f.scale(c0i)
    acc = term = one
    for _ in range(n):
        term = plain_product(term, h).truncate(n)
        acc = acc + term
    return acc.scale(c0i)


VARS = [("t",), ("x", "y"), ("a", "b", "c")]


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_subst_matches_plain_loop(R):
    rng = random.Random("subst %r" % (R,))
    seen = {"zero": 0, "val2": 0, "unequal": 0}
    for case in range(45):
        outer, target = VARS[case % 3], VARS[case // 3 % 3]
        top = 5 if len(outer) + len(target) < 6 else 4
        f = random_series(rng, R, outer, rng.randint(1, top + 1),
                          rng.choice([0, 1, 2]))
        values = []
        for _ in outer:
            p = rng.randint(1, top)
            if rng.random() < 0.15:
                values.append(Series.zero(R, target, p))
            else:
                values.append(random_series(rng, R, target, p,
                                            rng.choice([1, 1, 2, 3])))
        got, want = f.subst(values), plain_subst(f, values)
        assert (got.terms, got.precision) == (want.terms, want.precision), \
            (f, values)
        seen["zero"] += any(v.is_zero() for v in values)
        seen["val2"] += any((v.valuation() or 0) >= 2 for v in values)
        seen["unequal"] += len({v.precision for v in values + [f]}) > 1
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_inverse_unit_matches_geometric_series(R):
    rng = random.Random("inverse %r" % (R,))
    units = some_units(R)
    other = 0
    for case in range(30):
        vars = VARS[case % 3]
        h = random_series(rng, R, vars, rng.randint(1, 7 - len(vars)), 1)
        c0 = rng.choice(units)
        f = h + Series.constant(R, vars, h.precision, c0)
        got, want = f.inverse_unit(), plain_inverse_unit(f)
        assert (got.terms, got.precision) == (want.terms, want.precision), f
        other += c0 != R.one
    assert other >= 10 or units == [R.one]   # F_2 has no other unit


@pytest.mark.parametrize("R,c0", [(QQ, Fraction(2, 3)), (IntegersMod(6), 5)],
                         ids=["QQ-2/3", "Z6-5"])
def test_inverse_unit_with_unit_constant_other_than_one(R, c0):
    f = Series(R, ("x", "y"), 6, {(0, 0): c0, (1, 0): R.one, (1, 1): R.one})
    g = f.inverse_unit()
    assert g == plain_inverse_unit(f)
    assert (f * g).agrees_with(Series.one(R, ("x", "y"), 6))


# -- the cleared kernels with large denominators -----------------------------

CLEARED = [QQ, LocalizedIntegers(at=3), LocalizedIntegers(inverted=(2,))]


def big_denominators(R):
    """A denominator for the inner series and one for the outer series,
    large and coprime where the ring allows it (Z[1/2] has only powers of
    2, so its outer series gets integers)."""
    if R == QQ or R.at is not None:
        return 7 ** 20, 11 ** 20
    return 2 ** 20, 1


def big_series(rng, R, vars, precision, low, den):
    """Each monomial of degree in [low, precision) with chance 0.7; the
    numerators lie in [-9, 9] and are negative as often as not, over den
    or 1."""
    terms = {}
    for d in range(low, precision):
        for e in monomials(len(vars), d):
            if rng.random() < 0.7:
                terms[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                    rng.choice([den, den, 1]))
    return Series(R, vars, precision, terms)


@pytest.mark.parametrize("R", CLEARED, ids=repr)
def test_cleared_horner_with_large_coprime_denominators(R):
    rng = random.Random("cleared %r" % (R,))
    dg, df = big_denominators(R)
    for case in range(8):
        vars = VARS[1 + case % 2]
        top = 7 - len(vars)
        g = big_series(rng, R, vars, top, rng.choice([1, 1, 2]), dg)
        f = big_series(rng, R, ("t",), rng.randint(top - 1, top + 1), 0, df)
        got, want = f.compose(g), plain_compose(f, g)
        assert (got.terms, got.precision) == (want.terms, want.precision)
        outer = big_series(rng, R, vars, top, 0, df)
        # P0 over dg, the later values over df and dg in turn: the parts
        # mix denominators coprime to each other and to P0's
        values = [big_series(rng, R, vars, rng.randint(top - 1, top), 1, den)
                  for den in [dg, df, dg][:len(vars)]]
        got, want = outer.subst(values), plain_subst(outer, values)
        assert (got.terms, got.precision) == (want.terms, want.precision)
    # F(F(x, y), z), the shape of the associativity check
    xyz = VARS[2]
    F = big_series(rng, R, ("x", "y"), 5, 2, dg) + \
        Series(R, ("x", "y"), 5, {(1, 0): R.one, (0, 1): R.one})
    x, y, z = (Series.gen(R, xyz, 5, v) for v in xyz)
    got = F.subst([F.subst([x, y]), z])
    want = plain_subst(F, [plain_subst(F, [x, y]), z])
    assert (got.terms, got.precision) == (want.terms, want.precision)
    assert len(got.terms) > 10


@pytest.mark.parametrize("R", CLEARED, ids=repr)
def test_cleared_inverse_unit_with_large_denominators(R):
    rng = random.Random("cleared inverse %r" % (R,))
    dg, df = big_denominators(R)
    units = [c for c in (R.one, -R.one, Fraction(-5, 7), Fraction(-3, df),
                         Fraction(2, df)) if R.is_unit(c)]
    for case in range(6):
        vars = VARS[case % 3]
        h = big_series(rng, R, vars, 7 - len(vars), 1, dg)
        c0 = units[case % len(units)]
        f = h + Series.constant(R, vars, h.precision, c0)
        got, want = f.inverse_unit(), plain_inverse_unit(f)
        assert (got.terms, got.precision) == (want.terms, want.precision), f


@pytest.mark.parametrize("R", [QQ, PrimeField(13), ZZ], ids=repr)
def test_cleared_kernels_map_back_once_per_output_term(R, monkeypatch):
    """The kernels carry int numerators and call from_cleared once per
    output term, however many products and additions made it: over Q it
    builds one Fraction, over Z and F_13 it is the ring's divide."""
    calls = []
    back = R.from_cleared
    monkeypatch.setattr(R, "from_cleared",
                        lambda s, d: calls.append(1) or back(s, d))
    rng = random.Random("count")

    def some(vars, precision, low, den):
        if R == QQ:
            return big_series(rng, R, vars, precision, low, den)
        return random_series(rng, R, vars, precision, low)
    for vars in VARS:
        g = some(vars, 7, 1, 7 ** 20)
        f = some(("t",), 7, 0, 11 ** 20)
        outer = some(vars, 6, 0, 11 ** 20)
        values = [some(vars, 6, 1, 7 ** 20) for _ in vars]
        unit = g + Series.one(R, vars, g.precision)
        for run in (lambda: f.compose(g), lambda: outer.subst(values),
                    unit.inverse_unit):
            calls.clear()
            got = run()
            assert 0 < len(calls) <= len(got.terms), (vars, run)


def test_int_path_reduces_once_per_step(monkeypatch):
    """Over Z/m the kernels reduce their int sums mod m once per Horner
    step, memoized monomial, solver dot product and inverse_unit degree.
    So every coefficient that enters the pair loop is a residue, and every
    numerator from_cleared receives is a sum of products of two residues:
    at most 2 * 61 + 32 bits for m = 2^61 - 1.  A skipped reduction would
    grow like m^N and still give the right answers."""
    R = IntegersMod(2 ** 61 - 1)
    bits, entering = [], []
    back, pairs = R.from_cleared, series._pairs

    def spy_back(s, d):
        bits.append(s.bit_length())
        return back(s, d)

    def spy_pairs(R, out, t1, f2, n, s):
        entering.extend(c for _, c in t1)
        entering.extend(c for _, c in f2)
        return pairs(R, out, t1, f2, n, s)
    monkeypatch.setattr(R, "from_cleared", spy_back)
    monkeypatch.setattr(series, "_pairs", spy_pairs)
    rng = random.Random("reduce")
    curve = WeierstrassCurve.from_ints(R, 1, -1, 1, 0, 2)
    runs = [lambda: formal_group(curve, 14)["fgl"].formal_inverse()]
    for vars in VARS:
        g = random_series(rng, R, vars, 12 - 2 * len(vars), 1)
        f = random_series(rng, R, ("t",), 12, 0)
        outer = random_series(rng, R, vars, 10 - 2 * len(vars), 0)
        values = [random_series(rng, R, vars, 10 - 2 * len(vars), 1)
                  for _ in vars]
        unit = g + Series.constant(R, vars, g.precision, R.m - 2)
        runs += [lambda f=f, g=g: f.compose(g),
                 lambda o=outer, v=values: o.subst(v), unit.inverse_unit]
    for a1 in (1, R.m - 1, R.m // 3):
        f = random_series(rng, R, ("t",), 16, 2)
        runs.append((f + Series(R, ("t",), 16, {(1,): a1})).reverse)
    for run in runs:
        bits.clear()
        got = run()
        assert got.terms and bits, run
        assert max(bits) <= 2 * 61 + 32, (run, max(bits))
    assert entering and all(0 <= c < R.m for c in entering)


# -- the product kernel against all pairs ------------------------------------

def all_pairs(R, t1, t2, n):
    """Every pair of terms, then the terms below degree n that are not 0."""
    out = {}
    for e1, c1 in t1.items():
        for e2, c2 in t2.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = R.add(out.get(e, R.zero), R.mul(c1, c2))
    return {e: c for e, c in out.items() if sum(e) < n and not R.is_zero(c)}


def assert_product_matches(a, b):
    R = a.ring
    for n in range(-1, a.precision + b.precision + 2):
        got = _product(R, a.terms, b.terms, n)
        assert {e: c for e, c in got.items() if not R.is_zero(c)} == \
            all_pairs(R, a.terms, b.terms, n), (a, b, n)
    try:
        want = plain_product(a, b)
    except AlgebraError:   # the window rule left no precision
        with pytest.raises(AlgebraError):
            a * b
        return
    got = a * b
    assert (got.terms, got.precision) == (want.terms, want.precision), (a, b)


def laurent_series(rng, R, precision, low):
    """A one-variable series with terms from t^low (low < 0) up, as the
    quotients of a division by t^v times a unit."""
    terms = {(d,): random_coeff(rng, R) for d in range(low, precision)
             if rng.random() < 0.6}
    terms[(low,)] = rng.choice(some_units(R))
    return Series(R, ("t",), precision, terms)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_product_matches_all_pairs(R):
    rng = random.Random("product %r" % (R,))
    seen = {"empty": 0, "laurent": 0, "unequal": 0}
    for case in range(60):
        vars = VARS[case % 3]
        a = random_series(rng, R, vars, rng.randint(1, 7),
                          rng.choice([0, 0, 1, 2]))
        if case % 3 == 0 and case % 4:
            a = laurent_series(rng, R, rng.randint(1, 6), -rng.randint(1, 3))
        if case % 7 == 3:
            b = Series.zero(R, vars, rng.randint(1, 7))
        else:
            b = random_series(rng, R, vars, rng.randint(1, 7),
                              rng.choice([0, 0, 1, 2]))
        assert_product_matches(a, b)
        assert_product_matches(b, a)
        seen["empty"] += b.is_zero()
        seen["laurent"] += (a.valuation() or 0) < 0
        seen["unequal"] += a.precision != b.precision
    assert min(seen.values()) >= 5, seen


def dense_series(rng, R, vars, precision, low=0):
    """Every monomial of total degree in [low, precision), each with a unit
    coefficient, so that no term is missing."""
    if len(vars) == 1:
        terms = {(d,): rng.choice(some_units(R))
                 for d in range(low, precision)}
        return Series(R, vars, precision, terms)
    terms = {e: rng.choice(some_units(R)) for d in range(precision)
             for e in monomials(len(vars), d)}
    return Series(R, vars, precision, terms)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_product_packing_edges(R):
    # _product keys a multivariate monomial by its total degree and its
    # exponents but the last, read as digits in base n.  Dense factors,
    # checked at every n from -1 up, hold the monomials that alias under
    # that packing if terms of degree >= n are packed ((n, 0) and
    # (0, n + 1); (0, n, 0) and (1, 0, n - 1)), components that reach
    # n - 1, Laurent tails down to t^-3, empty factors and unequal
    # precisions.
    rng = random.Random("packing %r" % (R,))
    cases = []
    for vars, pa, pb in [(("x", "y"), 5, 5), (("x", "y"), 6, 3),
                         (("a", "b", "c"), 4, 4), (("a", "b", "c"), 5, 2)]:
        a = dense_series(rng, R, vars, pa)
        b = dense_series(rng, R, vars, pb)
        cases += [(a, b), (a, Series.zero(R, vars, pb))]
    for low in (-1, -2, -3):
        a = dense_series(rng, R, ("t",), rng.randint(1, 5), low)
        cases += [(a, dense_series(rng, R, ("t",), 6, -1)),
                  (a, dense_series(rng, R, ("t",), 3)),
                  (a, Series.zero(R, ("t",), 4))]
    for a, b in cases:
        assert_product_matches(a, b)
        assert_product_matches(b, a)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_product_cancellation_leaves_no_zero_terms(R):
    # (c x + c y)(c x - c y) = c^2 x^2 - c^2 y^2, with y the last variable
    # (1 for one variable): the x*y coefficients cancel and leave no term
    c = some_units(R)[-1]
    for vars in VARS:
        x = Series.gen(R, vars, 5, vars[0]).scale(c)
        y = (Series.gen(R, vars, 5, vars[-1]) if len(vars) > 1
             else Series.one(R, vars, 5)).scale(c)
        assert_product_matches(x + y, x - y)
        got = (x + y) * (x - y)
        assert len(got.terms) == 2
        assert all(not R.is_zero(v) for v in got.terms.values())


# -- the constructor is the only term filter: each operation that used to
# drop zero or out-of-window terms itself is checked against that code

def nonzero(R, terms):
    return {e: c for e, c in terms.items() if not R.is_zero(c)}


def assert_same_clean(got, want):
    R = got.ring
    assert all(not R.is_zero(c) and sum(e) < got.precision
               for e, c in got.terms.items()), got
    assert (got.ring, got.terms, got.precision) == \
        (want.ring, want.terms, want.precision)


def prefiltered_add(f, g):
    R = f.ring
    out = dict(f.terms)
    for e, c in g.terms.items():
        s = R.add(out.get(e, R.zero), c)
        if R.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return Series(R, f.vars, min(f.precision, g.precision), out)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_sum_with_cancellation_matches_prefiltered(R):
    rng = random.Random("cancel %r" % (R,))
    for case in range(30):
        vars = VARS[case % 3]
        f = random_series(rng, R, vars, rng.randint(1, 6), 0)
        h = random_series(rng, R, vars, rng.randint(1, 6), 0)
        g = h - f   # f + g cancels every term of f that h lacks
        assert_same_clean(f + g, prefiltered_add(f, g))
        assert_same_clean(g + f, prefiltered_add(g, f))
        assert (f - f).is_zero()


def test_scale_by_two_over_z4_matches_prefiltered():
    R = IntegersMod(4)
    rng = random.Random("scale Z/4")
    for case in range(30):
        f = random_series(rng, R, VARS[case % 3], rng.randint(1, 6), 0)
        want = Series(R, f.vars, f.precision,
                      nonzero(R, {e: R.mul(2, c) for e, c in f.terms.items()}))
        assert_same_clean(f.scale(2), want)
    f = Series(R, ("t",), 4, {(0,): 2, (1,): 1, (3,): 2})
    assert f.scale(2).terms == {(1,): 2}


def test_map_coeffs_into_f3_matches_prefiltered():
    F3 = PrimeField(3)
    rng = random.Random("map F_3")
    for case in range(30):
        f = random_series(rng, ZZ, VARS[case % 3], rng.randint(1, 6), 0)
        want = Series(F3, f.vars, f.precision,
                      nonzero(F3, {e: F3.from_int(c)
                                   for e, c in f.terms.items()}))
        assert_same_clean(f.map_coeffs(F3.from_int, F3), want)
    f = zt(4, {(0,): 3, (1,): 4, (2,): -6})
    assert f.map_coeffs(F3.from_int, F3).terms == {(1,): 1}


def prefiltered_derivative(f, i):
    R = f.ring
    out = {}
    for e, c in f.terms.items():
        if e[i]:
            ne = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            out[ne] = R.mul(R.from_int(e[i]), c)
    return Series(R, f.vars, f.precision - 1, nonzero(R, out))


@pytest.mark.parametrize("R", [PrimeField(2), IntegersMod(4), QQ, ZZ],
                         ids=repr)
def test_derivative_matches_prefiltered(R):
    t2 = Series(R, ("t",), 4, {(2,): R.one})
    assert t2.derivative().is_zero() == (R == PrimeField(2))
    rng = random.Random("derivative %r" % (R,))
    for case in range(30):
        vars = VARS[case % 3]
        f = random_series(rng, R, vars, rng.randint(2, 7), 0)
        if len(vars) == 1 and case % 2:
            f = laurent_series(rng, R, rng.randint(2, 7), -rng.randint(1, 2))
        for i, name in enumerate(vars):
            assert_same_clean(f.derivative(name),
                              prefiltered_derivative(f, i))


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_truncate_matches_prefiltered(R):
    rng = random.Random("truncate %r" % (R,))
    for case in range(20):
        vars = VARS[case % 3]
        f = random_series(rng, R, vars, rng.randint(1, 7), 0)
        if len(vars) == 1 and case % 2:
            f = laurent_series(rng, R, rng.randint(1, 7), -rng.randint(1, 2))
        for m in range(1, f.precision + 1):
            want = Series(R, vars, m, {e: c for e, c in f.terms.items()
                                       if sum(e) < m})
            assert_same_clean(f.truncate(m), want)


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_shifted_division_matches_prefiltered(R):
    # one variable, g = t^v times a unit series: divide_exact refuses it,
    # and the elimination helper gives the shifted quotient
    rng = random.Random("shifted division %r" % (R,))
    for case in range(30):
        v = rng.randint(1, 3)
        n = rng.randint(v + 1, 9)
        g = Series(R, ("t",), n, {(v,): rng.choice(some_units(R))})
        g = g + random_series(rng, R, ("t",), n, v + 1)
        f = random_series(rng, R, ("t",), rng.randint(1, 9),
                          rng.choice([0, 1, 2]))
        if f.is_zero():
            continue
        m = min(f.precision, g.precision) - v - max(0, v - f.valuation())
        if m < 1:
            continue
        q = (f * g.shift(-v).inverse_unit()).shift(-v).terms
        q = {e: c for e, c in q.items() if e[0] < m}
        with pytest.raises(NotDivisible, match="lowest term"):
            f.divide_exact(g)
        assert_same_clean(eliminate(f, g), Series(R, ("t",), m, q))


@pytest.mark.parametrize("R", [QQ, LocalizedIntegers(at=3)], ids=repr)
def test_product_with_large_coprime_denominators(R):
    big7, big11 = 7 ** 20, 11 ** 20
    a = Series(R, ("x", "y"), 6, {
        (1, 0): Fraction(1, big7), (0, 1): Fraction(-3, big11),
        (1, 1): Fraction(-5, big7 * big11), (2, 1): Fraction(2, 7),
        (0, 4): Fraction(-1, 11 ** 3)})
    b = Series(R, ("x", "y"), 5, {
        (0, 0): Fraction(-1, big11), (1, 0): Fraction(big7, big11),
        (0, 2): Fraction(-4, big7), (3, 0): Fraction(11, 7 ** 19)})
    assert_product_matches(a, b)
    p = a * b
    assert p.coeff((1, 0)) == Fraction(-1, big7 * big11)
    assert p.coeff((1, 1)) == Fraction(5 - 3 * big7 ** 2, big7 * big11 ** 2)
    assert p.coeff((2, 0)) == Fraction(1, big11)   # 7^20 cancels
    assert p.coeff((1, 2)) == Fraction(-4, big7 ** 2)


# -- divide_exact and the elimination helper: every quotient multiplies back -

def non_units(R):
    """Nonzero non-units that divide exactly in a domain (none in a field;
    Z/m is left out: its non-units are zero divisors)."""
    if R == ZZ:
        return [2, -3, 6]
    if isinstance(R, LocalizedIntegers):
        return ([Fraction(3), Fraction(-6, 5)] if R.at is not None
                else [Fraction(3), Fraction(5, 2)])
    return []


@pytest.mark.parametrize("R", RINGS, ids=repr)
def test_division_multiplies_back(R):
    rng = random.Random("divide %r" % (R,))
    seen = {"unit constant": 0, "eliminate unit lead": 0,
            "eliminate 1 var": 0, "eliminate 2-3 vars": 0, "laurent": 0}
    for case in range(60):
        vars = VARS[case % 3]
        top = (8, 5, 4)[case % 3]
        v = rng.choice([0, 1, 1, 2])
        g = random_series(rng, R, vars, rng.randint(v + 1, top), v + 1)
        lead = rng.choice(some_units(R) + non_units(R))
        g = g + Series(R, vars, g.precision,
                       {(v,) + (0,) * (len(vars) - 1): lead})
        q = random_series(rng, R, vars, rng.randint(1, top),
                          rng.choice([0, 0, 1]))
        if len(vars) == 1 and case % 2:
            q = laurent_series(rng, R, rng.randint(1, top), -rng.randint(1, 2))
        try:
            f = q * g
        except AlgebraError:   # a Laurent q can exhaust the window
            continue
        if R.is_unit(g.constant_term()):
            route = "unit constant"
        else:
            # divide_exact refuses the rest; the elimination helper divides
            route = "eliminate %s" % (
                "2-3 vars" if len(vars) > 1
                else "unit lead" if R.is_unit(lead) else "1 var")
            with pytest.raises(NotDivisible, match="lowest term"):
                f.divide_exact(g)
        try:
            h = (eliminate(f, g) if route.startswith("eliminate")
                 else f.divide_exact(g))
        except AlgebraError as exc:
            # only the precision guard may refuse an exact quotient
            assert not isinstance(exc, NotDivisible), (f, g)
            continue
        assert (h * g).agrees_with(f, h.precision), (f, g)
        seen[route] += 1
        seen["laurent"] += (h.valuation() or 0) < 0
    if not non_units(R):   # every one-variable lead is a unit
        del seen["eliminate 1 var"]
    assert min(seen.values()) >= 2, seen
