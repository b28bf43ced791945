"""Weierstrass curves: invariants, coordinate changes, curve formal groups,
Hasse invariants and heights, and supersingular polynomials."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit.algebra import (
    AlgebraError, InternalCheckError, NotDivisible, ZZ, QQ, PrimeField,
    QuadExtField, IntegersMod, LocalizedIntegers, PolynomialRing, Poly,
    poly_gcd,
)
from tmfkit import weierstrass
from tmfkit.fgl import FormalGroupLaw
from tmfkit.series import Series
from tmfkit.weierstrass import (
    WeierstrassCurve, formal_group, hasse_invariant, exact_height,
    short_form, deuring_coefficient, curve_from_j, classify_j,
    supersingular_polynomial, SS_PRIME_CAP, division_poly_f,
)

from elimination import eliminate


def qcurve(*a):
    return WeierstrassCurve.from_ints(QQ, *a)


def poly_power_deuring(curve):
    """The x^(p-1) coefficient of the whole dense power (x^3 + A x + B)^m,
    m = (p-1)/2, formed by Poly multiplication: the oracle for the closed
    form of deuring_coefficient."""
    R = curve.ring
    p = R.characteristic()
    _, A, B = short_form(curve)
    return (Poly(R, [B, A, R.zero, R.one]) ** ((p - 1) // 2))[p - 1]


class TestInvariants:
    def test_j_zero_curve(self):
        inv = qcurve(0, 0, 0, 0, 1).invariants()     # y^2 = x^3 + 1
        vals = [QQ.coeff_to_json(v) for v in (inv.c4, inv.c6, inv.delta)]
        assert vals == [0, -864, -432]
        kind, j = inv.j_class()
        assert kind == "value" and QQ.coeff_to_json(j) == 0

    def test_conductor_eleven_curve(self):
        inv = qcurve(0, -1, 1, 0, 0).invariants()    # y^2 + y = x^3 - x^2
        vals = [QQ.coeff_to_json(v) for v in (inv.c4, inv.c6, inv.delta)]
        assert vals == [16, -152, -11]
        kind, j = inv.j_class()
        assert kind == "value" and QQ.coeff_to_json(j) == "-4096/11"

    def test_j_1728_curve(self):
        inv = qcurve(0, 0, 0, 1, 0).invariants()     # y^2 = x^3 + x
        kind, j = inv.j_class()
        assert QQ.coeff_to_json(j) == 1728

    def test_j_class_branches(self):
        # over Z the discriminant is rarely a unit: the class is a pair
        kind, pair = WeierstrassCurve.from_ints(
            ZZ, 0, 0, 0, 0, 1).invariants().j_class()
        assert kind == "pair" and pair == (0, -432)
        # cuspidal cubic: totally degenerate
        kind, val = WeierstrassCurve.from_ints(
            ZZ, 0, 0, 0, 0, 0).invariants().j_class()
        assert kind == "undefined" and val is None

    def test_classification(self):
        assert qcurve(0, 0, 0, 0, 1).classification() == "smooth"
        assert qcurve(0, 1, 0, 0, 0).classification() == "nodal"
        assert qcurve(0, 0, 0, 0, 0).classification() == "additive"


class TestTransforms:
    def test_unimodular_preserves_invariants(self):
        c = qcurve(1, -2, 3, 4, -5)
        d = c.transform(QQ.one, QQ.from_int(2), QQ.from_int(-1),
                        QQ.from_int(3))
        ci, di = c.invariants(), d.invariants()
        assert QQ.eq(ci.c4, di.c4) and QQ.eq(ci.c6, di.c6)
        assert QQ.eq(ci.delta, di.delta)

    def test_scaling_law(self):
        c = qcurve(0, 0, 0, 0, 1)
        u = QQ.from_int(2)
        d = c.transform(u, QQ.zero, QQ.zero, QQ.zero)
        assert QQ.eq(d.invariants().delta,
                     QQ.divide(c.invariants().delta, QQ.from_int(4096)))

    def test_nonunit_u_rejected(self):
        c = WeierstrassCurve.from_ints(ZZ, 0, 0, 0, 0, 1)
        with pytest.raises(AlgebraError):
            c.transform(2, 0, 0, 0)

    @given(u=st.sampled_from([1, -1, 2, 3, -2]),
           r=st.integers(-5, 5), s=st.integers(-5, 5), t=st.integers(-5, 5),
           a=st.tuples(*([st.integers(-4, 4)] * 5)))
    @settings(max_examples=60, deadline=None)
    def test_j_is_invariant(self, u, r, s, t, a):
        c = qcurve(*a)
        d = c.transform(*[QQ.from_int(v) for v in (u, r, s, t)])
        ci, di = c.invariants(), d.invariants()
        # compare c4^3 * Delta' = c4'^3 * Delta (avoids unit questions)
        lhs = QQ.mul(QQ.pow(ci.c4, 3), di.delta)
        rhs = QQ.mul(QQ.pow(di.c4, 3), ci.delta)
        assert QQ.eq(lhs, rhs)

    def test_short_form(self):
        c = qcurve(1, -2, 3, 4, -5)
        sf, A, B = short_form(c)
        assert all(QQ.is_zero(v) for v in (sf.a1, sf.a2, sf.a3))
        inv = c.invariants()
        assert QQ.eq(inv.c4, QQ.mul(QQ.from_int(-48), A))


class TestSerialization:
    def test_roundtrip(self):
        c = qcurve(1, -2, 3, 4, -5)
        assert WeierstrassCurve.from_json(c.to_json()) == c

    def test_prime_field_roundtrip(self):
        c = WeierstrassCurve.from_ints(PrimeField(7), 1, 0, 0, 0, 1)
        assert WeierstrassCurve.from_json(c.to_json()) == c


class TestFormalGroup:
    def test_curve_equation_holds_on_parametrization(self):
        c = qcurve(1, -2, 3, 4, -5)
        data = formal_group(c, 9)
        x, y = data["x_series"], data["y_series"]
        lhs = y * y + x * y.scale(c.a1) + y.scale(c.a3)
        diff = lhs - (x * x * x) - (x * x).scale(c.a2) - x.scale(c.a4)
        # what remains must be the constant a6 exactly
        for ex, cf in diff.terms.items():
            if all(e == 0 for e in ex):
                assert QQ.eq(cf, c.a6)
            else:
                assert QQ.is_zero(cf)

    def test_leading_shape(self):
        data = formal_group(qcurve(0, 0, 0, 0, 1), 8)
        x = data["x_series"]
        assert x.valuation() == -2 and QQ.eq(x.coeff((-2,)), QQ.one)
        eta = data["eta"]
        assert QQ.eq(eta.constant_term(), QQ.one)

    def test_law_is_certified(self):
        data = formal_group(qcurve(1, 0, 1, -1, 0), 8)
        law = data["fgl"]
        # independent re-check: the 2-series is an endomorphism
        from tmfkit.fgl import check_homomorphism
        rep = check_homomorphism(law.n_series(2), law, law)
        assert rep["is_hom"] and rep["inv2_holds"]

    def test_logarithm_linearizes(self):
        data = formal_group(qcurve(0, 0, 0, 2, 3), 8)
        data["fgl"].logarithm()   # raises InternalCheckError on failure

    def test_degenerate_fibers(self):
        # the formal completion at infinity exists even for singular cubics:
        # the cusp gives the additive law, the node a multiplicative one
        cusp = formal_group(qcurve(0, 0, 0, 0, 0), 6)["fgl"]
        assert cusp.F == Series(QQ, cusp.F.vars, cusp.F.precision,
                                {(1, 0): QQ.one, (0, 1): QQ.one})
        node = formal_group(qcurve(1, 0, 0, 0, 0), 6)["fgl"]
        assert QQ.eq(node.F.coeff((1, 1)), QQ.from_int(-1))

    def test_negative_n_series_claims_only_known_degrees(self):
        # [-7] = [7] o i, where [7] starts at t^7 over F_7: the N = 17 law
        # must agree with the N = 9 one wherever the latter claims a value
        c = WeierstrassCurve.from_ints(PrimeField(7), 1, 0, 0, 2, 3)
        low = formal_group(c, 9)["fgl"].n_series(-7)
        high = formal_group(c, 17)["fgl"].n_series(-7)
        assert low.precision == 9
        assert high.truncate(9) == low


def plain_formal_group(curve, N):
    """The curve's formal group the long way, at the fixed slack N + 8:
    x = z/w, y = -1/w and the chord slope, w(z2) - w(z1) divided by
    z2 - z1, by elimination, and eta = dx/(2y + a1 x + a3) by elimination
    too, since the divisor's lowest coefficient -2 need not be a unit (None
    where that division fails).  F, x and y are truncated
    to N and eta to N - 1."""
    R = curve.ring
    a1, a2, a3, a4, a6 = curve.a_invariants()
    Nw = N + 8
    one = Series.one(R, ("z",), Nw)
    z = Series.gen(R, ("z",), Nw, "z")
    u = one
    for _ in range(Nw + 1):
        nu = one + (z * u).scale(a1) + (z ** 2 * u).scale(a2) \
            + (z ** 3 * u * u).scale(a3) + (z ** 4 * u * u).scale(a4) \
            + (z ** 6 * u * u * u).scale(a6)
        if nu == u:
            break
        u = nu
    w = z ** 3 * u
    x = eliminate(z, w)
    y = eliminate(-one, w)
    pair = ("z1", "z2")
    Z1 = Series.gen(R, pair, Nw, "z1")
    Z2 = Series.gen(R, pair, Nw, "z2")
    w1, w2 = w.rename(pair, [0]), w.rename(pair, [1])
    lam = eliminate(w2 - w1, Z2 - Z1)
    nu = w1 - lam * Z1
    i = R.from_int
    A = Series.one(R, pair, lam.precision) + lam.scale(a2) \
        + (lam * lam).scale(a4) + (lam * lam * lam).scale(a6)
    B = lam.scale(a1) + nu.scale(a2) + (lam * lam).scale(a3) \
        + (lam * nu).scale(R.mul(i(2), a4)) \
        + (lam * lam * nu).scale(R.mul(i(3), a6))
    z3 = -B.divide_exact(A) - Z1 - Z2
    iota = z.divide_exact(-one + z.scale(a1) + w.scale(a3))
    F = iota.compose(z3).truncate(N)
    den = y.scale(i(2)) + x.scale(a1) + \
        Series.constant(R, ("z",), x.precision, a3)
    try:
        eta = eliminate(x.derivative(), den)
        eta = Series(R, ("z",), N - 1, eta.terms)
    except NotDivisible:
        eta = None
    return {"F": F, "x": x.truncate(N), "y": y.truncate(N), "eta": eta}


F3 = PrimeField(3)
# a ring and a random coefficient of it
CURVE_RINGS = {
    "Q": (QQ, lambda r: Fraction(r.randint(-3, 3), r.choice([1, 2, 3]))),
    # coprime denominators: the cleared solve for w divides by U = -D != -1
    "Q big denominators": (QQ, lambda r: Fraction(
        r.randint(-3, 3), r.choice([1, 7 ** 5, 11 ** 5]))),
    "Z": (ZZ, lambda r: r.randint(-3, 3)),
    "F2": (PrimeField(2), lambda r: r.randint(0, 1)),
    "F3": (F3, lambda r: r.randint(0, 2)),
    "F5": (PrimeField(5), lambda r: r.randint(0, 4)),
    "F13": (PrimeField(13), lambda r: r.randint(0, 12)),
    "F9": (QuadExtField(3), lambda r: (r.randint(0, 2), r.randint(0, 2))),
    "Z[1/2]": (LocalizedIntegers(inverted=(2,)),
               lambda r: Fraction(r.randint(-3, 3), r.choice([1, 2, 4]))),
    "Z_(3)": (LocalizedIntegers(at=3),
              lambda r: Fraction(r.randint(-3, 3), r.choice([1, 2, 5]))),
    "F3[T]": (PolynomialRing(F3),
              lambda r: Poly(F3, [r.randint(0, 2), r.randint(0, 2)])),
    "Z/4": (IntegersMod(4), lambda r: r.randint(0, 3)),
    "Z/12": (IntegersMod(12), lambda r: r.randint(0, 11)),
}


def differential_holds(data, curve):
    """eta * (2y + a1 x + a3) = dx/dz, both sides times z^3."""
    x, y, eta = data["x_series"], data["y_series"], data["eta"]
    R = curve.ring
    den = y.scale(R.from_int(2)) + x.scale(curve.a1) + \
        Series.constant(R, ("z",), x.precision, curve.a3)
    lhs, rhs = eta * den.shift(3), x.derivative().shift(3)
    return lhs.agrees_with(rhs) and min(lhs.precision, rhs.precision) >= \
        eta.precision


class TestFormalGroupAgainstPlainConstruction:
    @pytest.mark.parametrize("name", sorted(CURVE_RINGS))
    def test_same_series_as_the_plain_construction(self, name):
        R, coeff = CURVE_RINGS[name]
        rng = random.Random(name)
        # polynomial coefficients grow with N: F_3[T] stops at N = 8
        for N in range(3, 9 if name == "F3[T]" else 13):
            a = [coeff(rng) for _ in range(5)]
            curve = WeierstrassCurve(R, *a)
            got = formal_group(curve, N)
            want = plain_formal_group(curve, N)
            F = got["fgl"].F
            assert (F.terms, F.precision) == (want["F"].terms,
                                              want["F"].precision), a
            assert got["x_series"] == want["x"], a
            assert got["y_series"] == want["y"], a
            assert differential_holds(got, curve), a
            if name in ("Z/4", "Z/12"):
                # 2y + a1 x + a3 starts with -2 z^-3: no Laurent quotient
                assert want["eta"] is None
            else:
                assert got["eta"] == want["eta"], a

    def test_singular_cubic_in_characteristic_two(self):
        # a1 = a3 = 0 makes 2y + a1 x + a3 vanish mod 2: the cusp still has
        # its law, the additive one, and eta = 1
        F2 = PrimeField(2)
        data = formal_group(WeierstrassCurve.from_ints(F2, 0, 0, 0, 0, 0), 7)
        F = data["fgl"].F
        assert F == Series(F2, F.vars, 7, {(1, 0): 1, (0, 1): 1})
        assert data["eta"] == Series.one(F2, ("z",), 6)

    def test_curve_equation_cross_check_fires(self, monkeypatch):
        solve = weierstrass._solve_implicit

        def one_coefficient_off(R, H, n):
            w = solve(R, H, n)
            w[(5,)] = R.add(w.get((5,), R.zero), R.one)
            return w

        monkeypatch.setattr(weierstrass, "_solve_implicit",
                            one_coefficient_off)
        with pytest.raises(InternalCheckError,
                           match="w does not satisfy the curve equation"):
            formal_group(qcurve(1, -2, 3, 4, -5), 6)

    def test_differential_cross_check_fires(self, monkeypatch):
        law_eta = FormalGroupLaw.invariant_differential

        def off_by_one_term(law):
            eta = law_eta(law)
            top = (eta.precision - 1,)
            return eta + Series(eta.ring, eta.vars, eta.precision,
                                {top: eta.ring.one})

        monkeypatch.setattr(FormalGroupLaw, "invariant_differential",
                            off_by_one_term)
        with pytest.raises(InternalCheckError,
                           match=r"dx/\(2y \+ a1 x \+ a3\)"):
            formal_group(qcurve(1, -2, 3, 4, -5), 6)


def digit_fraction(rng, R, digits):
    """A random element of R, Q or a localization of Z, whose numerator and
    denominator have up to the given number of digits (the denominator a
    power of 2 over Z[1/2], prime to 3 over Z_(3))."""
    num = rng.randrange(-10 ** digits, 10 ** digits)
    if R == LocalizedIntegers(inverted=(2,)):
        return Fraction(num, 2 ** rng.randrange(int(3.32 * digits) + 1))
    while True:
        den = rng.randrange(10 ** (digits - 1), 10 ** digits)
        if R == QQ or den % 3:
            return Fraction(num, den)


LOCAL_RINGS = [QQ, LocalizedIntegers(at=3), LocalizedIntegers(inverted=(2,))]


class TestIntegralModel:
    """Over Q and its localizations formal_group works on the integral
    model a_i' = u^i a_i and rescales; weierstrass._formal_group, the
    construction over the curve's own ring, is the oracle."""

    @pytest.mark.parametrize("digits,N", [(1, 16), (10, 14), (40, 10)])
    @pytest.mark.parametrize("R", LOCAL_RINGS, ids=repr)
    def test_same_series_as_the_direct_route(self, R, digits, N):
        rng = random.Random("%r %d" % (R, digits))
        for _ in range(2):
            a = [digit_fraction(rng, R, digits) for _ in range(5)]
            curve = WeierstrassCurve(R, *a)
            got = formal_group(curve, N)
            want = weierstrass._formal_group(curve, N)
            assert got["fgl"].ring == R
            assert got["fgl"].F == want["fgl"].F, a
            for key in ("x_series", "y_series", "eta"):
                assert got[key] == want[key], (key, a)

    @pytest.mark.parametrize("R,a,u", [
        (QQ, ["1/2", 0, "1/3", 1, "-1/2"], 6),
        (QQ, [1, -2, 3, 4, -5], 1),
        (LocalizedIntegers(at=3), ["1/2", 0, "1/5", 1, "-1/2"], 10),
        (LocalizedIntegers(inverted=(2,)), ["1/2", 0, "1/4", 1, "-1/2"], 4),
    ], ids=str)
    def test_the_work_runs_over_the_integers(self, R, a, u, monkeypatch):
        seen = []
        direct = weierstrass._formal_group

        def spy(curve, N):
            seen.append(curve)
            return direct(curve, N)
        monkeypatch.setattr(weierstrass, "_formal_group", spy)
        a = [Fraction(c) for c in a]
        formal_group(WeierstrassCurve(R, *a), 8)
        assert seen == [WeierstrassCurve(
            ZZ, *(int(c * u ** i) for c, i in zip(a, (1, 2, 3, 4, 6))))]


class TestHasse:
    def test_supersingular_j_zero_at_five(self):
        c = WeierstrassCurve.from_ints(PrimeField(5), 0, 0, 0, 0, 1)
        rep = hasse_invariant(c)
        assert rep["v1"] == 0 and rep["ordinary"] is False
        assert exact_height(c) == 2

    def test_ordinary_at_five(self):
        c = WeierstrassCurve.from_ints(PrimeField(5), 0, 0, 0, 1, 0)
        rep = hasse_invariant(c)
        assert rep["v1"] == 2 and rep["ordinary"] is True
        assert exact_height(c) == 1

    def test_characteristic_two(self):
        ss = WeierstrassCurve.from_ints(PrimeField(2), 0, 0, 1, 0, 0)
        assert hasse_invariant(ss)["ordinary"] is False
        assert exact_height(ss) == 2
        ord2 = WeierstrassCurve.from_ints(PrimeField(2), 1, 0, 0, 0, 1)
        assert hasse_invariant(ord2)["ordinary"] is True
        assert exact_height(ord2) == 1

    def test_ordinary_at_seven(self):
        c = WeierstrassCurve.from_ints(PrimeField(7), 1, 0, 0, 0, 1)
        rep = hasse_invariant(c)
        assert rep["v1"] == 4 and rep["ordinary"] is True

    def test_deuring_agreement(self):
        # for p >= 5 the x^(p-1) coefficient equals the FGL v1, so it also
        # vanishes exactly where v1 does
        for p in (5, 7, 11, 13):
            F = PrimeField(p)
            for a4 in range(p):
                for a6 in (0, 1, 2):
                    c = WeierstrassCurve.from_ints(F, 0, 0, 0, a4, a6)
                    if not c.is_smooth():
                        continue
                    rep = hasse_invariant(c)
                    assert deuring_coefficient(c) == rep["v1"]
                    assert F.is_zero(rep["v1"]) != rep["ordinary"]

    def test_deuring_cross_check_is_by_value(self, monkeypatch):
        # a unit multiple of the Deuring coefficient vanishes where it
        # does, so only a comparison by value catches it
        c = WeierstrassCurve.from_ints(PrimeField(7), 1, 2, 3, 4, 5)
        assert hasse_invariant(c)["ordinary"]
        deuring = weierstrass.deuring_coefficient
        monkeypatch.setattr(weierstrass, "deuring_coefficient",
                            lambda curve: curve.ring.mul(2, deuring(curve)))
        with pytest.raises(InternalCheckError, match="Deuring cross-check"):
            hasse_invariant(c)

    def test_characteristic_zero_rejected(self):
        with pytest.raises(AlgebraError):
            hasse_invariant(qcurve(0, 0, 0, 0, 1))

    def test_law_is_certified_associative_at_eleven(self, monkeypatch):
        seen = []
        validate = FormalGroupLaw.validate

        def spy(F, check_associativity=True):
            seen.append(check_associativity)
            return validate(F, check_associativity)
        monkeypatch.setattr(FormalGroupLaw, "validate", staticmethod(spy))
        hasse_invariant(WeierstrassCurve.from_ints(PrimeField(11),
                                                   0, 0, 0, 1, 1))
        assert seen and all(seen)

    def test_deuring_closed_form_matches_poly_power(self):
        def draw(R, rng):
            if isinstance(R, QuadExtField):
                return (rng.randrange(R.p), rng.randrange(R.p))
            return rng.randrange(R.p)
        rng = random.Random("deuring")
        cases = [(PrimeField(p), 20) for p in (5, 7, 11, 13, 101)]
        cases += [(PrimeField(1009), 5)]
        cases += [(QuadExtField(p), 5) for p in (5, 7, 13, 101)]
        for R, count in cases:
            done = 0
            while done < count:
                c = WeierstrassCurve(R, *[draw(R, rng) for _ in range(5)])
                if c.is_smooth():
                    assert deuring_coefficient(c) == poly_power_deuring(c), c
                    done += 1
        # every smooth short curve at the primes where the FGL v1 is read
        for p in (5, 7, 11, 13):
            F = PrimeField(p)
            for a4 in range(p):
                for a6 in range(p):
                    c = WeierstrassCurve.from_ints(F, 0, 0, 0, a4, a6)
                    if c.is_smooth():
                        assert deuring_coefficient(c) == \
                            poly_power_deuring(c), c

    @pytest.mark.parametrize("ring,a", [
        (PrimeField(7919), [0, 0, 0, 1, 1]),
        (QuadExtField(7919), [(0, 0), (0, 0), (0, 0), (1, 1), (1, 0)]),
    ], ids=["F_7919", "F_7919^2"])
    def test_large_prime_within_budget(self, ring, a):
        # the dense power f^((p-1)/2) took 18 s at p = 7919
        start = time.monotonic()
        rep = hasse_invariant(WeierstrassCurve(ring, *a))
        assert time.monotonic() - start < 1
        assert rep["ordinary"] is True


class TestDivisionPolynomial:
    def test_degree_generic(self):
        # deg f_n = (n^2 - 4) / 2 for even n, (n^2 - 1) / 2 for odd n
        c = qcurve(0, 0, 0, 1, 1)
        assert division_poly_f(c, 3).degree() == 4
        assert division_poly_f(c, 5).degree() == 12

    def test_three_torsion_roots(self):
        # x = 0 kills the 3-division polynomial of y^2 = x^3 + 1 shifted?
        # check instead: psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2 for y^2=x^3+Ax+B
        c = qcurve(0, 0, 0, 2, 3)
        f3 = division_poly_f(c, 3)
        assert [QQ.coeff_to_json(f3[i]) for i in range(5)] == \
            [-4, 36, 12, 0, 3]


class TestSupersingularPolynomials:
    PINNED = {
        2: ("j", 1, 1),
        3: ("j", 1, 1),
        5: ("j", 1, 1),
        7: ("j + 1", 1, 1),
        11: ("j^2 + 10*j", 2, 2),
        13: ("j + 8", 1, 0),
        17: ("j^2 + 9*j", 2, 1),
        19: ("j^2 + 13*j + 12", 2, 1),
        23: ("j^3 + j^2 + 11*j", 3, 2),
    }

    @pytest.mark.parametrize("p", sorted(PINNED))
    def test_pinned_small_primes(self, p):
        rep = supersingular_polynomial(p)
        text, deg, eps = self.PINNED[p]
        assert rep.phi.to_string("j") == text
        assert rep.degree == deg and rep.epsilon == eps

    def test_monic_separable(self):
        for p in (31, 37, 41):
            rep = supersingular_polynomial(p)
            F = PrimeField(p)
            assert F.eq(rep.phi.leading(), F.one)
            g = poly_gcd(rep.phi, rep.phi.derivative())
            assert g.degree() == 0

    def test_degree_formula(self):
        # degree = (p-1)/12 rounded down, plus the 0/1728 corrections
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            rep = supersingular_polynomial(p)
            assert rep.degree == (p - 1) // 12 + rep.epsilon

    def test_roots_frobenius_stable(self):
        # every root of Phi_p lies in F_{p^2}, so the Frobenius x -> x^p
        # permutes the supersingular locus
        rep = supersingular_polynomial(47)
        F = rep.field
        roots = rep.j_values
        frob = {F.pow(j, 47) for j in roots}
        assert frob == set(roots)

    def test_roots_classify_supersingular(self):
        rep = supersingular_polynomial(13)
        assert [F13j for (F13j, _) in rep.j_values] == [5]
        assert classify_j(13, 5)["class"] == "supersingular"
        assert classify_j(13, 0)["class"] == "ordinary"

    def test_cap_and_composite_rejected(self):
        with pytest.raises(AlgebraError):
            supersingular_polynomial(SS_PRIME_CAP + 2)
        with pytest.raises(AlgebraError):
            supersingular_polynomial(15)

    def test_cap_error_names_prime_and_cap(self):
        with pytest.raises(AlgebraError,
                           match=r"p = 103 exceeds the desk-scale cap 101"):
            supersingular_polynomial(103)

    def test_json_shape(self):
        blob = supersingular_polynomial(11).to_json()
        assert blob["p"] == 11
        assert blob["degree"] == 2 and blob["epsilon"] == 2
        assert blob["Phi"] == [0, 10, 1]
        assert blob["supersingular_j"] == [[0, 0], [1, 0]]


class TestCurveFromJ:
    def test_round_trip_over_prime_field(self):
        for p in (5, 7, 13):
            F = PrimeField(p)
            for j in range(p):
                c = curve_from_j(F, F.from_int(j))
                kind, val = c.invariants().j_class()
                assert kind == "value" and F.eq(val, F.from_int(j))

    def test_round_trip_over_rationals(self):
        for j in (QQ.from_int(5), QQ.coeff_from_json("19/7")):
            c = curve_from_j(QQ, j)
            kind, val = c.invariants().j_class()
            assert kind == "value" and QQ.eq(val, j)
