"""Weierstrass curves over exact coefficient rings: b/c/Delta invariants,
coordinate changes, the formal group law at the origin in the z = -x/y
coordinate, division polynomials and exact heights, Hasse invariants,
supersingularity tests, and the supersingular polynomial Phi(j)."""

import math
from itertools import accumulate, repeat

from .algebra import (AlgebraError, InternalCheckError, ZZ, Rationals,
                      PrimeField, QuadExtField, Poly, poly_gcd,
                      minimal_polynomial, is_prime, ring_from_json)
from .series import Series, _solve_implicit
from .fgl import FormalGroupLaw, height_profile

SS_PRIME_CAP = 101
# a dense curve over Q at N = 32 takes seconds; far above that it hangs
CURVE_PRECISION_CAP = 32
# primes up to this bound use the z-coordinate p-series for v1; beyond it the
# Deuring coefficient, which equals that v1, stands in
HASSE_FGL_CAP = 13


class CurveInvariants:
    def __init__(self, ring, b2, b4, b6, b8, c4, c6, delta):
        self.ring = ring
        self.b2, self.b4, self.b6, self.b8 = b2, b4, b6, b8
        self.c4, self.c6, self.delta = c4, c6, delta
        R = ring
        lhs = R.sub(R.pow(c4, 3), R.pow(c6, 2))
        if not R.eq(lhs, R.mul(R.from_int(1728), delta)):
            raise InternalCheckError("c4^3 - c6^2 != 1728*Delta")
        if not R.eq(R.mul(R.from_int(4), b8),
                    R.sub(R.mul(b2, b6), R.pow(b4, 2))):
            raise InternalCheckError("4*b8 != b2*b6 - b4^2")

    def j_class(self):
        """("value", j) when Delta is a unit; ("pair", (c4^3, Delta)) when the
        ratio degenerates but not totally; ("undefined", None) for the
        additive case c4^3 = Delta = 0."""
        R = self.ring
        c43 = R.pow(self.c4, 3)
        if R.is_unit(self.delta):
            return ("value", R.divide(c43, self.delta))
        if R.is_zero(c43) and R.is_zero(self.delta):
            return ("undefined", None)
        return ("pair", (c43, self.delta))


class WeierstrassCurve:
    def __init__(self, ring, a1, a2, a3, a4, a6):
        self.ring = ring
        self.a1, self.a2, self.a3, self.a4, self.a6 = a1, a2, a3, a4, a6

    @classmethod
    def from_ints(cls, ring, a1, a2, a3, a4, a6):
        f = ring.from_int
        return cls(ring, f(a1), f(a2), f(a3), f(a4), f(a6))

    def a_invariants(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def invariants(self):
        R = self.ring
        a1, a2, a3, a4, a6 = self.a_invariants()
        i = R.from_int
        b2 = R.add(R.pow(a1, 2), R.mul(i(4), a2))
        b4 = R.add(R.mul(i(2), a4), R.mul(a1, a3))
        b6 = R.add(R.pow(a3, 2), R.mul(i(4), a6))
        b8 = R.sum([R.mul(R.pow(a1, 2), a6),
                    R.mul(i(4), R.mul(a2, a6)),
                    R.neg(R.mul(a1, R.mul(a3, a4))),
                    R.mul(a2, R.pow(a3, 2)),
                    R.neg(R.pow(a4, 2))])
        c4 = R.sub(R.pow(b2, 2), R.mul(i(24), b4))
        c6 = R.sum([R.neg(R.pow(b2, 3)),
                    R.mul(i(36), R.mul(b2, b4)),
                    R.neg(R.mul(i(216), b6))])
        delta = R.sum([R.neg(R.mul(R.pow(b2, 2), b8)),
                       R.neg(R.mul(i(8), R.pow(b4, 3))),
                       R.neg(R.mul(i(27), R.pow(b6, 2))),
                       R.mul(i(9), R.mul(b2, R.mul(b4, b6)))])
        return CurveInvariants(R, b2, b4, b6, b8, c4, c6, delta)

    def is_smooth(self):
        return self.ring.is_unit(self.invariants().delta)

    def classification(self):
        R = self.ring
        inv = self.invariants()
        if R.is_unit(inv.delta):
            return "smooth"
        if R.is_zero(inv.delta):
            if R.is_unit(inv.c4):
                return "nodal"
            if R.is_zero(inv.c4):
                return "additive"
        return "indeterminate"

    def transform(self, u, r, s, t):
        """x -> u^2 x + r, y -> u^3 y + s u^2 x + t."""
        R = self.ring
        if not R.is_unit(u):
            raise AlgebraError("u not a unit")
        ui = R.inv(u)
        ui2 = R.mul(ui, ui)
        ui3 = R.mul(ui2, ui)
        ui4 = R.mul(ui2, ui2)
        ui6 = R.mul(ui4, ui2)
        a1, a2, a3, a4, a6 = self.a_invariants()
        i = R.from_int
        na1 = R.mul(R.add(a1, R.mul(i(2), s)), ui)
        na2 = R.mul(R.sum([a2, R.neg(R.mul(s, a1)), R.mul(i(3), r),
                           R.neg(R.pow(s, 2))]), ui2)
        na3 = R.mul(R.sum([a3, R.mul(r, a1), R.mul(i(2), t)]), ui3)
        na4 = R.mul(R.sum([a4, R.neg(R.mul(s, a3)), R.mul(i(2), R.mul(r, a2)),
                           R.neg(R.mul(R.add(t, R.mul(r, s)), a1)),
                           R.mul(i(3), R.pow(r, 2)),
                           R.neg(R.mul(i(2), R.mul(s, t)))]), ui4)
        na6 = R.mul(R.sum([a6, R.mul(r, a4), R.mul(R.pow(r, 2), a2),
                           R.pow(r, 3), R.neg(R.mul(t, a3)),
                           R.neg(R.pow(t, 2)),
                           R.neg(R.mul(r, R.mul(t, a1)))]), ui6)
        out = WeierstrassCurve(R, na1, na2, na3, na4, na6)
        old, new = self.invariants(), out.invariants()
        ui12 = R.mul(ui6, ui6)
        for mine, theirs, power in ((old.c4, new.c4, ui4),
                                    (old.c6, new.c6, ui6),
                                    (old.delta, new.delta, ui12)):
            if not R.eq(theirs, R.mul(mine, power)):
                raise InternalCheckError("transform scaling law violated")
        return out

    def to_json(self):
        cj = self.ring.coeff_to_json
        return {"ring": self.ring.to_json(),
                "a": [cj(a) for a in self.a_invariants()]}

    @classmethod
    def from_json(cls, obj):
        ring = ring_from_json(obj["ring"])
        a = obj.get("a")
        if not isinstance(a, list) or len(a) != 5:
            raise AlgebraError("curve JSON needs a 5-element \"a\" list")
        return cls(ring, *[ring.coeff_from_json(c) for c in a])

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve) and
                self.ring == other.ring and
                all(self.ring.eq(a, b) for a, b in
                    zip(self.a_invariants(), other.a_invariants())))

    def __repr__(self):
        cs = self.ring.coeff_str
        return "WeierstrassCurve(%s; a=[%s])" % (
            self.ring, ", ".join(cs(a) for a in self.a_invariants()))


# ---------------------------------------------------------------------------
# Formal group of a curve


def formal_group(curve, N):
    """The group law in z = -x/y (Silverman, AEC IV.1): w = -1/y = z^3 u
    from the series solver _solve_implicit on the curve equation
    H(z, w) = z^3 + a1 z w + a2 z^2 w + a3 w^2 + a4 z w^2 + a6 w^3 - w = 0,
    whose h_01 = -1 is a unit in every ring; x = z^-2/u and y = -z^-3/u
    from one inverse of u; and F(z1, z2) by the chord construction with its
    slope in closed form, then certified.  Every division is by a unit
    (h_01, u, A, den), so Z/4, Z/12 and the singular cubics of
    characteristic 2 get their law too.
    eta is the law's own invariant differential, checked by the identity
    eta (2y + a1 x + a3) = dx times z^3, which clears y's pole.  The slack
    Nw = N + 3 is that pole's order: x needs two degrees past N and F at
    most two.  The law is always certified: FormalGroupLaw.validate checks
    the unit, commutativity and associativity axioms below N, associativity
    in characteristic 0 by the law's logarithm.

    Over Q and its localizations the work runs on an integral model
    (Silverman, AEC III.1 and VII.1).  For u the lcm of the a-invariants'
    denominators, E' with a_i' = u^i a_i is over Z and isomorphic to E by
    x = u^-2 x', y = u^-3 y', so z = u z'.  Its x, y, law and eta come from
    the same construction over Z, and rescale term by term: the z^k term
    of x by u^(-2-k), of y by u^(-3-k) and of eta by u^-k, and the
    z1^a z2^b term of F by u^(1-a-b).  That is conjugation of F' by the
    unit scalar t -> u t, so F is certified with F' and the axioms are not
    checked again over Q.  A term of low degree keeps its own size instead
    of one common denominator near u^(N-1), and for u = 1 the work runs in
    ints and maps to the ring once.
    Returns {fgl, x_series, y_series, eta}."""
    if N < 3:
        raise AlgebraError("precision must be at least 3")
    if N > CURVE_PRECISION_CAP:
        raise AlgebraError("precision %d exceeds the desk-scale cap %d"
                           % (N, CURVE_PRECISION_CAP))
    R = curve.ring
    if not isinstance(R, Rationals):
        return _formal_group(curve, N)
    a = curve.a_invariants()
    u = math.lcm(*(c.denominator for c in a))
    model = WeierstrassCurve(ZZ, *(c.numerator * (u ** i // c.denominator)
                                   for c, i in zip(a, (1, 2, 3, 4, 6))))
    data = _formal_group(model, N)

    def rescaled(s, shift):
        return Series(R, s.vars, s.precision,
                      {(k,): R.from_cleared(c, u ** (k + shift))
                       for (k,), c in s.terms.items()})
    return {"fgl": data["fgl"].conjugate(u, R),
            "x_series": rescaled(data["x_series"], 2),
            "y_series": rescaled(data["y_series"], 3),
            "eta": rescaled(data["eta"], 0)}


def _formal_group(curve, N):
    """formal_group's construction over the curve's own ring, at a
    precision N that formal_group has checked."""
    R = curve.ring
    a1, a2, a3, a4, a6 = curve.a_invariants()
    Nw = N + 3
    one = Series.one(R, ("z",), Nw)
    z = Series.gen(R, ("z",), Nw, "z")
    zp = {k: z ** k for k in (1, 2, 3)}

    # three degrees of w past Nw give u = w/z^3 below Nw
    H = {e: c for e, c in (((3, 0), R.one), ((1, 1), a1), ((2, 1), a2),
                           ((0, 2), a3), ((1, 2), a4), ((0, 3), a6))
         if not R.is_zero(c)}
    H[0, 1] = R.neg(R.one)
    W = _solve_implicit(R, H, Nw + 3)
    u = Series(R, ("z",), Nw,
               {(k - 3,): c for (k,), c in W.items() if k >= 3})
    # w = z^3 u, at the precision of z^3
    w = Series(R, ("z",), zp[3].precision, W)
    rhs = zp[3] + (zp[1] * w).scale(a1) + (zp[2] * w).scale(a2) \
        + (w * w).scale(a3) + (zp[1] * w * w).scale(a4) + (w ** 3).scale(a6)
    if rhs != w:
        raise InternalCheckError("w does not satisfy the curve equation")

    ui = u.inverse_unit()
    x = ui.shift(-2)
    y = (-ui).shift(-3)

    pair = ("z1", "z2")
    Z1 = Series.gen(R, pair, Nw, "z1")
    Z2 = Series.gen(R, pair, Nw, "z2")
    w1 = w.rename(pair, [0])
    # (z2^k - z1^k)/(z2 - z1) = sum_{i+j=k-1} z1^i z2^j for each c z^k of w
    lam = Series(R, pair, Nw - 1, {(i, k - 1 - i): c
                                   for (k,), c in w.terms.items()
                                   for i in range(k)})
    nu = w1 - lam * Z1
    lam2 = lam * lam
    lamnu = lam * nu
    i = R.from_int
    A = Series.one(R, pair, lam.precision) + lam.scale(a2) \
        + lam2.scale(a4) + (lam2 * lam).scale(a6)
    B = lam.scale(a1) + nu.scale(a2) + lam2.scale(a3) \
        + lamnu.scale(R.mul(i(2), a4)) + (lam * lamnu).scale(R.mul(i(3), a6))
    z3 = -B.divide_exact(A) - Z1 - Z2

    den = -one + z.scale(a1) + w.scale(a3)
    iota = z.divide_exact(den)
    F = iota.compose(z3)
    if F.precision < N:
        raise InternalCheckError("the chord construction lost precision: "
                                 "%d < %d" % (F.precision, N))
    law = FormalGroupLaw.validate(F.truncate(N))

    eta = law.invariant_differential().rename(("z",), [0])
    den2 = y.scale(i(2)) + x.scale(a1) + \
        Series.constant(R, ("z",), x.precision, a3)
    if not (eta * den2.shift(3)).agrees_with(x.derivative().shift(3)):
        raise InternalCheckError(
            "dx/(2y + a1 x + a3) disagrees with the group-law differential")
    return {"fgl": law, "x_series": x.truncate(N), "y_series": y.truncate(N),
            "eta": eta}


# ---------------------------------------------------------------------------
# Division polynomials and exact height


def division_poly_f(curve, n):
    """The x-part f_n of the n-th division polynomial: psi_n = f_n for odd n
    and psi_n = psi_2 * f_n for even n."""
    R = curve.ring
    a1, a2, a3, a4, a6 = curve.a_invariants()
    inv = curve.invariants()
    b2, b4, b6, b8 = inv.b2, inv.b4, inv.b6, inv.b8
    i = R.from_int

    def P(*coeffs_low_to_high):
        return Poly(R, list(coeffs_low_to_high))

    B = P(b6, R.mul(i(2), b4), b2, i(4))      # psi_2^2 as a poly in x
    B2 = B * B
    memo = {
        0: Poly.constant(R, R.zero),
        1: Poly.constant(R, R.one),
        2: Poly.constant(R, R.one),
        3: P(b8, R.mul(i(3), b6), R.mul(i(3), b4), b2, i(3)),
        4: P(R.sub(R.mul(b4, b8), R.pow(b6, 2)),
             R.sub(R.mul(b2, b8), R.mul(b4, b6)),
             R.mul(i(10), b8), R.mul(i(10), b6), R.mul(i(5), b4), b2, i(2)),
    }

    def f(k):
        if k in memo:
            return memo[k]
        m = k // 2
        if k % 2 == 1:
            lead = f(m + 2) * f(m) ** 3
            tail = f(m - 1) * f(m + 1) ** 3
            out = (B2 * lead) - tail if m % 2 == 0 else lead - (B2 * tail)
        else:
            out = f(m) * (f(m + 2) * f(m - 1) ** 2 - f(m - 2) * f(m + 1) ** 2)
        memo[k] = out
        return out

    return f(n)


def exact_height(curve):
    """1 or 2 for a smooth curve over a ring of prime characteristic, read
    from the degree drop of the p-division polynomial."""
    R = curve.ring
    p = R.characteristic()
    if p == 0 or not is_prime(p):
        raise AlgebraError("height needs prime characteristic")
    if not curve.is_smooth():
        raise AlgebraError("height requires a smooth curve")
    if p == 2:
        return 1 if not R.is_zero(curve.a1) else 2
    fp = division_poly_f(curve, p)
    d = fp.degree()
    if d < 0:
        raise InternalCheckError("p-division polynomial vanished mod p")
    k = p * p - 2 * d
    if k == p:
        return 1
    if k == p * p:
        return 2
    raise InternalCheckError(
        "unexpected division polynomial degree %d at p=%d" % (d, p))


# ---------------------------------------------------------------------------
# Short form and the Deuring coefficient


def short_form(curve):
    """Transform to y^2 = x^3 + A x + B (needs 6 invertible); returns
    (new_curve, A, B) with A = -c4/48, B = -c6/864."""
    R = curve.ring
    if not R.is_unit(R.from_int(6)):
        raise AlgebraError("short form needs 2 and 3 invertible")
    half = R.inv(R.from_int(2))
    third = R.inv(R.from_int(3))
    s = R.neg(R.mul(curve.a1, half))
    t = R.neg(R.mul(curve.a3, half))
    c1 = curve.transform(R.one, R.zero, s, t)
    r = R.neg(R.mul(c1.a2, third))
    c2 = c1.transform(R.one, r, R.zero, R.zero)
    for gone in (c2.a1, c2.a2, c2.a3):
        if not R.is_zero(gone):
            raise InternalCheckError("short form transform left a term")
    inv = curve.invariants()
    A, Bc = c2.a4, c2.a6
    if not R.eq(inv.c4, R.mul(R.from_int(-48), A)) or \
            not R.eq(inv.c6, R.mul(R.from_int(-864), Bc)):
        raise InternalCheckError("short form has wrong c4/c6")
    return c2, A, Bc


def deuring_coefficient(curve):
    """The coefficient of x^(p-1) in (x^3 + A x + B)^m, m = (p-1)/2; it
    vanishes exactly for the supersingular curves.  Needs p >= 5.

    Closed form (Silverman, AEC V.4.1): a term x^(3i) (A x)^j B^k of the
    power has i + j + k = m and 3i + j = 2m, so the coefficient is the sum
    over i of m!/(i! j! k!) A^j B^k with j = 2m - 3i and k = 2i - m.  As
    m < p the factorials are units mod p; O(p) ring operations."""
    R = curve.ring
    p = R.characteristic()
    if p < 5 or not is_prime(p):
        raise AlgebraError("Deuring coefficient needs characteristic >= 5")
    _, A, B = short_form(curve)
    m = (p - 1) // 2
    fact = list(accumulate(range(1, m + 1), lambda f, n: f * n % p,
                           initial=1))
    lo, hi = (m + 1) // 2, 2 * m // 3      # the i with j >= 0 and k >= 0
    a_pow = list(accumulate(repeat(A, 2 * m - 3 * lo), R.mul, initial=R.one))
    b_pow = list(accumulate(repeat(B, 2 * hi - m), R.mul, initial=R.one))
    total = R.zero
    for i in range(lo, hi + 1):
        j, k = 2 * m - 3 * i, 2 * i - m
        c = fact[m] * pow(fact[i] * fact[j] * fact[k], -1, p) % p
        total = R.add(total, R.mul(R.from_int(c), R.mul(a_pow[j], b_pow[k])))
    return total


def hasse_invariant(curve):
    """{v1, ordinary} for a smooth curve over a field of characteristic p:
    v1 is the t^p coefficient of the p-series of the z-coordinate formal
    group (precision p+2, its law certified associative); for large p the
    Deuring coefficient stands in.  The two are equal: with
    omega = dx/(2y + a1 x + a3), the t^p coefficient of [p](t) is the Hasse
    invariant of (E, omega), and the short form (u = 1) keeps omega.
    Cross-checked against the division-polynomial height, and against
    Deuring, by value, for 5 <= p <= 13."""
    R = curve.ring
    p = R.characteristic()
    if p == 0 or not is_prime(p):
        raise AlgebraError("Hasse invariant needs prime characteristic")
    if not curve.is_smooth():
        raise AlgebraError("Hasse invariant requires smooth curve")
    if p <= HASSE_FGL_CAP:
        law = formal_group(curve, p + 2)["fgl"]
        hp = height_profile(law, 1)
        v1 = hp.v_values[0] if hp.v_values else R.zero
        if 5 <= p:
            deu = deuring_coefficient(curve)
            if not R.eq(deu, v1):
                raise InternalCheckError("Deuring cross-check failed")
    else:
        v1 = deuring_coefficient(curve)
    ordinary = not R.is_zero(v1)
    if p <= HASSE_FGL_CAP:
        # division polynomials are cheap here; past the cap their degree
        # (p^2-1)/2 makes this cross-check the dominant cost
        if exact_height(curve) != (1 if ordinary else 2):
            raise InternalCheckError("height and Hasse invariant disagree")
    return {"v1": v1, "ordinary": ordinary}


# ---------------------------------------------------------------------------
# Curves with prescribed j-invariant, and the supersingular polynomial


def curve_from_j(ring, j):
    """A smooth curve over the given field-like ring with the given
    j-invariant; special models at j = 0, 1728 and in characteristics 2, 3."""
    R = ring
    p = R.characteristic()
    if p == 2:
        if R.is_zero(j):
            E = WeierstrassCurve.from_ints(R, 0, 0, 1, 0, 0)
        else:
            E = WeierstrassCurve(R, R.one, R.zero, R.zero, R.zero, R.inv(j))
    elif p == 3:
        if R.is_zero(j):
            E = WeierstrassCurve.from_ints(R, 0, 0, 0, 1, 0)
        else:
            E = WeierstrassCurve(R, R.zero, R.one, R.zero, R.zero,
                                 R.neg(R.inv(j)))
    else:
        c1728 = R.from_int(1728)
        if R.is_zero(j):
            E = WeierstrassCurve.from_ints(R, 0, 0, 0, 0, 1)
        elif R.eq(j, c1728):
            E = WeierstrassCurve.from_ints(R, 0, 0, 0, 1, 0)
        else:
            k = R.inv(R.sub(j, c1728))
            E = WeierstrassCurve(R, R.one, R.zero, R.zero,
                                 R.mul(R.from_int(-36), k), R.neg(k))
    inv = E.invariants()
    if not R.is_unit(inv.delta):
        raise InternalCheckError("curve-from-j produced a singular curve")
    kind, val = inv.j_class()
    if kind != "value" or not R.eq(val, j):
        raise InternalCheckError("curve-from-j: j mismatch")
    return E


def classify_j(p, j):
    """Ordinary/supersingular for j in F_{p^2} (int for prime-field values,
    (a0, a1) pair otherwise) or the string "infinity"."""
    if not is_prime(p):
        raise AlgebraError("not prime: %d" % p)
    if j == "infinity":
        witness = WeierstrassCurve.from_ints(PrimeField(p), 1, 0, 0, 0, 0)
        if witness.classification() != "nodal":
            raise InternalCheckError("nodal witness is not nodal")
        return {"class": "ordinary", "witness_curve": witness}
    if isinstance(j, tuple):
        if len(j) != 2:
            raise AlgebraError("j must be an int, an (a0, a1) pair, "
                               "or \"infinity\"")
        if j[1] % p == 0:
            F = PrimeField(p)
            jj = F.from_int(j[0])
        else:
            F = QuadExtField(p)
            jj = (j[0] % p, j[1] % p)
    elif isinstance(j, int):
        F = PrimeField(p)
        jj = F.from_int(j)
    else:
        raise AlgebraError("j must be an int, an (a0, a1) pair, "
                           "or \"infinity\"")
    witness = curve_from_j(F, jj)
    rep = hasse_invariant(witness)
    cls = "ordinary" if rep["ordinary"] else "supersingular"
    return {"class": cls, "witness_curve": witness}


def _legendre_hasse_roots(p, field):
    """All lambda in F_{p^2} with H(lambda) = 0, where H is the Hasse
    polynomial sum C(m,i)^2 lambda^i of the y^2 = x(x-1)(x-lambda) family,
    m = (p-1)/2.  Raw enumeration of the quadratic extension."""
    m = (p - 1) // 2
    h = [(math.comb(m, i) ** 2) % p for i in range(m + 1)]
    hr = h[::-1]
    b, c = field.b, field.c
    roots = []
    for lb in range(p):
        for la in range(p):
            if lb == 0 and la in (0, 1):
                continue
            r0 = r1 = 0
            for coeff in hr:
                s0 = (r0 * la - c * r1 * lb) % p
                r1 = (r0 * lb + r1 * la - b * r1 * lb) % p
                r0 = (s0 + coeff) % p
            if r0 == 0 and r1 == 0:
                roots.append((la, lb))
    if len(roots) != m:
        raise InternalCheckError(
            "Hasse polynomial found %d roots in F_%d^2, expected %d"
            % (len(roots), p, m))
    return roots


class SupersingularReport:
    def __init__(self, p, j_values, field, phi, degree, epsilon):
        self.p = p
        self.j_values = j_values      # payloads in field, enumeration order
        self.field = field
        self.phi = phi                # Poly over PrimeField(p)
        self.degree = degree
        self.epsilon = epsilon

    def to_json(self):
        return {"p": self.p,
                "supersingular_j": [list(j) for j in self.j_values],
                "Phi": [int(c) for c in self.phi.coeffs],
                "degree": self.degree,
                "epsilon": self.epsilon}

    def __repr__(self):
        return "SupersingularReport(p=%d, Phi=%s)" % (
            self.p, self.phi.to_string("j"))


def supersingular_polynomial(p):
    """Phi_p(j) over F_p: collect the supersingular j-invariants in F_{p^2}
    from the Legendre-family Hasse polynomial, verify each root with an
    independent witness-curve classification, and multiply out the distinct
    minimal polynomials."""
    if not is_prime(p):
        raise AlgebraError("not prime: %d" % p)
    if p > SS_PRIME_CAP:
        raise AlgebraError("p = %d exceeds the desk-scale cap %d"
                           % (p, SS_PRIME_CAP))
    F = QuadExtField(p)
    Fp = PrimeField(p)
    if p in (2, 3):
        js = [(0, 0)]
    else:
        seen = set()
        one = F.one
        c256 = F.from_int(256)
        for lam in _legendre_hasse_roots(p, F):
            lam2 = F.mul(lam, lam)
            num = F.add(F.sub(lam2, lam), one)
            den = F.mul(lam2, F.pow(F.sub(lam, one), 2))
            j = F.divide(F.mul(c256, F.pow(num, 3)), den)
            seen.add(j)
        js = sorted(seen, key=lambda t: (t[1], t[0]))

    # every claimed root re-checked through an independent family
    for j in js:
        arg = j[0] if j[1] == 0 else j
        if classify_j(p, arg)["class"] != "supersingular":
            raise InternalCheckError("claimed root %r is not supersingular"
                                     % (j,))

    phi2 = Poly.constant(F, F.one)
    for j in js:
        phi2 = phi2 * Poly(F, [F.neg(j), F.one])
    coeffs = []
    for c in phi2.coeffs:
        if not F.in_prime_field(c):
            raise InternalCheckError("Phi has a coefficient outside F_p")
        coeffs.append(c[0])
    phi = Poly(Fp, coeffs)

    if phi.degree() != len(js):
        raise InternalCheckError("Phi degree mismatch")
    if not Fp.eq(phi.leading(), Fp.one):
        raise InternalCheckError("Phi is not monic")
    g = poly_gcd(phi, phi.derivative())
    if g.degree() != 0:
        raise InternalCheckError("Phi is not separable")
    root_set = set(js)
    for j in js:
        if F.frobenius(j) not in root_set:
            raise InternalCheckError("root set not Frobenius stable")
    # product of minimal polynomials of orbit representatives, no repetition
    done = set()
    prod = Poly.constant(Fp, Fp.one)
    for j in js:
        if j in done:
            continue
        done.add(j)
        done.add(F.frobenius(j))
        prod = prod * minimal_polynomial(F, j)
    if prod.coeffs != phi.coeffs:
        raise InternalCheckError("Phi is not the product of the minimal "
                                 "polynomials of its roots")
    base = (p - 1) // 12
    eps = phi.degree() - base
    if eps not in (0, 1, 2):
        raise InternalCheckError("degree law violated: deg=%d, floor=%d"
                                 % (phi.degree(), base))
    return SupersingularReport(p, js, F, phi, phi.degree(), eps)
