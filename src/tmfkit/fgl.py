"""Formal group laws over exact rings: validation, n-series, invariant
differential, logarithm, homomorphism checks, height/v_n extraction, the
height-n laws built from explicit logarithms, and the regular-sequence
(Landweber) check on graded presentations."""

import math
from collections import Counter
from fractions import Fraction

from .algebra import (AlgebraError, NotDivisible, InternalCheckError,
                      ZZ, QQ, PrimeField, IntegersMod, is_prime,
                      power, smith_normal_form, integer_kernel,
                      in_column_span, monomial_str)
from .series import Series, _solve_implicit


# desk-scale cap on p^n, the precision a law needs to show v_n: on p^n_max
# for a Landweber check, and on a Honda law's own p^n.  A Honda law of small
# p^n built for a check of large p^n_max pays for the check's precision:
# at precision 130, honda_fgl takes 1.7-2.2 s on Honda (2, 1) and 0.8-0.9 s
# on Honda (3, 1), and a landweber check of Honda (2, 1) for n_max 7 at
# p = 2 takes 2.0-2.5 s (Python 3.11, 2 CPUs)
LAW_PRECISION_CAP = 128

# desk-scale cap on the steps that _honda_work estimates for building a Honda
# law.  The heaviest law it allows for each p^n <= 128 (precision 156 for
# Honda (2, 1), 202 for (3, 1), 733 for (127, 1)) takes 0.8-2.3 s (Python
# 3.11, 2 CPUs); every law the CLI builds, at precision 130 or less, is
# inside it
HONDA_WORK_CAP = 6 * 10 ** 8

# desk-scale caps on a Landweber check: its degree bound, and the steps that
# _landweber_work estimates for it.  At the work cap the slowest
# presentations tried (free generators, one generator under hundreds of
# relations, hundreds of constant relations) take 1-2 s, within a budget of
# 5 s a call (Python 3.11, 2 CPUs)
LANDWEBER_DEGREE_CAP = 1000
LANDWEBER_WORK_CAP = 4 * 10 ** 7


class FGLInvalid(AlgebraError):
    pass


def law_precision(p, n):
    """p^n, the precision past which a law shows v_n over F_p; an input
    error past LAW_PRECISION_CAP, or for n < 0.  p >= 2, so n >= 8 is past
    the cap, and the power is not formed for it."""
    if n < 0:
        raise AlgebraError("height %d is negative" % n)
    if n >= LAW_PRECISION_CAP.bit_length() or p ** n > LAW_PRECISION_CAP:
        raise AlgebraError("p^n = %d^%d exceeds the desk-scale cap %d"
                           % (p, n, LAW_PRECISION_CAP))
    return p ** n


def _honda_work(q, N):
    """Estimated steps to build the Honda law of p^n = q at precision N:
    about N^3 to revert the logarithm, and N^4 / (q - 1)^1.5 to form
    e(l(x) + l(y)), for the exponential has terms only in the degrees
    = 1 mod q - 1."""
    return int(N ** 3 * (1 + N / (q - 1) ** 1.5))


def _first_monomial(series):
    if series.is_zero():
        return None
    return series.sorted_terms()[0][0]


def _check_unit_commutative(F):
    """F(x, 0) = x, F(0, y) = y and F(x, y) = F(y, x) to F's precision;
    raises FGLInvalid naming the first offending monomial."""
    if len(F.vars) != 2:
        raise AlgebraError("a formal group law needs exactly 2 variables")
    R = F.ring
    for axis, unit in ((1, (1, 0)), (0, (0, 1))):
        bad = {e: c for e, c in F.terms.items() if e[axis] == 0}
        if bad != {unit: R.one}:
            bad.pop(unit, None)
            if not bad:
                bad = {unit: R.zero}
            first = min(bad, key=lambda t: (sum(t), t))
            raise FGLInvalid("unit axiom fails at %s" %
                             monomial_str(F.vars, first))

    # payloads compare by value and the constructor drops zeros, so F is
    # commutative exactly when its terms equal their swap
    if {(b, a): c for (a, b), c in F.terms.items()} != F.terms:
        bad = [(a, b) for (a, b), c in F.terms.items()
               if not R.eq(F.coeff((b, a)), c)]
        first = min(bad, key=lambda t: (sum(t), t))
        raise FGLInvalid("commutativity fails at %s" %
                         monomial_str(F.vars, first))


def _check_associative(F):
    """F(F(x, y), z) = F(x, F(y, z)) to the precision of a commutative F;
    raises FGLInvalid naming the first offending monomial."""
    # with F commutative, F(x, F(y, z)) = F(F(y, z), x) = G(y, z, x)
    # for G = F(F(x, y), z): one substitution and a cyclic renaming
    vx, vy = F.vars
    tri = (vx, vy, "_z")
    G = F.subst([F.rename(tri), Series.gen(F.ring, tri, F.precision, "_z")])
    diff = G - G.rename(tri, [1, 2, 0])
    if not diff.is_zero():
        raise FGLInvalid("associativity fails at %s" %
                         monomial_str(tri, _first_monomial(diff)))


def _differential(F):
    """1/F_y(x, 0), in the variable t.  F_y(x, 0) is read off the terms
    c x^a y of F, and is known below F's precision minus one."""
    R = F.ring
    fy0 = Series(R, ("t",), F.precision - 1,
                 {(e[0],): c for e, c in F.terms.items() if e[1] == 1})
    if not R.eq(fy0.constant_term(), R.one):
        raise InternalCheckError("F_y(x,0) should have constant term 1")
    return fy0.inverse_unit()


def _linearizing_log(F):
    """(l, ok) for a law F over a ring in which every k below F's precision
    is invertible: l(t) = the integral of dt / F_y(t, 0), and whether
    l(F) = l(x) + l(y) below F's precision.  logarithm() and validate's
    certificate share it; it does not go through invariant_differential."""
    log = _differential(F).integrate()
    lhs = log.compose(F)
    rhs = log.rename(F.vars, [0]) + log.rename(F.vars, [1])
    return log, lhs == rhs


class FormalGroupLaw:
    """A certified 2-variable law F(x,y).  Use validate() to construct; a
    law over Z, Q, Z_(p) or Z[1/m] is certified associative by its
    logarithm, one in positive characteristic by the three-variable check.
    A law keeps no memo: every method computes its result from F alone."""

    def __init__(self, F, _certified=False):
        if not _certified:
            raise AlgebraError("construct formal group laws via validate()")
        self.F = F
        self.ring = F.ring
        self.precision = F.precision
        self.vars = F.vars

    # -- construction -------------------------------------------------------

    @staticmethod
    def validate(F, check_associativity=True):
        """Check unit, commutativity, and associativity axioms to the series
        precision N; raises FGLInvalid naming the first offending monomial.
        check_associativity=False skips the associativity check, for a
        caller whose construction guarantees it, such as e(l(x) + l(y)) for
        a logarithm l; no tmfkit module passes it.

        Over a ring of characteristic 0 with the to_cleared hook (Z, Q,
        Z_(p), Z[1/m]: the rings that embed in Q), a law with at least N
        terms is certified by its logarithm l = the integral of
        dt / F_y(t, 0), formed over Q: l(F) = l(x) + l(y) below N.  That
        suffices, for l = t + ... is invertible, so
        l(F(F(x, y), z)) = l(x) + l(y) + l(z) = l(F(x, F(y, z))) below N,
        and F is associative below N over Q and so over the ring.  It is
        also necessary: the z-derivative of associativity at z = 0 gives
        F_y(F(x, y), 0) = F_y(x, y) F_y(y, 0), whose integral in y is
        l(F) = l(x) + l(y).  So when the logarithm fails, the
        three-variable check fails too, and names the first monomial
        where F(F(x, y), z) and F(x, F(y, z)) differ.  The logarithm is
        dense below N whatever F is, so a law with fewer terms than N,
        such as x + y + xy declared at a high precision, keeps the
        three-variable check, which is cheap on it; so does a law over any
        other ring."""
        _check_unit_commutative(F)
        R = F.ring
        if check_associativity:
            if R.characteristic() or not R.to_cleared or \
                    len(F.terms) < F.precision:
                _check_associative(F)
            elif not _linearizing_log(F if R == QQ
                                      else F.map_coeffs(Fraction, QQ))[1]:
                _check_associative(F)
                raise InternalCheckError("the logarithm fails to linearize "
                                         "an associative law")
        return FormalGroupLaw(F, _certified=True)

    @staticmethod
    def additive(ring, precision):
        """x + y over ring, in the variables x, y."""
        F = Series(ring, ("x", "y"), precision,
                   {(1, 0): ring.one, (0, 1): ring.one})
        return FormalGroupLaw.validate(F)

    @staticmethod
    def multiplicative(ring, precision):
        """x + y + xy over ring, in the variables x, y."""
        F = Series(ring, ("x", "y"), precision,
                   {(1, 0): ring.one, (0, 1): ring.one, (1, 1): ring.one})
        return FormalGroupLaw.validate(F)

    def conjugate(self, u, ring):
        """u F(x/u, y/u) over ring, for a law over Z and an int u that is a
        unit of ring, a ring with the from_cleared hook: the term
        c x^a y^b becomes c / u^(a + b - 1).  Conjugation by the unit scalar
        t -> u t carries every axiom, so the result is certified with F."""
        G = Series(ring, self.vars, self.precision,
                   {e: ring.from_cleared(c, u ** (sum(e) - 1))
                    for e, c in self.F.terms.items()})
        return FormalGroupLaw(G, _certified=True)

    # -- basic structure ----------------------------------------------------

    def add(self, u, v):
        """u +_F v for single-variable series u, v."""
        return self.F.subst([u, v])

    def formal_inverse(self):
        """i(t) with F(t, i(t)) = 0: _solve_implicit with H = F, whose
        linear coefficient in y is 1 (F(x, y) = x + y + higher terms).  The
        closing check is F(t, i) = 0 at the full precision."""
        R = self.ring
        n = self.precision
        t = Series.gen(R, ("t",), n, "t")
        inv = Series(R, ("t",), n, _solve_implicit(R, self.F.terms, n))
        if not self.F.subst([t, inv]).is_zero():
            raise InternalCheckError("formal inverse failed to close")
        return inv

    def n_series(self, m):
        """[m](t) by square and multiply on the law's sum F(u, v): O(log |m|)
        substitutions, at most 2 bit_length(|m|).  Negative m composes [-m]
        with the formal inverse.  The grouping relies on F being associative
        below its precision, which a FormalGroupLaw certifies (for a law
        validated with check_associativity=False, its caller's construction
        vouches for it)."""
        if m < 0:
            return self.n_series(-m).compose(self.formal_inverse())
        R = self.ring
        n = self.precision
        if m == 0:
            return Series.zero(R, ("t",), n)
        t = Series.gen(R, ("t",), n, "t")
        return power(t, m - 1, t, self.add)

    def invariant_differential(self):
        """The coefficient series of the canonical invariant differential,
        1/F_y(x, 0); constant term is always 1.  F_y(x, 0) is read off the
        terms c x^a y of F, and is known below F's precision minus one."""
        return _differential(self.F)

    def logarithm(self):
        """l(t) with l'(t) the invariant differential and l(0) = 0; only over
        rings in which every k < N is invertible (checked by exact
        divisibility by each prime below N, whose products are those k)."""
        R = self.ring
        for p in filter(is_prime, range(2, self.precision)):
            try:
                R.divide(R.one, R.from_int(p))
            except (NotDivisible, AlgebraError):
                raise AlgebraError("logarithm requires rational coefficients")
        log, ok = _linearizing_log(self.F)
        # postcondition: the logarithm linearizes the law
        if not ok:
            raise InternalCheckError("logarithm failed to linearize the law")
        return log

    def __repr__(self):
        return "FormalGroupLaw(%s ; N=%d)" % (self.F, self.precision)


def check_homomorphism(phi, F, G):
    """Is phi: F -> G a homomorphism?  Returns a report with is_hom, is_iso,
    the differential scalar phi'(0), and the invariant-differential pullback
    identity eta_G(phi) * phi' = phi'(0) * eta_F."""
    if phi.ring != F.ring or F.ring != G.ring:
        raise AlgebraError("mismatched rings")
    if len(phi.vars) != 1:
        raise AlgebraError("phi must be a single-variable series")
    if not phi.is_zero() and phi.valuation() < 1:
        raise AlgebraError("phi needs positive valuation")
    R = phi.ring
    n = min(phi.precision, F.precision, G.precision)
    phix = phi.rename(F.vars, [0]).truncate(n)
    phiy = phi.rename(F.vars, [1]).truncate(n)
    lhs = phi.compose(F.F)
    rhs = G.F.subst([phix, phiy])
    is_hom = lhs.agrees_with(rhs, upto=n)
    scalar = phi.coeff((1,))
    is_iso = is_hom and R.is_unit(scalar)
    eta_F = F.invariant_differential()
    eta_G = G.invariant_differential()
    pullback = eta_G.compose(phi) * phi.derivative()
    inv2 = pullback.agrees_with(eta_F.scale(scalar), upto=n - 1)
    return {
        "is_hom": is_hom,
        "is_iso": is_iso,
        "differential_scalar": scalar,
        "inv2_holds": inv2,
    }


class HeightProfile:
    def __init__(self, p, height, v_values, p_series, bound):
        self.p = p
        self.height = height   # int, or "at least B", or "infinite within bound"
        self.v_values = v_values
        self.p_series = p_series
        self.bound = bound

    def v(self, i):
        return self.v_values[i - 1]

    def __repr__(self):
        return "HeightProfile(p=%d, height=%r)" % (self.p, self.height)


def height_profile(fgl, bound):
    """Height of a law over a ring of prime characteristic p: the first
    nonzero degree of the p-series must be p^h; v_h is its coefficient."""
    R = fgl.ring
    p = R.characteristic()
    if p == 0 or not is_prime(p):
        raise AlgebraError("height needs a base ring of prime characteristic")
    need = law_precision(p, bound)
    if fgl.precision <= need:
        raise AlgebraError("raise precision (need N > p^%d = %d)" %
                           (bound, need))
    ps = fgl.n_series(p)
    if ps.is_zero():
        return HeightProfile(p, "infinite within bound", [], ps, bound)
    d = ps.valuation()
    h = 0
    q = 1
    while q < d:
        q *= p
        h += 1
    if q != d:
        raise InternalCheckError(
            "not a formal group law over a field? internal inconsistency: "
            "first nonzero p-series degree %d is not a power of %d" % (d, p))
    if h > bound:
        return HeightProfile(p, "at least %d" % bound, [R.zero] * bound, ps, bound)
    v_values = [R.zero] * (h - 1) + [ps.coeff((d,))]
    return HeightProfile(p, h, v_values, ps, bound)


def honda_fgl(p, n, precision):
    """The height-n law F = e(l(x) + l(y)) over F_p built from the logarithm
    l(t) = sum t^(p^(n i)) / p^i and its reversion e.

    The law is certified by construction: e(l(t)) = t is checked over Q,
    and a one-sided compositional inverse of t + O(t^2) is two-sided, so
    l(e(t)) = t, l(F) = l(x) + l(y) and F is associative below the
    precision, with no three-variable check.  Its coefficients are checked
    p-integral, so reduction to F_p keeps associativity; the unit and
    commutativity axioms are checked over F_p, and the height is asserted.
    The build's estimated work is checked against HONDA_WORK_CAP first."""
    if not is_prime(p):
        raise AlgebraError("not prime: %d" % p)
    if n < 1:
        raise AlgebraError("height must be positive")
    need = law_precision(p, n)
    if precision <= need:
        raise AlgebraError("raise precision (need N > p^%d = %d)" % (n, need))
    N = precision
    work = _honda_work(need, N)
    if work > HONDA_WORK_CAP:
        raise AlgebraError("the law's estimated work at precision %d, %d "
                           "steps, exceeds the desk-scale cap %d"
                           % (N, work, HONDA_WORK_CAP))
    terms = {}
    i = 0
    while p ** (n * i) < N:
        terms[(p ** (n * i),)] = Fraction(1, p ** i)
        i += 1
    log = Series(QQ, ("t",), N, terms)
    exp = log.reverse()
    if exp.compose(log) != Series.gen(QQ, ("t",), N, "t"):
        raise InternalCheckError("the exponential fails e(l(t)) = t")
    lsum = log.rename(("x", "y"), [0]) + log.rename(("x", "y"), [1])
    F_q = exp.compose(lsum)
    Fp = PrimeField(p)
    for e, c in F_q.terms.items():
        if c.denominator % p == 0:
            raise InternalCheckError("non-p-integral coefficient at %s" % (e,))
    F_p_series = F_q.map_coeffs(
        lambda c: (c.numerator * pow(c.denominator, -1, p)) % p, Fp)
    _check_unit_commutative(F_p_series)
    law = FormalGroupLaw(F_p_series, _certified=True)
    hp = height_profile(law, n)
    if hp.height != n:
        raise InternalCheckError("constructed law has height %r, wanted %d" %
                                 (hp.height, n))
    return law


# ---------------------------------------------------------------------------
# Landweber regularity on graded presentations


class GradedRingPresentation:
    """Quotient of a polynomial ring over Z by homogeneous relations.
    Generators have positive degrees; a relation is a dict from exponent
    tuples to integer coefficients, all monomials of one degree.  The empty
    generator list presents Z (or Z/m with a degree-0 constant relation)."""

    def __init__(self, gens=(), relations=()):
        self.gens = tuple(gens)          # (name, degree) pairs
        for name, d in self.gens:
            if d < 1:
                raise AlgebraError("generator degrees must be positive")
        self.relations = []
        for rel in relations:
            for mon in rel:
                # the empty monomial is the constant term
                if mon and (len(mon) != len(self.gens) or min(mon) < 0):
                    raise AlgebraError("relation monomial %r needs one "
                                       "non-negative exponent per generator"
                                       % (mon,))
            degs = {self._mon_degree(m) for m in rel}
            if len(degs) > 1:
                raise AlgebraError("non-homogeneous relation: %r" % (rel,))
            self.relations.append(dict(rel))

    def _mon_degree(self, mon):
        return sum(e * self.gens[i][1] for i, e in enumerate(mon))

    def monomials(self, degree):
        """Exponent tuples of the given total (weighted) degree, built one
        generator at a time (no recursion, so any number of generators)."""
        partial = [((), degree)]   # (exponents so far, degree left)
        for _, d in self.gens:
            partial = [(mon + (e,), rest - e * d) for mon, rest in partial
                       for e in range(rest // d + 1)]
        return sorted(mon for mon, rest in partial if rest == 0)

    def mon_name(self, mon):
        return monomial_str([name for name, _ in self.gens], mon)

    def relation_rows(self, degree, basis):
        """Integer rows spanning the degree piece of the relation ideal."""
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for rel in self.relations:
            if not rel:
                continue
            rel_deg = self._mon_degree(next(iter(rel)))
            if rel_deg > degree:
                continue
            for shift in self.monomials(degree - rel_deg):
                row = [0] * len(basis)
                for mon, c in rel.items():
                    prod = tuple(a + b for a, b in zip(mon, shift)) if mon \
                        else shift
                    row[index[prod]] = c
                rows.append(row)
        return rows

    def with_constant_relation(self, c):
        zero_mon = (0,) * len(self.gens)
        return GradedRingPresentation(
            self.gens, self.relations + [{zero_mon: c}])

    def is_zero_ring(self):
        """Is 1 = 0?  The degree-0 piece is Z modulo the gcd of its relation
        rows, each a single constant."""
        rows = self.relation_rows(0, self.monomials(0))
        return math.gcd(*(row[0] for row in rows)) == 1


def _landweber_work(pres, degree_bound):
    """Estimated steps of the check, counted from n_d, the number of
    monomials of degree d, without listing them: d n_d = sum_k s_k n_(d-k),
    for s_k the sum of the degrees of the generators whose degree divides k.

    Only the stages of p and of v_1 scan the degrees: v_1 is zero or a unit
    mod p, so after it the check has failed in degree 0 or the quotient is
    zero.  A scan puts degree d in Smith form twice, with n_d rows and up to
    2 n_d + r_d columns for r_d relation rows, and each Smith form takes about
    (rows + 32) * columns^2 steps.  The scans list the monomials of degree at
    most d for the piece, for the stage's constant and for each relation, at
    (g + 2)^2 steps each for g generators and 64 steps a list.  The count
    stops past LANDWEBER_WORK_CAP."""
    g = len(pres.gens)
    s = [0] * (degree_bound + 1)
    for e, count in Counter(e for _, e in pres.gens).items():
        for k in range(e, degree_bound + 1, e):
            s[k] += e * count
    rel_degs = Counter(pres._mon_degree(next(iter(rel)))
                       for rel in pres.relations if rel)
    lists = 2 * (sum(rel_degs.values()) + 2)
    n = [1]
    work = listed = 0
    for d in range(degree_bound + 1):
        if d:
            n.append(sum(s[k] * n[d - k] for k in range(1, d + 1)) // d)
        listed += n[d]
        cols = 2 * n[d] + sum(c * n[d - e] for e, c in rel_degs.items()
                              if e <= d)
        work += (n[d] + 32) * cols ** 2 + lists * ((g + 2) ** 2 * listed + 64)
        if work > LANDWEBER_WORK_CAP:
            break
    return work


def _scalar_mult_injective(pres, degree, scalar):
    """Is multiplication by the integer scalar injective on the degree piece?
    Returns (ok, witness monomial combination or None)."""
    basis = pres.monomials(degree)
    nb = len(basis)
    rel = pres.relation_rows(degree, basis)
    # x is in the kernel iff scalar*x lies in the relation span; injective iff
    # every such x already lies in the span
    mat = [[scalar if i == j else 0 for j in range(nb)] +
           [-r[i] for r in rel] for i in range(nb)]
    span = smith_normal_form([[r[i] for r in rel] for i in range(nb)])
    for vec in integer_kernel(mat):
        x = vec[:nb]
        if not in_column_span(span, x):
            label = " + ".join("%d*%s" % (c, pres.mon_name(m)) if c != 1
                               else pres.mon_name(m)
                               for c, m in zip(x, basis) if c)
            return False, label
    return True, None


def landweber_regularity(pres, fgl, p, n_max, degree_bound):
    """Check p, v_1, ..., v_{n_max} act as a regular sequence on the graded
    presentation, degreewise up to degree_bound.  The law's coefficients must
    be scalars (its base ring Z, Z/m, or F_p maps to the presented ring)."""
    if not is_prime(p):
        raise AlgebraError("not prime: %d" % p)
    if degree_bound < 0:
        raise AlgebraError("degree bound must allow at least degree 0")
    if fgl.precision <= law_precision(p, n_max):
        raise AlgebraError("raise precision (need N > p^%d)" % n_max)

    base = fgl.ring
    if isinstance(base, IntegersMod):
        scalar_mod = base.m
    elif base == ZZ:
        scalar_mod = 0
    else:
        raise AlgebraError("law must have scalar coefficients (Z, Z/m, F_p)")
    if degree_bound > LANDWEBER_DEGREE_CAP:
        raise AlgebraError("degree bound %d exceeds the desk-scale cap %d"
                           % (degree_bound, LANDWEBER_DEGREE_CAP))
    work = _landweber_work(pres, degree_bound)
    if work > LANDWEBER_WORK_CAP:
        raise AlgebraError("the check's estimated work, %d steps or more, "
                           "exceeds the desk-scale cap %d"
                           % (work, LANDWEBER_WORK_CAP))

    stages = []
    current = pres
    current_mod = scalar_mod   # scalars live in Z/current_mod (0 means Z)
    verdict = "pass"
    for k in range(n_max + 1):
        if current.is_zero_ring():
            stages.append({"stage": k, "v": 0, "status": "vacuous",
                           "note": "quotient ring is zero"})
            continue
        if k == 0:
            v = p
        else:
            # past stage 0, v_1 is 0 or a unit mod p: the check fails here or
            # the quotient is zero, so [p](t) is formed once, or never
            v = fgl.n_series(p).coeff((p ** k,))
            if current_mod:
                v %= current_mod
        ok = True
        fail_deg = None
        witness = None
        for d in range(degree_bound + 1):
            good, w = _scalar_mult_injective(current, d, v)
            if not good:
                ok = False
                fail_deg = d
                witness = w
                break
        stage = {"stage": k, "v": v,
                 "status": "injective" if ok else "fail"}
        if not ok:
            stage["first_failing_degree"] = fail_deg
            stage["kernel_witness"] = witness
            verdict = "fail at stage %d" % k
            stages.append(stage)
            break
        stages.append(stage)
        current = current.with_constant_relation(v)
        current_mod = abs(v) if current_mod == 0 else math.gcd(current_mod, v)
    return {"p": p, "stages": stages, "verdict": verdict}
