"""Formal group laws over exact rings: validation, n-series, invariant
differential, logarithm, homomorphism checks, height/v_n extraction, the
height-n laws built from explicit logarithms, and the regular-sequence
(Landweber) check on graded presentations."""

import math
from fractions import Fraction

from .algebra import (AlgebraError, NotDivisible, InternalCheckError,
                      ZZ, QQ, PrimeField, IntegersMod, is_prime,
                      smith_normal_form, integer_kernel, in_column_span,
                      abelian_group_structure)
from .series import Series, _solve_by_degree


# desk-scale cap on p^n, the precision a law needs to show v_n: Honda laws
# take about 2 s at p^n = 127 and 14 s at 251
LAW_PRECISION_CAP = 128


class FGLInvalid(AlgebraError):
    pass


def law_precision(p, n):
    """p^n, the precision past which a law shows v_n over F_p; an input
    error past LAW_PRECISION_CAP.  p >= 2, so n >= 8 is past the cap, and
    the power is not formed for it."""
    if n >= LAW_PRECISION_CAP.bit_length() or p ** n > LAW_PRECISION_CAP:
        raise AlgebraError("p^n = %d^%d exceeds the desk-scale cap %d"
                           % (p, n, LAW_PRECISION_CAP))
    return p ** n


def _first_monomial(series):
    if series.is_zero():
        return None
    return series.sorted_terms()[0][0]


def _mon_str(vars, exp):
    parts = [v if k == 1 else "%s^%d" % (v, k)
             for v, k in zip(vars, exp) if k]
    return "*".join(parts) if parts else "1"


class FormalGroupLaw:
    """A certified 2-variable law F(x,y).  Use validate() to construct."""

    def __init__(self, F, _certified=False):
        if not _certified:
            raise AlgebraError("construct formal group laws via validate()")
        self.F = F
        self.ring = F.ring
        self.precision = F.precision
        self.vars = F.vars
        self._nseries = {}
        self._inverse = None

    # -- construction -------------------------------------------------------

    @staticmethod
    def validate(F, check_associativity=True):
        """Check unit, commutativity, and associativity axioms to the series
        precision; raises FGLInvalid naming the first offending monomial.
        check_associativity=False skips the three-variable substitution for
        internal callers whose construction guarantees associativity."""
        if len(F.vars) != 2:
            raise AlgebraError("a formal group law needs exactly 2 variables")
        R = F.ring
        n = F.precision
        vx, vy = F.vars

        # F(x, 0) = x, then F(0, y) = y
        for axis, unit in ((1, (1, 0)), (0, (0, 1))):
            bad = {e: c for e, c in F.terms.items() if e[axis] == 0}
            if bad != {unit: R.one}:
                bad.pop(unit, None)
                if not bad:
                    bad = {unit: R.zero}
                first = min(bad, key=lambda t: (sum(t), t))
                raise FGLInvalid("unit axiom fails at %s" %
                                 _mon_str(F.vars, first))

        bad = [(a, b) for (a, b), c in F.terms.items()
               if not R.eq(F.coeff((b, a)), c)]
        if bad:
            first = min(bad, key=lambda t: (sum(t), t))
            raise FGLInvalid("commutativity fails at %s" %
                             _mon_str(F.vars, first))

        if check_associativity:
            # with F commutative, F(x, F(y, z)) = F(F(y, z), x) = G(y, z, x)
            # for G = F(F(x, y), z): one substitution and a cyclic renaming
            tri = (vx, vy, "_z")
            G = F.subst([F.rename(tri), Series.gen(R, tri, n, "_z")])
            diff = G - G.rename(tri, [1, 2, 0])
            if not diff.is_zero():
                raise FGLInvalid("associativity fails at %s" %
                                 _mon_str(tri, _first_monomial(diff)))
        return FormalGroupLaw(F, _certified=True)

    @staticmethod
    def additive(ring, precision, vars=("x", "y")):
        F = Series(ring, vars, precision,
                   {(1, 0): ring.one, (0, 1): ring.one})
        return FormalGroupLaw.validate(F)

    @staticmethod
    def multiplicative(ring, precision, vars=("x", "y")):
        F = Series(ring, vars, precision,
                   {(1, 0): ring.one, (0, 1): ring.one, (1, 1): ring.one})
        return FormalGroupLaw.validate(F)

    # -- basic structure ----------------------------------------------------

    def add(self, u, v):
        """u +_F v for single-variable series u, v."""
        return self.F.subst([u, v])

    def formal_inverse(self):
        """i(t) with F(t, i(t)) = 0, solved degree by degree from i = -t by
        _solve_by_degree: with i right below degree k, the t^k coefficient
        of F(t, i) is the error, read from a substitution truncated to
        precision k + 1, and i gains minus that times t^k (F(x, y) = x + y
        + higher terms).  The closing check is F(t, i) = 0 at the full
        precision."""
        if self._inverse is not None:
            return self._inverse
        R = self.ring
        t = Series.gen(R, ("t",), self.precision, "t")
        inv = _solve_by_degree(-t, lambda i: self.F.subst([t, i]), R.one)
        if not self.F.subst([t, inv]).is_zero():
            raise InternalCheckError("formal inverse failed to close")
        self._inverse = inv
        return inv

    def n_series(self, m):
        """[m](t); negative m via the formal inverse.  For m > 1, [k] =
        F(t, [k - 1]) is built up from the largest [k] known below m, and
        every [k] on the way is kept."""
        if m in self._nseries:
            return self._nseries[m]
        R = self.ring
        n = self.precision
        t = Series.gen(R, ("t",), n, "t")
        if m == 0:
            out = Series.zero(R, ("t",), n)
        elif m == 1:
            out = t
        elif m > 1:
            known = max((k for k in self._nseries if 1 <= k < m), default=1)
            out = self.n_series(known)
            for k in range(known + 1, m + 1):
                out = self._nseries[k] = self.F.subst([t, out])
        else:
            out = self.n_series(-m).compose(self.formal_inverse())
        self._nseries[m] = out
        return out

    def invariant_differential(self):
        """The coefficient series of the canonical invariant differential,
        1/F_y(x, 0); constant term is always 1."""
        R = self.ring
        fy = self.F.derivative(self.vars[1])
        n = fy.precision
        one_var = {}
        for e, c in fy.terms.items():
            if e[1] == 0:
                one_var[(e[0],)] = c
        fy0 = Series(R, ("t",), n, one_var)
        if not R.eq(fy0.constant_term(), R.one):
            raise InternalCheckError("F_y(x,0) should have constant term 1")
        return fy0.inverse_unit()

    def logarithm(self):
        """l(t) with l'(t) the invariant differential and l(0) = 0; only over
        rings containing the rationals (checked by exact divisibility)."""
        R = self.ring
        for k in range(2, self.precision):
            try:
                R.divide(R.one, R.from_int(k))
            except (NotDivisible, AlgebraError):
                raise AlgebraError("logarithm requires rational coefficients")
        log = self.invariant_differential().integrate()
        # postcondition: the logarithm linearizes the law
        lhs = log.compose(self.F)
        rhs = log.rename(self.vars, [0]) + log.rename(self.vars, [1])
        if lhs != rhs:
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
    """The height-n law over F_p built from the logarithm
    l(t) = sum t^(p^(n i)) / p^i; coefficients are checked p-integral before
    reduction, the axioms re-certified, and the height asserted."""
    if not is_prime(p):
        raise AlgebraError("not prime: %d" % p)
    if n < 1:
        raise AlgebraError("height must be positive")
    need = law_precision(p, n)
    if precision <= need:
        raise AlgebraError("raise precision (need N > p^%d = %d)" % (n, need))
    N = precision
    terms = {}
    i = 0
    while p ** (n * i) < N:
        terms[(p ** (n * i),)] = Fraction(1, p ** i)
        i += 1
    log = Series(QQ, ("t",), N, terms)
    exp = log.reverse()
    lsum = log.rename(("x", "y"), [0]) + log.rename(("x", "y"), [1])
    F_q = exp.compose(lsum)
    Fp = PrimeField(p)
    for e, c in F_q.terms.items():
        if c.denominator % p == 0:
            raise InternalCheckError("non-p-integral coefficient at %s" % (e,))
    F_p_series = F_q.map_coeffs(
        lambda c: (c.numerator * pow(c.denominator, -1, p)) % p, Fp)
    law = FormalGroupLaw.validate(F_p_series)
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
            degs = {self._mon_degree(m) for m in rel}
            if len(degs) > 1:
                raise AlgebraError("non-homogeneous relation: %r" % (rel,))
            self.relations.append(dict(rel))

    def _mon_degree(self, mon):
        return sum(e * self.gens[i][1] for i, e in enumerate(mon))

    def monomials(self, degree):
        """Exponent tuples of the given total (weighted) degree."""
        out = []

        def rec(i, remaining, acc):
            if i == len(self.gens):
                if remaining == 0:
                    out.append(tuple(acc))
                return
            d = self.gens[i][1]
            for e in range(remaining // d + 1):
                rec(i + 1, remaining - e * d, acc + [e])

        rec(0, degree, [])
        return sorted(out)

    def mon_name(self, mon):
        parts = [n if e == 1 else "%s^%d" % (n, e)
                 for (n, _), e in zip(self.gens, mon) if e]
        return "*".join(parts) if parts else "1"

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

    def piece(self, degree):
        """The degree piece as (free rank, torsion orders, monomial basis)."""
        basis = self.monomials(degree)
        rows = self.relation_rows(degree, basis)
        free, torsion = abelian_group_structure(len(basis), rows)
        return free, torsion, basis

    def with_constant_relation(self, c):
        zero_mon = (0,) * len(self.gens)
        return GradedRingPresentation(
            self.gens, self.relations + [{zero_mon: c}])

    def is_zero_ring(self):
        free, torsion, _ = self.piece(0)
        return free == 0 and not torsion


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
