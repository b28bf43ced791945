"""Acceptance suite: nine end-to-end criteria, each with a wall-clock
budget.  Every test prints one [PASS] line with its timing; run with
``pytest tests/test_acceptance.py -s`` to see them."""

import random
import time
from fractions import Fraction

from tmfkit.algebra import QQ, ZZ, PrimeField, poly_gcd
from tmfkit.series import Series
from tmfkit.fgl import (
    FormalGroupLaw, honda_fgl, height_profile, check_homomorphism,
    GradedRingPresentation, landweber_regularity,
)
from tmfkit.weierstrass import (
    WeierstrassCurve, hasse_invariant, exact_height, deuring_coefficient,
    supersingular_polynomial,
)
from tmfkit.modforms import (
    ModularForm, basis_monomials, dimension, q_expansion, j_q_expansion,
    monomial_weight,
)
from tmfkit.chart import (
    tmf_pi, tmf_pi_window, duality_check, k1_sphere, k1_tmf_p2,
)


class Budget:
    def __init__(self, number, name, limit):
        self.number, self.name, self.limit = number, name, limit
        self.t0 = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.limit, \
            "criterion %d overran: %.2fs >= %ds" % (
                self.number, elapsed, self.limit)
        print("[PASS] criterion %d (%s): %.2fs < %ds"
              % (self.number, self.name, elapsed, self.limit))


def test_criterion_1_graded_ring():
    b = Budget(1, "graded ring of forms", 5)
    # dimensions against an order-independent recount, all weights to 48
    for k in range(0, 49):
        expect = sum(1 for a in range(k // 4 + 1) for bb in (0, 1)
                     for c in range(k // 12 + 1)
                     if 4 * a + 6 * bb + 12 * c == k)
        assert dimension(k) == expect
        mons = basis_monomials(k)
        assert len(set(mons)) == len(mons)
        assert all(monomial_weight(m) == k for m in mons)
    # 1000 randomized products: normalization keeps b <= 1, respects
    # weights, and the ring is commutative/associative
    rng = random.Random(11)
    for trial in range(1000):
        def rand_form():
            return ModularForm(ZZ, {
                (rng.randint(0, 3), rng.randint(0, 1), rng.randint(0, 2)):
                rng.randint(-9, 9) for _ in range(2)})
        f, g, h = rand_form(), rand_form(), rand_form()
        fg = f * g
        assert all(bb <= 1 for (_, bb, _) in fg.terms)
        assert fg == g * f
        assert (fg * h) == f * (g * h)
        wf, wg = f.weight(), g.weight()
        if wf not in (None, "mixed") and wg not in (None, "mixed") \
                and not fg.is_zero():
            assert fg.weight() == wf + wg
    b.done()


def test_criterion_2_q_expansions():
    b = Budget(2, "q-expansions", 5)
    N = 51
    # independent eta-product oracle for the weight-12 cusp form
    one = Series.one(ZZ, ("q",), N)
    acc = one
    for n in range(1, N):
        acc = acc * ((one - Series(ZZ, ("q",), N, {(n,): 1})) ** 24)
    oracle = acc.shift(1).truncate(N)
    mine = q_expansion(ModularForm.generator("Delta"), N)
    assert mine == oracle
    # the defining relation holds in q to the same depth
    e4 = q_expansion(ModularForm.generator("c4"), N)
    c6q = q_expansion(ModularForm.generator("c6"), N)
    assert e4 ** 3 - c6q ** 2 == mine.scale(1728)
    # j-expansion landmarks
    j = j_q_expansion(6)
    assert [j.coeff((k,)) for k in range(-1, 5)] == \
        [1, 744, 196884, 21493760, 864299970, 20245856256]
    b.done()


def test_criterion_3_supersingular_polynomials():
    b = Budget(3, "supersingular polynomials", 60)
    primes = [p for p in range(2, 102)
              if all(p % d for d in range(2, p))]
    for p in primes:
        rep = supersingular_polynomial(p)
        F = PrimeField(p)
        phi = rep.phi
        assert F.eq(phi.leading(), F.one)                    # monic
        if phi.degree() >= 1:
            assert poly_gcd(phi, phi.derivative()).degree() == 0  # separable
        if p < 5:
            eps = 1
        else:
            # j = 0 is supersingular iff p = 2 mod 3; j = 1728 iff p = 3 mod 4
            eps = (1 if p % 3 == 2 else 0) + (1 if p % 4 == 3 else 0)
        assert rep.epsilon == eps
        assert rep.degree == (p - 1) // 12 + eps
        # Frobenius permutes the supersingular j-invariants
        field = rep.field
        roots = set(rep.j_values)
        assert {field.pow(jv, p) for jv in roots} == roots
        assert len(roots) == rep.degree
    b.done()


def test_criterion_4_heights():
    b = Budget(4, "heights and the ordinary locus", 120)
    # fixed laws
    assert height_profile(FormalGroupLaw.additive(PrimeField(3), 30),
                          3).height == "infinite within bound"
    for p in (3, 5, 7):
        hp = height_profile(FormalGroupLaw.multiplicative(
            PrimeField(p), p + 2), 1)
        assert hp.height == 1 and hp.v(1) == PrimeField(p).one
    for (p, n) in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
        hp = height_profile(honda_fgl(p, n, p ** n + 2), n)
        assert hp.height == n
    # exhaustive sweep: every smooth curve over F_p has height 1 or 2,
    # and the division-polynomial height matches the Hasse verdict
    for p in (2, 3):
        F = PrimeField(p)
        for a1 in range(p):
            for a2 in range(p):
                for a3 in range(p):
                    for a4 in range(p):
                        for a6 in range(p):
                            c = WeierstrassCurve.from_ints(
                                F, a1, a2, a3, a4, a6)
                            if not c.is_smooth():
                                continue
                            h = exact_height(c)
                            assert h in (1, 2)
                            assert (h == 1) == \
                                hasse_invariant(c)["ordinary"]
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        for a4 in range(p):
            for a6 in range(p):
                c = WeierstrassCurve.from_ints(F, 0, 0, 0, a4, a6)
                if not c.is_smooth():
                    continue
                h = exact_height(c)
                assert h in (1, 2)
                ordinary = hasse_invariant(c)["ordinary"]
                assert (h == 1) == ordinary
                # Deuring's x^(p-1) criterion agrees for p >= 5
                assert F.is_zero(deuring_coefficient(c)) == (not ordinary)
    b.done()


def test_criterion_5_random_formal_group_laws():
    b = Budget(5, "randomized formal group laws", 30)
    rng = random.Random(5)
    N = 12
    for trial in range(200):
        terms = {(1,): QQ.one}
        for k in range(2, N):
            num = rng.randint(-6, 6)
            if num:
                terms[(k,)] = Fraction(num, rng.choice([1, 2, 3, 4, 5]))
        log = Series(QQ, ("t",), N, terms)
        exp = log.reverse()
        lx = log.rename(("x", "y"), [0])
        ly = log.rename(("x", "y"), [1])
        F = exp.compose(lx + ly)
        # certify the axioms (full cubic associativity on a subsample)
        law = FormalGroupLaw.validate(F,
                                      check_associativity=(trial % 20 == 0))
        # an independently re-derived logarithm must linearize the law
        relog = law.logarithm()
        assert relog.agrees_with(log, upto=relog.precision)
        if trial % 5 == 0:
            # the n-series are endomorphisms and pull the invariant
            # differential back correctly
            rep = check_homomorphism(law.n_series(rng.choice([2, 3, -1])),
                                     law, law)
            assert rep["is_hom"] and rep["inv2_holds"]
    b.done()


def test_criterion_6_descent_chart():
    b = Budget(6, "descent chart vs presentations", 30)
    # every degree in the window, computed from the spectral sequence and
    # cross-checked against the closed-form presentations
    reports = tmf_pi_window(-80, 80)
    assert len(reports) == 161
    # pinned landmarks
    assert reports[0].group_string() == "Z_(3)"
    assert reports[3].labels() == ["alpha"]
    assert reports[24].labels() == ["c4^3", "3*Delta"]
    assert reports[27].gens[0]["detected_by"] == "alpha*Delta"
    assert reports[40].group_string() == "Z_(3)^2 + Z/3"
    assert reports[-21].labels() == ["3*dual(1)"]
    assert reports[-45].labels() == ["3*dual(c4^3)", "dual(Delta)"]
    for n in range(-20, 0):
        assert reports[n].group_string() == "0"
    b.done()


def test_criterion_7_duality():
    b = Budget(7, "shifted duality", 10)
    # every degree whose four participating groups fit in the window
    for k in range(-79, 59):
        out = duality_check(k)
        assert out["is_iso"], k
        assert out["partner_degree"] == -21 - k
    b.done()


def test_criterion_8_k1_closed_forms():
    b = Budget(8, "K(1)-local closed forms", 1)
    for k in range(-1, 41):
        out = k1_sphere(3, k)
        m = k + 1
        if k in (0, -1):
            assert out["group"] == "Z_3"
        elif m % 4 != 0 or m == 0:
            assert out["group"] == "0"
        else:
            j = m // 4
            t = 0
            while j % 3 == 0:
                j //= 3
                t += 1
            assert out["group"] == "Z/%d" % (3 ** (t + 1))
    assert k1_tmf_p2(0, 2, 1)["monomial"] == "1"
    assert k1_tmf_p2(9, 2, 1)["monomial"] == "eta*b"
    assert k1_tmf_p2(12, 2, 1)["monomial"] == "v*b"
    assert k1_tmf_p2(3, 2, 1)["module"] == "0"
    b.done()


def test_criterion_9_landweber():
    b = Budget(9, "regular-sequence verdicts", 5)
    out = landweber_regularity(GradedRingPresentation(),
                               FormalGroupLaw.multiplicative(ZZ, 11),
                               3, 2, 4)
    assert out["verdict"] == "pass"
    out = landweber_regularity(GradedRingPresentation(),
                               FormalGroupLaw.additive(ZZ, 11),
                               3, 2, 4)
    assert out["verdict"] == "fail at stage 1"
    out = landweber_regularity(
        GradedRingPresentation().with_constant_relation(3),
        honda_fgl(3, 2, 11), 3, 2, 4)
    assert out["verdict"] == "fail at stage 0"
    b.done()
