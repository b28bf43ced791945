"""Formal group laws: axiom certification, n-series, logarithms, heights,
homomorphism checks, graded presentations, and the regular-sequence
(exactness) criterion."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit.algebra import (
    AlgebraError, InternalCheckError, ZZ, QQ, PrimeField, IntegersMod,
)
from tmfkit.series import Series
from tmfkit.fgl import (
    FormalGroupLaw, FGLInvalid, honda_fgl, height_profile,
    check_homomorphism, GradedRingPresentation, landweber_regularity,
    LAW_PRECISION_CAP,
)


class TestValidation:
    def test_additive(self):
        F = FormalGroupLaw.additive(ZZ, 8)
        assert F.n_series(3) == Series(ZZ, ("t",), 8, {(1,): 3})

    def test_multiplicative(self):
        # [n](t) = (1+t)^n - 1
        F = FormalGroupLaw.multiplicative(ZZ, 8)
        three = F.n_series(3)
        assert three.coeff((1,)) == 3
        assert three.coeff((2,)) == 3
        assert three.coeff((3,)) == 1
        assert three.coeff((4,)) == 0

    def test_direct_construction_rejected(self):
        F = Series(ZZ, ("x", "y"), 5, {(1, 0): 1, (0, 1): 1})
        with pytest.raises(AlgebraError):
            FormalGroupLaw(F)

    def test_missing_unit_axiom(self):
        F = Series(ZZ, ("x", "y"), 5, {(1, 0): 2, (0, 1): 1})
        with pytest.raises(FGLInvalid):
            FormalGroupLaw.validate(F)

    @pytest.mark.parametrize("terms,where", [
        ({(1, 0): 2, (0, 1): 1}, "x"),
        ({(0, 0): 1, (1, 0): 1, (0, 1): 1}, "1"),
        # both axes fail; F(x, 0) = x is checked first
        ({(1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 3): 1}, "x^2"),
        ({(1, 0): 1, (1, 1): 1}, "y"),
        ({(1, 0): 1, (0, 1): 1, (0, 3): 1}, "y^3"),
    ])
    def test_unit_axiom_reports_monomial(self, terms, where):
        F = Series(ZZ, ("x", "y"), 5, terms)
        with pytest.raises(FGLInvalid) as exc:
            FormalGroupLaw.validate(F)
        assert str(exc.value) == "unit axiom fails at %s" % where

    def test_noncommutative_rejected(self):
        F = Series(ZZ, ("x", "y"), 5,
                   {(1, 0): 1, (0, 1): 1, (2, 1): 1})
        with pytest.raises(FGLInvalid):
            FormalGroupLaw.validate(F)

    @pytest.mark.parametrize("order", [[(2, 1), (1, 3)], [(1, 3), (2, 1)]])
    def test_commutativity_reports_lowest_monomial(self, order):
        # x + y + x^2 y + x y^3 fails at x^2*y and x*y^3; the lower one is
        # named whatever the order of the terms
        terms = {(1, 0): 1, (0, 1): 1}
        terms.update({e: 1 for e in order})
        F = Series(ZZ, ("x", "y"), 6, terms)
        with pytest.raises(FGLInvalid, match=r"^commutativity fails at x\^2\*y$"):
            FormalGroupLaw.validate(F)

    def test_nonassociative_rejected(self):
        # x + y + x^2 y^2 is commutative with the right unit but fails
        # associativity
        F = Series(ZZ, ("x", "y"), 6,
                   {(1, 0): 1, (0, 1): 1, (2, 2): 1})
        with pytest.raises(FGLInvalid):
            FormalGroupLaw.validate(F)

    def test_two_variables_required(self):
        F = Series(ZZ, ("x",), 5, {(1,): 1})
        with pytest.raises(AlgebraError):
            FormalGroupLaw.validate(F)


class TestStructure:
    def test_formal_inverse_multiplicative(self):
        # inverse of t in x+y+xy is the alternating geometric series
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        i = F.formal_inverse()
        assert all(i.coeff((k,)) == (-1) ** k for k in range(1, 7))

    def test_inverse_cancels(self):
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        t = Series.gen(ZZ, ("t",), 7, "t")
        assert F.add(t, F.formal_inverse()).is_zero()

    def test_n_series_additivity(self):
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        lhs = F.add(F.n_series(2), F.n_series(3))
        assert lhs.agrees_with(F.n_series(5))

    def test_deep_n_series_is_iterative(self):
        # [m](t) = (1+t)^m - 1; a recursion m deep would pass Python's limit
        F = FormalGroupLaw.multiplicative(ZZ, 4)
        m = 1500
        assert F.n_series(m).terms == {(1,): m, (2,): math.comb(m, 2),
                                       (3,): math.comb(m, 3)}
        assert F.n_series(m - 1).coeff((1,)) == m - 1

    def test_negative_n_series(self):
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        assert F.add(F.n_series(-2), F.n_series(2)).is_zero()

    def test_invariant_differential_multiplicative(self):
        # eta(t) = 1/(1+t)
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        eta = F.invariant_differential()
        assert eta.precision == 6   # one derivative costs one order
        assert all(eta.coeff((k,)) == (-1) ** k for k in range(6))

    def test_logarithm_multiplicative(self):
        # log(1+t): coefficient of t^k is (-1)^(k-1)/k
        F = FormalGroupLaw.multiplicative(QQ, 7)
        log = F.logarithm()
        for k in range(1, 7):
            expect = QQ.divide(QQ.from_int((-1) ** (k - 1)), QQ.from_int(k))
            assert QQ.eq(log.coeff((k,)), expect)

    def test_logarithm_needs_rationals(self):
        F = FormalGroupLaw.multiplicative(ZZ, 7)
        with pytest.raises(AlgebraError):
            F.logarithm()


class TestHeights:
    def test_additive_infinite(self):
        F = FormalGroupLaw.additive(PrimeField(3), 30)
        assert height_profile(F, 3).height == "infinite within bound"

    def test_multiplicative_height_one(self):
        for p in (3, 5, 7):
            F = FormalGroupLaw.multiplicative(PrimeField(p), p + 2)
            hp = height_profile(F, 1)
            assert hp.height == 1
            assert hp.v(1) == PrimeField(p).one

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_honda_heights(self, p, n):
        law = honda_fgl(p, n, p ** n + 2)
        hp = height_profile(law, n)
        assert hp.height == n
        assert hp.v(n) == PrimeField(p).one
        assert all(hp.v(i) == PrimeField(p).zero for i in range(1, n))

    def test_height_requires_prime_characteristic(self):
        F = FormalGroupLaw.additive(ZZ, 10)
        with pytest.raises(AlgebraError):
            height_profile(F, 2)

    def test_law_precision_cap(self):
        law = FormalGroupLaw.multiplicative(PrimeField(3), 8)
        cap = "exceeds the desk-scale cap %d" % LAW_PRECISION_CAP
        with pytest.raises(AlgebraError, match=cap):
            honda_fgl(3, 5, 250)
        with pytest.raises(AlgebraError, match=cap):
            height_profile(law, 10 ** 9)
        with pytest.raises(AlgebraError, match=cap):
            landweber_regularity(GradedRingPresentation(), law, 3,
                                 10 ** 9, 1)

    def test_height_requires_precision(self):
        F = FormalGroupLaw.multiplicative(PrimeField(3), 5)
        with pytest.raises(AlgebraError):
            height_profile(F, 2)   # needs N > 9


class TestHomomorphisms:
    def test_n_series_is_endomorphism(self):
        F = FormalGroupLaw.multiplicative(QQ, 8)
        rep = check_homomorphism(F.n_series(2), F, F)
        assert rep["is_hom"]
        assert not rep["is_iso"] is None
        assert QQ.eq(rep["differential_scalar"], QQ.from_int(2))
        assert rep["inv2_holds"]

    def test_exp_of_scaled_log_is_iso(self):
        # conjugating the additive law by t + t^2 gives an isomorphic law
        F = FormalGroupLaw.additive(QQ, 8)
        phi = Series(QQ, ("t",), 8, {(1,): QQ.one, (2,): QQ.one})
        gx = Series.gen(QQ, ("x", "y"), 8, "x")
        gy = Series.gen(QQ, ("x", "y"), 8, "y")
        phix = phi.rename(("x", "y"), [0]).subst([gx, gy])
        phiy = phi.rename(("x", "y"), [1]).subst([gx, gy])
        G = FormalGroupLaw.validate(phi.reverse().compose(phix + phiy))
        rep = check_homomorphism(phi.reverse(), F, G)
        assert rep["is_hom"] and rep["is_iso"] and rep["inv2_holds"]

    def test_non_homomorphism_detected(self):
        F = FormalGroupLaw.additive(QQ, 8)
        G = FormalGroupLaw.multiplicative(QQ, 8)
        t = Series.gen(QQ, ("t",), 8, "t")
        rep = check_homomorphism(t, F, G)
        assert not rep["is_hom"]


class TestHonda:
    def test_three_series_valuation(self):
        law = honda_fgl(3, 2, 12)
        ps = law.n_series(3)
        assert ps.valuation() == 9          # first term at degree p^n

    def test_defined_over_prime_field(self):
        law = honda_fgl(5, 1, 8)
        assert law.ring == PrimeField(5)

    def test_rejects_composite(self):
        with pytest.raises(AlgebraError):
            honda_fgl(4, 1, 10)


class TestPresentation:
    def test_gens_and_relations(self):
        pres = GradedRingPresentation(gens=[("u", 2)],
                                      relations=[{(2,): 1}])
        assert pres.gens == (("u", 2),)

    def test_generator_degree_positive(self):
        with pytest.raises(AlgebraError):
            GradedRingPresentation(gens=[("u", 0)])

    def test_relations_must_be_homogeneous(self):
        with pytest.raises(AlgebraError):
            GradedRingPresentation(gens=[("u", 2)],
                                   relations=[{(0,): 3, (1,): 1}])

    def test_with_constant_relation(self):
        pres = GradedRingPresentation().with_constant_relation(3)
        assert any(rel.get((), None) == 3 or rel.get((0,) * 0, None) == 3
                   or 3 in rel.values() for rel in pres.relations)


class TestLandweber:
    def test_multiplicative_over_integers_passes(self):
        law = FormalGroupLaw.multiplicative(ZZ, 11)
        out = landweber_regularity(GradedRingPresentation(), law,
                                   3, 2, 4)
        assert out["verdict"] == "pass"
        statuses = [s["status"] for s in out["stages"]]
        assert statuses == ["injective", "injective", "vacuous"]

    def test_additive_over_integers_fails_at_v1(self):
        law = FormalGroupLaw.additive(ZZ, 11)
        out = landweber_regularity(GradedRingPresentation(), law,
                                   3, 2, 4)
        assert out["verdict"] == "fail at stage 1"
        assert out["stages"][0]["status"] == "injective"   # p itself injects
        assert out["stages"][1]["status"] == "fail"
        assert out["stages"][1]["kernel_witness"] == "1"

    def test_honda_over_prime_field_fails_at_p(self):
        law = honda_fgl(3, 2, 11)
        pres = GradedRingPresentation().with_constant_relation(3)
        out = landweber_regularity(pres, law, 3, 2, 4)
        assert out["verdict"] == "fail at stage 0"
        assert out["stages"][0]["kernel_witness"] == "1"

    def test_precision_guard(self):
        law = FormalGroupLaw.multiplicative(ZZ, 9)
        with pytest.raises(AlgebraError):
            landweber_regularity(GradedRingPresentation(), law, 3, 2, 4)

    def test_prime_guard(self):
        law = FormalGroupLaw.multiplicative(ZZ, 11)
        with pytest.raises(AlgebraError):
            landweber_regularity(GradedRingPresentation(), law, 6, 1, 4)


@given(n=st.integers(min_value=-4, max_value=4),
       m=st.integers(min_value=-4, max_value=4))
@settings(max_examples=20, deadline=None)
def test_n_series_composes_multiplicatively(n, m):
    F = FormalGroupLaw.multiplicative(ZZ, 7)
    assert F.n_series(n).compose(F.n_series(m)).agrees_with(
        F.n_series(n * m))
