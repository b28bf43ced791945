"""Formal group laws: axiom certification, n-series, logarithms, heights,
homomorphism checks, graded presentations, and the regular-sequence
(exactness) criterion."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit import fgl
from tmfkit.algebra import (
    AlgebraError, InternalCheckError, ZZ, QQ, PrimeField, IntegersMod,
    LocalizedIntegers, smith_normal_form, integer_kernel,
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


def two_substitution_difference(F):
    """The oracle for validate's associativity check: F(F(x, y), z) -
    F(x, F(y, z)), formed by two three-variable substitutions."""
    R, n = F.ring, F.precision
    tri = F.vars + ("_z",)
    gx, gy, gz = (Series.gen(R, tri, n, v) for v in tri)
    return (F.subst([F.subst([gx, gy]), gz])
            - F.subst([gx, F.subst([gy, gz])]))


def conjugated_multiplicative(R, n, rng):
    """phi^-1(phi(x) + phi(y) + phi(x) phi(y)) for a seeded phi = t + ...:
    an associative law with coefficients at every degree."""
    phi = Series(R, ("t",), n, {(1,): R.one})
    phi += Series(R, ("t",), n, {(k,): R.from_int(rng.randint(-3, 3))
                                 for k in range(2, n)})
    px, py = (phi.rename(("x", "y"), [i]) for i in (0, 1))
    return phi.reverse().compose(px + py + px * py)


ASSOCIATIVITY_RINGS = [QQ, ZZ, PrimeField(2), PrimeField(3), PrimeField(13),
                       IntegersMod(12), LocalizedIntegers(at=3)]


@pytest.mark.parametrize("R", ASSOCIATIVITY_RINGS, ids=repr)
def test_associativity_matches_two_substitutions(R):
    """validate forms one substitution G = F(F(x, y), z) and tests G against
    its cyclic renaming G(y, z, x).  On commutative laws that is the
    two-substitution difference series, so the verdict and the message
    naming the first failing monomial are the same, on associative laws and
    on laws perturbed symmetrically at each degree."""
    rng = random.Random(repr(R))
    n = 7
    laws = [FormalGroupLaw.multiplicative(R, n).F,
            FormalGroupLaw.additive(R, n).F,
            conjugated_multiplicative(R, n, rng)]
    if R == PrimeField(3):
        laws.append(honda_fgl(3, 1, n).F)
    for d in range(2, n):
        a = rng.randint(1, d - 1)
        c = R.from_int(rng.choice([1, 5, -1]))
        bump = {(a, d - a): c, (d - a, a): c}
        laws.append(laws[2] + Series(R, ("x", "y"), n, bump))
    tri = ("x", "y", "_z")
    failures = 0
    for F in laws:
        old = two_substitution_difference(F)
        G = F.subst([F.rename(tri), Series.gen(R, tri, n, "_z")])
        assert G - G.rename(tri, [1, 2, 0]) == old
        if old.is_zero():
            FormalGroupLaw.validate(F)
            continue
        failures += 1
        where = fgl._mon_str(tri, fgl._first_monomial(old))
        with pytest.raises(FGLInvalid) as exc:
            FormalGroupLaw.validate(F)
        assert str(exc.value) == "associativity fails at %s" % where
    assert failures >= 3


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

    def test_four_free_generators_within_budget(self):
        pres = GradedRingPresentation(gens=[(g, 1) for g in "abcd"])
        law = FormalGroupLaw.multiplicative(ZZ, 11)
        start = time.perf_counter()
        out = landweber_regularity(pres, law, 3, 2, 8)
        assert time.perf_counter() - start < 5
        assert out["verdict"] == "pass"


def integer_solve(mat, target):
    """Solve mat * x = target over Z through a fresh Smith form of mat;
    None when there is no solution."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    D, U, V = smith_normal_form(mat)
    b = [sum(U[i][k] * target[k] for k in range(rows)) for i in range(rows)]
    w = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if d:
            if b[i] % d != 0:
                return None
            w[i] = b[i] // d
        elif b[i] != 0:
            return None
    return [sum(V[i][k] * w[k] for k in range(cols)) for i in range(cols)]


def scalar_mult_injective_by_solves(pres, degree, scalar):
    """The oracle for the Landweber check's per-piece test: one integer_solve
    of the relation columns per kernel vector."""
    basis = pres.monomials(degree)
    nb = len(basis)
    if nb == 0:
        return True, None
    rel = pres.relation_rows(degree, basis)
    mat = [[scalar if i == j else 0 for j in range(nb)] +
           [-r[i] for r in rel] for i in range(nb)]
    rel_cols = [[r[i] for r in rel] for i in range(nb)]
    for vec in integer_kernel(mat):
        x = vec[:nb]
        if all(v == 0 for v in x):
            continue
        sol = integer_solve(rel_cols, x) if rel else None
        if sol is None:
            label = " + ".join("%d*%s" % (c, pres.mon_name(m)) if c != 1
                               else pres.mon_name(m)
                               for c, m in zip(x, basis) if c)
            return False, label
    return True, None


def seeded_presentation(rng):
    """One to three generators of degree 1 or 2 and up to three homogeneous
    relations of degree at most 3 with small coefficients."""
    gens = [("g%d" % i, rng.randint(1, 2)) for i in range(rng.randint(1, 3))]
    pres = GradedRingPresentation(gens)
    relations = []
    for _ in range(rng.randint(0, 3)):
        mons = pres.monomials(rng.randint(0, 3))
        if mons:
            relations.append({m: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4,
                                             6, 9])
                              for m in rng.sample(mons, rng.randint(1, len(mons)))})
    return GradedRingPresentation(gens, relations)


def test_landweber_matches_per_vector_solves(monkeypatch):
    """The result dicts, witnesses included, are those of the routine that
    solved once per kernel vector."""
    rng = random.Random("landweber")
    laws = {"multiplicative": FormalGroupLaw.multiplicative(ZZ, 27),
            "additive": FormalGroupLaw.additive(ZZ, 27)}
    cases = []
    for _ in range(150):
        cases.append((seeded_presentation(rng), rng.choice(sorted(laws)),
                      rng.choice([2, 3, 5]), rng.randint(1, 2),
                      rng.randint(1, 4)))
    results = []
    for pres, law, p, n_max, bound in cases:
        results.append(landweber_regularity(pres, laws[law], p, n_max, bound))
    monkeypatch.setattr(fgl, "_scalar_mult_injective",
                        scalar_mult_injective_by_solves)
    for (pres, law, p, n_max, bound), got in zip(cases, results):
        assert got == landweber_regularity(pres, laws[law], p, n_max, bound)
    witnesses = [r["stages"][-1].get("kernel_witness") for r in results]
    assert sum(w is not None for w in witnesses) >= 30
    assert sum(w not in (None, "1") for w in witnesses) >= 10


@given(n=st.integers(min_value=-4, max_value=4),
       m=st.integers(min_value=-4, max_value=4))
@settings(max_examples=20, deadline=None)
def test_n_series_composes_multiplicatively(n, m):
    F = FormalGroupLaw.multiplicative(ZZ, 7)
    assert F.n_series(n).compose(F.n_series(m)).agrees_with(
        F.n_series(n * m))
