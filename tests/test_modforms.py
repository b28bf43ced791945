"""The weight-graded ring generated by c4, c6, Delta modulo
c6^2 = c4^3 - 1728*Delta, its monomial bases, and integral q-expansions."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit.algebra import (AlgebraError, ZZ, QQ, PrimeField, IntegersMod,
                            smith_normal_form)
from tmfkit.series import Series
from tmfkit.modforms import (
    ModularForm, normal_form, basis_monomials, dimension,
    q_expansion, j_q_expansion, monomial_label,
    QEXP_PRECISION_CAP, QEXP_WORK_CAP, WEIGHT_CAP, _check_work, _generators,
    _monomial,
)


def brute_dimension(k):
    """Order-independent recount: solutions of 4a + 6b + 12c = k with
    b <= 1, all nonnegative."""
    return sum(1 for a in range(k // 4 + 1)
               for b in (0, 1)
               for c in range(k // 12 + 1)
               if 4 * a + 6 * b + 12 * c == k)


def eta_product_delta(N):
    """Independent oracle for Delta's q-expansion: q * prod (1-q^n)^24."""
    one = Series.one(ZZ, ("q",), N)
    acc = one
    for n in range(1, N):
        factor = one - Series(ZZ, ("q",), N, {(n,): 1})
        acc = acc * (factor ** 24)
    return acc.shift(1).truncate(N)


def _sigma(n, k):
    """Divisor power sum sigma_k(n) by trial division: the oracle for the
    divisor sieve."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += d ** k
    return total


def int_series(coeffs):
    """A list of ints as a q-series over Z at precision len(coeffs)."""
    return Series(ZZ, ("q",), len(coeffs),
                  {(n,): x for n, x in enumerate(coeffs)})


def reference_generators(N):
    """E4 and c6 = -E6 from divisor sums, and Delta from the eta product,
    as series over Z at precision N."""
    e4 = int_series([1] + [240 * _sigma(n, 3) for n in range(1, N)])
    c6 = int_series([-1] + [504 * _sigma(n, 5) for n in range(1, N)])
    return e4, c6, eta_product_delta(N)


def reference_q_expansion(f, gens):
    """q-expansion by square-and-multiply Series powers over Z, coerced
    into the form's ring monomial by monomial."""
    R = f.ring
    N = gens[0].precision
    out = Series.zero(R, ("q",), N)
    for (a, b, c), co in f.sorted_terms():
        z = (gens[0] ** a * gens[1] ** b * gens[2] ** c).truncate(N)
        out = out + z.map_coeffs(lambda n, _co=co: R.mul(_co, R.from_int(n)),
                                 R)
    return out


class TestBasis:
    def test_dimensions_match_brute_force(self):
        for k in range(0, 49):
            assert dimension(k) == brute_dimension(k), k

    def test_known_dimension_table(self):
        dims = [dimension(k) for k in range(0, 28, 2)]
        assert dims == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2]

    def test_odd_weights_empty(self):
        assert all(dimension(k) == 0 for k in range(1, 40, 2))

    def test_weight_twelve_order(self):
        assert [monomial_label(m) for m in basis_monomials(12)] == \
            ["c4^3", "Delta"]

    def test_weight_twenty_four(self):
        assert [monomial_label(m) for m in basis_monomials(24)] == \
            ["c4^6", "c4^3*Delta", "Delta^2"]

    def test_basis_forms_are_homogeneous(self):
        for mon in basis_monomials(36):
            # a single weight, not "mixed"
            assert ModularForm.monomial(mon).weight() == 36


class TestNormalForm:
    def test_constructor_rejects_square_c6(self):
        with pytest.raises(AlgebraError):
            ModularForm(ZZ, {(0, 2, 0): 1})

    def test_c6_squared_rewrites(self):
        f = normal_form({(0, 2, 0): 1})
        assert f == (ModularForm.monomial((3, 0, 0))
                     - ModularForm.monomial((0, 0, 1)).scale(1728))

    def test_higher_powers(self):
        # c6^4 = (c4^3 - 1728 Delta)^2
        f = normal_form({(0, 4, 0): 1})
        c43 = ModularForm.monomial((3, 0, 0))
        d = ModularForm.monomial((0, 0, 1))
        assert f == (c43 * c43 - (c43 * d).scale(2 * 1728)
                     + (d * d).scale(1728 ** 2))

    @staticmethod
    def stepwise_normal_form(raw, R):
        """c6^2 -> c4^3 - 1728*Delta one square at a time, every pending
        term kept apart until its c6 exponent is below 2."""
        pending = list(raw.items())
        out = {}
        while pending:
            (a, b, c), coeff = pending.pop()
            if b >= 2:
                pending.append(((a + 3, b - 2, c), coeff))
                pending.append(((a, b - 2, c + 1),
                                R.mul(R.from_int(-1728), coeff)))
            else:
                out[(a, b, c)] = R.add(out.get((a, b, c), R.zero), coeff)
        return ModularForm(R, out)

    @pytest.mark.parametrize("R", [ZZ, QQ, PrimeField(5), PrimeField(13)],
                             ids=repr)
    def test_closed_form_matches_stepwise_rewrite(self, R):
        for b in range(13):
            for raw in ({(0, b, 0): R.one},
                        {(2, b, 1): R.from_int(-7), (5, b % 2, 0): R.one,
                         (0, b, 3): R.from_int(1729), (1, b, 0): R.zero}):
                assert normal_form(raw, R) == \
                    self.stepwise_normal_form(raw, R), (b, raw)

    def test_large_c6_power_is_fast(self):
        # c6^60 once took 2^30 rewriting steps; its closed form has 31 terms
        start = time.monotonic()
        f = normal_form({(0, 60, 0): 1})
        qs = q_expansion(f, 5)
        assert time.monotonic() - start < 2
        assert len(f.terms) == 31 and f.weight() == 360
        assert qs == q_expansion(ModularForm.generator("c6"), 5) ** 60

    def test_product_stays_normalized(self):
        c6 = ModularForm.generator("c6")
        sq = c6 * c6
        assert all(b <= 1 for (_, b, _) in sq.terms)
        assert sq.weight() == 12

    def test_weight_of_mixed_sum(self):
        f = ModularForm.generator("c4") + ModularForm.generator("c6")
        assert f.weight() == "mixed"


class TestQExpansions:
    def test_eisenstein_pins(self):
        e4 = q_expansion(ModularForm.generator("c4"), 4)
        assert [e4.coeff((k,)) for k in range(4)] == [1, 240, 2160, 6720]
        e6 = q_expansion(ModularForm.generator("c6").scale(-1), 4)
        assert [e6.coeff((k,)) for k in range(4)] == [1, -504, -16632,
                                                     -122976]

    def test_delta_against_eta_product(self):
        N = 24
        mine = q_expansion(ModularForm.generator("Delta"), N)
        assert mine == eta_product_delta(N)

    def test_ramanujan_tau_pins(self):
        d = q_expansion(ModularForm.generator("Delta"), 8)
        assert [d.coeff((k,)) for k in range(1, 8)] == \
            [1, -24, 252, -1472, 4830, -6048, -16744]

    def test_defining_relation_in_q(self):
        N = 16
        e4 = q_expansion(ModularForm.generator("c4"), N)
        c6q = q_expansion(ModularForm.generator("c6"), N)
        dq = q_expansion(ModularForm.generator("Delta"), N)
        assert e4 ** 3 - c6q ** 2 == dq.scale(1728)

    def test_expansion_is_additive_and_multiplicative(self):
        f = ModularForm.generator("c4")
        g = ModularForm.generator("c6")
        N = 10
        assert q_expansion(f + g, N) == q_expansion(f, N) + q_expansion(g, N)
        assert q_expansion(f * g, N).agrees_with(
            q_expansion(f, N) * q_expansion(g, N))

    def test_prime_field_coercion(self):
        F = PrimeField(3)
        d3 = q_expansion(ModularForm.generator("Delta", F), 6)
        assert d3.ring == F
        assert [d3.coeff((k,)) for k in range(6)] == [0, 1, 0, 0, 1, 0]
        e4 = q_expansion(ModularForm.generator("c4", F), 5)
        assert [e4.coeff((k,)) for k in range(5)] == [1, 0, 0, 0, 0]

    def test_cancelling_monomials_over_z4(self):
        # mod 4, c4 = c6 = 1 and c4^3 Delta = Delta as q-series: only the
        # constant 1 + 3 + 2 = 2 survives
        R = IntegersMod(4)
        f = ModularForm(R, {(1, 0, 0): 1, (2, 0, 0): 3, (0, 1, 0): 2,
                            (3, 0, 1): 1, (0, 0, 1): 3})
        N = 12
        got = q_expansion(f, N)
        assert got == reference_q_expansion(f, reference_generators(N))
        assert got.terms == {(0,): 2}

    def test_monomial_weight_cap(self):
        # c4^(cap/4) is the heaviest monomial expanded; one c4 more is refused
        top = WEIGHT_CAP // 4
        q = q_expansion(ModularForm(ZZ, {(top, 0, 0): 1}), 3)
        assert q.coeff((1,)) == 240 * top
        with pytest.raises(AlgebraError, match="weight %d exceeds the "
                           "desk-scale cap %d" % (4 * top + 4, WEIGHT_CAP)):
            q_expansion(ModularForm(ZZ, {(top + 1, 0, 0): 1}), 3)

    def test_work_cap(self):
        N = QEXP_PRECISION_CAP
        # c6^60 is 31 monomials of weight 360 in normal form
        f = normal_form({(0, 60, 0): 1})
        with pytest.raises(AlgebraError, match="expanding 31 monomials to "
                           "q-precision %d, work %d, exceeds the desk-scale "
                           "cap %d" % (N, 31 * 460 * 1050 ** 2,
                                       QEXP_WORK_CAP)):
            q_expansion(f, N)
        # light monomials are cheap at the top precision
        e = q_expansion(ModularForm.generator("c4")
                        + ModularForm.generator("c6"), N)
        assert [e.coeff((n,)) for n in range(3)] == [0, 240 + 504,
                                                     2160 + 16632]
        # one monomial of weight N or more fits at the top precision, and
        # two of weight WEIGHT_CAP are refused before anything is expanded
        _check_work([WEIGHT_CAP], N)
        two = ModularForm(ZZ, {(2500, 0, 0): 1, (2200, 0, 100): 1})
        start = time.monotonic()
        with pytest.raises(AlgebraError, match="expanding 2 monomials to "
                           "q-precision %d" % N):
            q_expansion(two, N)
        assert time.monotonic() - start < 0.5

    @pytest.mark.parametrize("N", [1, 2, 13, 60])
    def test_matches_square_and_multiply(self, N):
        rng = random.Random(N)
        gens = reference_generators(N)
        for R in (ZZ, PrimeField(3), IntegersMod(4)):
            for _ in range(3):
                f = ModularForm(R, {
                    (rng.randint(0, 9), rng.randint(0, 1), rng.randint(0, 4)):
                    R.from_int(rng.randint(-30, 30))
                    for _ in range(rng.randint(1, 4))})
                assert q_expansion(f, N) == reference_q_expansion(f, gens), f

    def test_constant_weight_zero(self):
        f = ModularForm.constant(ZZ, 5)
        q = q_expansion(f, 5)
        assert q.coeff((0,)) == 5 and all(
            q.coeff((k,)) == 0 for k in range(1, 5))


class TestMillerPower:
    @pytest.mark.parametrize("N", [1, 2, 17, 300])
    def test_matches_square_and_multiply(self, N):
        rng = random.Random(N)
        lists = list(_generators(N, True)) + [
            [1] + [rng.randint(-99, 99) for _ in range(N - 1)]
            for _ in range(2)]
        for f in lists:
            for k in (0, 1, 2, 3, 7, 60):
                assert int_series(_monomial([f], [k], N)) \
                    == int_series(f) ** k, k

    @pytest.mark.parametrize("N", [1, 2, 13, 60])
    def test_every_monomial_matches_square_and_multiply(self, N):
        # every normal-form monomial of weight <= 48, each by one recurrence,
        # against the product of the square-and-multiply powers
        gens = reference_generators(N)
        mons = [m for k in range(0, 49, 2) for m in basis_monomials(k)]
        assert len(mons) == 61
        for mon in mons:
            f = ModularForm.monomial(mon)
            assert q_expansion(f, N) == reference_q_expansion(f, gens), mon

    @pytest.mark.parametrize("N", [1, 2, 13, 60])
    def test_negative_exponents_multiply_back(self, N):
        # E4^a E6^b D^-k times D^k is E4^a E6^b
        gens = _generators(N, True)
        for a, b in ((0, 0), (1, 0), (0, 1), (3, 0), (2, 1), (7, 1)):
            for k in (1, 2):
                low = int_series(_monomial(gens, (a, b, -k), N))
                back = low * int_series(_monomial(gens, (0, 0, k), N))
                assert back == int_series(_monomial(gens, (a, b, 0), N)), \
                    (a, b, k)

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_delta_power_past_the_precision_is_zero(self, N):
        for mon in ((0, 0, N), (0, 0, N + 1), (2, 1, N)):
            q = q_expansion(ModularForm.monomial(mon), N)
            assert q == Series.zero(ZZ, ("q",), N), mon
        q = q_expansion(ModularForm(ZZ, {(0, 0, N): 1, (1, 0, 0): 1}), N)
        assert q == q_expansion(ModularForm.generator("c4"), N)

    def test_heaviest_monomial_within_budget(self):
        # c4^2258 c6 Delta^80 at the top precision: weight 10 000, the
        # slowest single monomial when it was the product of three powers
        f = ModularForm.monomial((2258, 1, 80))
        start = time.monotonic()
        q = q_expansion(f, QEXP_PRECISION_CAP)
        assert time.monotonic() - start < 2.0
        # leading terms of -E4^2258 E6 q^80 D^80, D = 1 - 24q + ...
        assert min(q.terms) == (80,) and q.coeff((80,)) == -1
        assert q.coeff((81,)) == -(240 * 2258 - 504 - 24 * 80)

    def test_sieve_matches_divisor_sums(self):
        N = 40
        e4, c6, delta = reference_generators(N + 1)
        gens = _generators(N, True)
        assert int_series(gens[0]) == e4.truncate(N)
        assert int_series(gens[1]) == c6.scale(-1).truncate(N)
        assert int_series(gens[2]).shift(1) == delta
        assert _generators(N, False) == (gens[0], gens[1], None)


class TestJExpansion:
    def test_pinned_coefficients(self):
        j = j_q_expansion(6)
        assert j.coeff((-1,)) == 1
        assert j.coeff((0,)) == 744
        assert j.coeff((1,)) == 196884
        assert j.coeff((2,)) == 21493760
        assert j.coeff((3,)) == 864299970
        assert j.coeff((4,)) == 20245856256

    def test_small_precision(self):
        j = j_q_expansion(1)
        assert j.coeff((-1,)) == 1

    @pytest.mark.parametrize("N,precision,top", [(1, 1, 0), (2, 1, 0),
                                                 (3, 2, 1), (4, 3, 2)])
    def test_precision_and_exponent_range(self, N, precision, top):
        j = j_q_expansion(N)
        assert j.precision == precision
        assert (min(j.terms), max(j.terms)) == ((-1,), (top,))

    def test_j_times_delta_is_c4_cubed(self):
        N = 10
        j = j_q_expansion(N)
        dq = q_expansion(ModularForm.generator("Delta"), j.precision)
        c43 = q_expansion(ModularForm.generator("c4"), j.precision) ** 3
        assert (j * dq).agrees_with(c43)


def rank(rows):
    """The rank over Q of an integer matrix, read off its Smith form."""
    D, _, _ = smith_normal_form(rows)
    return sum(1 for i, row in enumerate(D) if i < len(row) and row[i])


def first_independent_terms(k_max, N):
    """For each weight k <= k_max, the least m such that the first m
    q-coefficients of the weight-k basis monomials, each expanded by
    q_expansion to precision N, are independent over Q; None where N
    coefficients do not show it."""
    out = {}
    for k in range(k_max + 1):
        mons = basis_monomials(k)
        rows = [[e.coeff((n,)) for n in range(N)]
                for e in (q_expansion(ModularForm.monomial(mon), N)
                          for mon in mons)]
        out[k] = next((m for m in range(len(mons), N + 1)
                       if rank([row[:m] for row in rows]) == len(mons)),
                      None)
    return out


class TestInjectivity:
    def test_expansions_separate_forms(self):
        # c4^a c6^b Delta^c starts at q^c: the first dim M_k coefficients
        # separate the weight-k basis
        assert first_independent_terms(36, 8) == \
            {k: dimension(k) for k in range(37)}

    def test_caps(self):
        # the basis monomials of every weight up to 12, as one form, fit the
        # work cap at the precision cap, and their expansions there are
        # independent; those up to weight 18, 12 monomials, do not fit
        N = QEXP_PRECISION_CAP
        low = ModularForm(ZZ, {mon: 1 for k in range(13)
                               for mon in basis_monomials(k)})
        assert q_expansion(low, N).coeff((0,)) == 2
        assert None not in first_independent_terms(12, N).values()
        dims = [(0, 1), (4, 1), (6, 1), (8, 1), (10, 1), (12, 2), (14, 1),
                (16, 2), (18, 2)]
        work = sum((k + 100) * d for k, d in dims) * 1050 ** 2
        high = ModularForm(ZZ, {mon: 1 for k in range(19)
                                for mon in basis_monomials(k)})
        with pytest.raises(AlgebraError, match="expanding 12 monomials to "
                           "q-precision 1000, work %d, exceeds the "
                           "desk-scale cap %d" % (work, QEXP_WORK_CAP)):
            q_expansion(high, N)
        with pytest.raises(AlgebraError, match="q-precision 1001 exceeds "
                           "the desk-scale cap %d" % QEXP_PRECISION_CAP):
            q_expansion(low, N + 1)

    def test_insufficient_precision_reported(self):
        # two q-coefficients separate at most two forms
        first = first_independent_terms(48, 2)
        not_visible = [k for k, m in first.items() if m is None]
        assert not_visible == [k for k in range(49) if dimension(k) > 2]
        assert not_visible[:3] == [24, 28, 30]
        assert not_visible[-1] == 48


class TestSerialization:
    def test_roundtrip(self):
        f = ModularForm(ZZ, {(3, 0, 0): 2, (0, 1, 1): -7})
        assert ModularForm.from_json(f.to_json()) == f

    def test_term_order_deterministic(self):
        f = ModularForm(ZZ, {(3, 0, 0): 1, (0, 0, 1): 1, (0, 1, 1): 5})
        keys = [(t["c"], t["b"], t["a"]) for t in f.to_json()["terms"]]
        assert keys == sorted(keys)


@given(co=st.lists(st.integers(-9, 9), min_size=3, max_size=3),
       co2=st.lists(st.integers(-9, 9), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_expansion_ring_hom_random(co, co2):
    f = (ModularForm.generator("c4").scale(co[0])
         + ModularForm.generator("c6").scale(co[1])
         + ModularForm.generator("Delta").scale(co[2]))
    g = (ModularForm.monomial((2, 0, 0)).scale(co2[0])
         + ModularForm.monomial((0, 1, 1)).scale(co2[1])
         + ModularForm.constant(ZZ, co2[2]))
    N = 8
    # compare with agrees_with: when both factors are multiples of q the
    # valuation-aware product legitimately carries precision beyond N
    assert q_expansion(f * g, N).agrees_with(
        q_expansion(f, N) * q_expansion(g, N))
    assert q_expansion(f + g, N) == q_expansion(f, N) + q_expansion(g, N)
