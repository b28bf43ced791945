"""Coefficient rings and polynomials: exact arithmetic, unit detection,
JSON round trips, and ring axioms on randomized elements."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit.algebra import (
    AlgebraError, InternalCheckError, NotDivisible, NotInvertible,
    ZZ, QQ, IntegersMod, PrimeField, LocalizedIntegers, QuadExtField,
    Poly, PolynomialRing, ring_from_json, is_prime, poly_gcd,
    smith_normal_form, in_column_span, integer_kernel, power, monomial_str,
    RING_DEPTH_CAP, SMITH_BITS_CAP, _quad_irreducible,
)
from tmfkit.chart import k1_tmf_p2

small_ints = st.integers(min_value=-50, max_value=50)


class TestExceptions:
    def test_domain_errors_are_algebra_errors(self):
        assert issubclass(NotDivisible, AlgebraError)
        assert issubclass(NotInvertible, AlgebraError)

    def test_internal_check_error_is_not_an_input_error(self):
        # internal consistency failures must not be swallowed by handlers
        # that catch input-level AlgebraErrors
        assert not issubclass(InternalCheckError, AlgebraError)
        assert issubclass(InternalCheckError, Exception)


class TestPrimality:
    def test_small_values(self):
        primes = [n for n in range(60) if is_prime(n)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                          41, 43, 47, 53, 59]

    def test_cap(self):
        with pytest.raises(AlgebraError):
            is_prime(10 ** 7)


class TestIntegers:
    def test_basics(self):
        assert ZZ.add(2, 3) == 5
        assert ZZ.mul(-4, 6) == -24
        assert ZZ.sub(2, 9) == -7
        assert ZZ.characteristic() == 0

    def test_units(self):
        assert ZZ.is_unit(1) and ZZ.is_unit(-1)
        assert not ZZ.is_unit(2)
        with pytest.raises(NotInvertible):
            ZZ.inv(2)

    def test_divide(self):
        assert ZZ.divide(12, 4) == 3
        with pytest.raises(NotDivisible):
            ZZ.divide(7, 2)

    def test_json(self):
        assert ZZ.coeff_to_json(5) == 5
        assert ZZ.coeff_from_json(-3) == -3
        assert ring_from_json(ZZ.to_json()) == ZZ


class TestRationals:
    def test_field_ops(self):
        half = QQ.divide(QQ.one, QQ.from_int(2))
        assert QQ.add(half, half) == QQ.one
        assert QQ.is_unit(half)
        assert QQ.mul(QQ.inv(half), half) == QQ.one

    def test_json_convention(self):
        assert QQ.coeff_to_json(QQ.from_int(7)) == 7
        third = QQ.divide(QQ.one, QQ.from_int(3))
        assert QQ.coeff_to_json(third) == "1/3"
        assert QQ.eq(QQ.coeff_from_json("1/3"), third)
        assert QQ.eq(QQ.coeff_from_json(4), QQ.from_int(4))


class TestIntegersMod:
    def test_arithmetic(self):
        R = IntegersMod(12)
        assert R.add(R.from_int(7), R.from_int(8)) == R.from_int(3)
        assert R.characteristic() == 12

    def test_units(self):
        R = IntegersMod(12)
        assert R.is_unit(R.from_int(5))
        assert not R.is_unit(R.from_int(4))
        assert R.mul(R.inv(R.from_int(5)), R.from_int(5)) == R.one
        with pytest.raises(NotInvertible):
            R.inv(R.from_int(6))

    def test_prime_field(self):
        F = PrimeField(7)
        assert isinstance(F, IntegersMod)
        for a in range(1, 7):
            assert F.mul(F.inv(a), a) == F.one
        with pytest.raises(AlgebraError):
            PrimeField(6)

    def test_json(self):
        R = IntegersMod(10)
        assert ring_from_json(R.to_json()) == R
        F = PrimeField(5)
        assert ring_from_json(F.to_json()) == F
        assert ring_from_json(F.to_json()).to_json()["kind"] == "PrimeField"


class TestLocalizedIntegers:
    def test_inverted(self):
        R = LocalizedIntegers(inverted=(2,))
        assert R.to_json()["kind"] == "ZInverted"
        half = R.coeff_from_json("1/2")
        assert R.is_unit(half)
        assert R.is_unit(R.from_int(-8))
        assert not R.is_unit(R.from_int(3))
        assert R.mul(half, R.from_int(2)) == R.one

    def test_localized(self):
        R = LocalizedIntegers(at=3)
        assert R.to_json()["kind"] == "ZLocalAt"
        assert R.is_unit(R.from_int(2))
        assert R.is_unit(R.from_int(-7))
        assert not R.is_unit(R.from_int(3))
        assert not R.is_unit(R.from_int(12))
        with pytest.raises(NotInvertible):
            R.inv(R.from_int(3))

    def test_denominator_guard(self):
        R = LocalizedIntegers(at=3)
        with pytest.raises(AlgebraError):
            R.check(Fraction(1, 3))
        R.check(Fraction(1, 2))   # fine: 2 is invertible away from 3

    def test_constructor_guards(self):
        with pytest.raises(AlgebraError):
            LocalizedIntegers()
        with pytest.raises(AlgebraError):
            LocalizedIntegers(inverted=(4,))
        with pytest.raises(AlgebraError):
            LocalizedIntegers(inverted=(2,), at=3)

    def test_json(self):
        for R in (LocalizedIntegers(inverted=(2,)), LocalizedIntegers(at=3)):
            assert ring_from_json(R.to_json()) == R


class TestQuadExtField:
    def test_field_axioms_small(self):
        F = QuadExtField(3)
        elems = [(a, b) for a in range(3) for b in range(3)]
        for u in elems:
            assert F.add(u, F.neg(u)) == F.zero
            if u != F.zero:
                assert F.mul(u, F.inv(u)) == F.one
        # multiplicative group has order p^2 - 1
        x = next(e for e in elems if e[1] != 0)
        assert F.pow(x, 8) == F.one

    def test_frobenius_fixed_field(self):
        F = QuadExtField(5)
        for n in range(5):
            a = F.from_int(n)
            assert F.pow(a, 5) == a     # F_p is Frobenius-fixed
        gen = (0, 1)
        assert F.pow(gen, 5) != gen     # x itself is not

    def test_reducible_modulus_rejected(self):
        with pytest.raises(AlgebraError):
            QuadExtField(3, modulus=(2, 0))  # x^2 + 2 = (x-1)(x+1) mod 3

    @staticmethod
    def has_no_root(p, b, c):
        return all((x * x + b * x + c) % p for x in range(p))

    def test_euler_criterion_matches_root_scan(self):
        for p in filter(is_prime, range(60)):
            for b in range(p):
                for c in range(p):
                    assert _quad_irreducible(p, b, c) == \
                        self.has_no_root(p, b, c), (p, b, c)
        for p in filter(is_prime, range(1000)):
            b, c = next((b, c) for b in range(p) for c in range(p)
                        if self.has_no_root(p, b, c))
            assert QuadExtField(p).to_json()["modulus"] == [c, b, 1], p

    def test_large_prime_modulus_search_is_fast(self):
        t0 = time.perf_counter()
        F = QuadExtField(999961)
        assert time.perf_counter() - t0 < 0.05
        assert F.mul((0, 1), (0, 1)) == F.neg((F.c, F.b))


class TestPoly:
    def test_normalization(self):
        f = Poly(ZZ, [1, 2, 0, 0])
        assert f.degree() == 1
        assert Poly(ZZ, [0, 0]).is_zero()
        assert Poly(ZZ, []).degree() == -1

    def test_arithmetic(self):
        x = Poly.x(ZZ)
        f = (x + Poly.constant(ZZ, 1)) ** 2
        assert f.coeffs == (1, 2, 1)
        assert (f - f).is_zero()
        value = 0
        for c in reversed(f.coeffs):   # Horner's rule at x = 3
            value = value * 3 + c
        assert value == 16
        assert (x ** 0).coeffs == (1,)
        with pytest.raises(AlgebraError):
            x ** -1

    def test_divmod(self):
        F = PrimeField(7)
        x = Poly.x(F)
        f = x ** 3 + Poly.constant(F, 6)
        q, r = f.divmod(x + Poly.constant(F, 1))
        assert (q * (x + Poly.constant(F, 1)) + r) == f

    def test_gcd(self):
        F = PrimeField(5)
        x = Poly.x(F)
        f = (x + Poly.constant(F, 1)) * (x + Poly.constant(F, 2))
        g = (x + Poly.constant(F, 1)) * (x + Poly.constant(F, 3))
        d = poly_gcd(f, g)
        assert d.monic().coeffs == (1, 1)

    def test_to_string(self):
        F = PrimeField(13)
        assert Poly.from_ints(F, [8, 1]).to_string("j") == "j + 8"
        F11 = PrimeField(11)
        assert Poly.from_ints(F11, [0, 10, 1]).to_string("j") == "j^2 + 10*j"
        assert Poly.from_ints(ZZ, [0, 1]).to_string("j") == "j"
        assert Poly.from_ints(ZZ, []).to_string("j") == "0"

    def test_polynomial_ring_wrapper(self):
        R = PolynomialRing(PrimeField(3))
        a = Poly.from_ints(PrimeField(3), [1, 1])
        assert R.mul(a, a).coeffs == (1, 2, 1)

    def test_polynomial_ring_nesting_cap(self):
        R = PrimeField(3)
        for depth in range(1, RING_DEPTH_CAP + 1):
            R = PolynomialRing(R)
            assert R.depth == depth
        with pytest.raises(AlgebraError, match="desk-scale cap %d"
                           % RING_DEPTH_CAP):
            PolynomialRing(R)


def test_power_multiplies_only_what_it_reads():
    # square and multiply: one product per set bit and one squaring per bit
    # below the top one; the square after the top bit would never be read
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b

    for n in range(70):
        calls.clear()
        assert power(3, n, 1, mul) == 3 ** n
        want = n.bit_length() - 1 + bin(n).count("1") if n else 0
        assert len(calls) == want, n
    with pytest.raises(AlgebraError):
        power(3, -1, 1, mul)


# -- randomized ring axioms -------------------------------------------------

RINGS = [ZZ, QQ, IntegersMod(12), PrimeField(7),
         LocalizedIntegers(inverted=(2,)), LocalizedIntegers(at=3)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_json()["kind"])
@given(a=small_ints, b=small_ints, c=small_ints)
@settings(max_examples=40, deadline=None)
def test_ring_axioms(ring, a, b, c):
    x, y, z = ring.from_int(a), ring.from_int(b), ring.from_int(c)
    assert ring.eq(ring.add(x, y), ring.add(y, x))
    assert ring.eq(ring.mul(x, y), ring.mul(y, x))
    assert ring.eq(ring.add(ring.add(x, y), z), ring.add(x, ring.add(y, z)))
    assert ring.eq(ring.mul(ring.mul(x, y), z), ring.mul(x, ring.mul(y, z)))
    assert ring.eq(ring.mul(x, ring.add(y, z)),
                   ring.add(ring.mul(x, y), ring.mul(x, z)))
    assert ring.eq(ring.add(x, ring.neg(x)), ring.zero)
    assert ring.eq(ring.mul(x, ring.one), x)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_json()["kind"])
@given(a=small_ints)
@settings(max_examples=25, deadline=None)
def test_unit_inverse_roundtrip(ring, a):
    x = ring.from_int(a)
    if ring.is_unit(x):
        assert ring.eq(ring.mul(ring.inv(x), x), ring.one)
    else:
        with pytest.raises(NotInvertible):
            ring.inv(x)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.to_json()["kind"])
@given(a=small_ints)
@settings(max_examples=25, deadline=None)
def test_coeff_json_roundtrip(ring, a):
    x = ring.from_int(a)
    blob = json.dumps(ring.coeff_to_json(x))
    assert ring.eq(ring.coeff_from_json(json.loads(blob)), x)


# -- ring identity: a ring is its to_json() descriptor ------------------------

EVERY_KIND = [ZZ, QQ, IntegersMod(12), PrimeField(7), QuadExtField(5),
              QuadExtField(7, modulus=(1, 0, 1)),
              LocalizedIntegers(inverted=(2,)), LocalizedIntegers(at=3),
              PolynomialRing(PrimeField(3))]


@pytest.mark.parametrize("ring", EVERY_KIND, ids=repr)
def test_ring_identity_roundtrips(ring):
    again = ring_from_json(json.loads(json.dumps(ring.to_json())))
    assert again == ring and not again != ring
    assert hash(again) == hash(ring)
    assert [R for R in EVERY_KIND if R == ring] == [ring]


@pytest.mark.parametrize("a,b", [
    (PrimeField(7), IntegersMod(7)),
    (QQ, LocalizedIntegers(inverted=(2,))),
    (QQ, LocalizedIntegers(at=3)),
    (LocalizedIntegers(inverted=(3,)), LocalizedIntegers(at=3)),
    (QuadExtField(5), QuadExtField(5, modulus=(3, 0, 1))),
    (PolynomialRing(PrimeField(3)), PolynomialRing(PrimeField(3), "S")),
], ids=repr)
def test_ring_identity_distinguishes(a, b):
    assert a != b and b != a
    assert not a == b and not b == a


# -- Smith normal form and the integer solvers built on it -------------------

def matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(len(B[0]) if B else 0)] for i in range(len(A))]


def apply(M, x):
    return [sum(a * b for a, b in zip(row, x)) for row in M]


def det(M):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    a = [list(r) for r in M]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def random_int_matrix(rng, rows, cols):
    """Entries in [-6, 6] at a random density, sometimes with a zero row
    and a zero column."""
    density = rng.random()
    M = [[rng.randint(-6, 6) if rng.random() < density else 0
          for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        M[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in M:
            row[j] = 0
    return M


def solve_by_back_substitution(smith, target):
    """The oracle for in_column_span: solve mat * x = target over Z through
    smith = (D, U, V) of mat, as w = D^-1 U target and x = V w; None when D
    does not divide U target or it is nonzero past the diagonal."""
    D, U, V = smith
    cols = len(V)
    b = apply(U, target)
    w = [0] * cols
    for i in range(len(U)):
        d = D[i][i] if i < cols else 0
        if d:
            if b[i] % d != 0:
                return None
            w[i] = b[i] // d
        elif b[i] != 0:
            return None
    return apply(V, w)


def test_smith_normal_form_properties():
    rng = random.Random("smith")
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        if rows == 0:
            cols = 0   # a list of no rows has no columns
        M = random_int_matrix(rng, rows, cols)
        D, U, V = smith_normal_form(M)
        assert D == matmul(matmul(U, M), V), M
        assert abs(det(U)) == 1 and abs(det(V)) == 1, M
        diag = [D[i][i] for i in range(min(rows, cols))]
        assert all(D[i][j] == 0 for i in range(rows) for j in range(cols)
                   if i != j), M
        assert all(d >= 0 for d in diag), M
        for d1, d2 in zip(diag, diag[1:]):
            assert (d2 == 0) if d1 == 0 else (d2 % d1 == 0), M
        kernel = integer_kernel(M)
        assert len(kernel) == cols - sum(1 for d in diag if d)
        for k in kernel:
            assert apply(M, k) == [0] * rows, (M, k)
        smith = (D, U, V)
        b = apply(M, [rng.randint(-4, 4) for _ in range(cols)])
        assert in_column_span(smith, b), (M, b)
        b = [rng.randint(-4, 4) for _ in range(rows)]
        x = solve_by_back_substitution(smith, b)
        assert in_column_span(smith, b) == (x is not None), (M, b)
        assert x is None or apply(M, x) == b, (M, b)


@pytest.mark.parametrize("M,D,U,V", [
    # the divisibility fix turns diag(2, 3) into diag(1, 6)
    ([[2, 0], [0, 3]], [[1, 0], [0, 6]],
     [[-1, 1], [-3, 2]], [[1, -3], [1, -2]]),
    # the sign pass after the divisibility fix makes d_1 positive
    ([[2, 10], [-54, 9], [0, 24]], [[1, 0], [0, 6], [0, 0]],
     [[-82, -3, 35], [-165, -6, 70], [216, 8, -93]], [[-4, 7], [1, -2]]),
])
def test_smith_normal_form_pinned(M, D, U, V):
    # U and V are pinned, not only D: integer_kernel reads its basis off V
    assert smith_normal_form(M) == (D, U, V)


def test_smith_transform_entries_are_capped():
    # the reduced matrix stays under the cap here, but U or V reaches an
    # entry of 9560 bits
    rng = random.Random(608)
    n = rng.randint(3, 9)
    M = [[rng.randint(-3000, 3000) for _ in range(n)] for _ in range(n)]
    assert n == 4
    with pytest.raises(AlgebraError) as exc:
        smith_normal_form(M)
    assert "transform entry of 9560 bits exceeds the desk-scale cap %d" \
        % SMITH_BITS_CAP in str(exc.value)


# the monomial printers that monomial_str replaced, kept as its oracles


def old_mon_str(vars, exp):
    parts = [v if k == 1 else "%s^%d" % (v, k)
             for v, k in zip(vars, exp) if k]
    return "*".join(parts) if parts else "1"


def old_monomial_label(mon):
    a, b, c = mon
    parts = []
    for name, e in (("c4", a), ("c6", b), ("Delta", c)):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts) if parts else "1"


def old_tors_label(e, f, c):
    parts = []
    if e:
        parts.append("alpha")
    if f == 1:
        parts.append("beta")
    elif f:
        parts.append("beta^%d" % f)
    if c == 1:
        parts.append("Delta")
    elif c:
        parts.append("Delta^%d" % c)
    return "*".join(parts) if parts else "1"


def old_series_monomial(vars, e):
    return "*".join(v if k == 1 else "%s^%d" % (v, k)
                    for v, k in zip(vars, e) if k != 0)


def old_k1_label(n):
    base = {0: "", 1: "eta", 2: "eta^2", 4: "v"}[n % 8]
    g = (n - {"": 0, "eta": 1, "eta^2": 2, "v": 4}[base]) // 8
    bpart = "" if g == 0 else ("b" if g == 1 else "b^%d" % g)
    return "*".join(p for p in (base, bpart) if p) or "1"


def test_monomial_str_matches_the_printers_it_replaced():
    grid = range(-3, 4)
    assert monomial_str((), ()) == old_mon_str((), ()) == "1"
    for e in grid:
        assert monomial_str(("t",), (e,)) == old_mon_str(("t",), (e,))
        for f in grid:
            for c in grid:
                names, exps = ("x", "y", "_z"), (e, f, c)
                assert monomial_str(names, exps) == old_mon_str(names, exps)
                if exps != (0, 0, 0):
                    assert monomial_str(names, exps) == \
                        old_series_monomial(names, exps)
                assert monomial_str(("c4", "c6", "Delta"), exps) == \
                    old_monomial_label(exps)
                if e in (0, 1):   # alpha^2 = 0: the chart printed alpha only
                    assert monomial_str(("alpha", "beta", "Delta"), exps) \
                        == old_tors_label(*exps)
    for n in range(-40, 40):
        if n % 8 in (0, 1, 2, 4):
            assert k1_tmf_p2(n, 2, 3)["monomial"] == old_k1_label(n)
