"""Level-1 modular forms with exact coefficients.

The graded ring M_* = Z[c4, c6, Delta] / (c4^3 - c6^2 = 1728*Delta) over a
pluggable coefficient ring (Z, Q, Z[1/2], Z localized at a prime, F_p):
normal forms, weight bases and dimensions, and q-expansions obtained by the
Eisenstein substitution c4 -> E4(q), c6 -> -E6(q), worked out over Z with each
monomial by one J.C.P. Miller recurrence.  Nothing is cached between calls.
"""

from math import comb
from operator import mul, sub

from .algebra import (ZZ, AlgebraError, InternalCheckError, json_int,
                      monomial_str, power)
from .series import Series

#: weight of each polynomial generator
GENERATOR_WEIGHTS = {"c4": 4, "c6": 6, "Delta": 12}

#: desk-scale caps on a weight (of a basis, or of a monomial to expand), on
#: a q-precision, and on the work of a q-expansion, (min(weight, N) + 100)
#: (N + 50)^2 steps a monomial: a coefficient's size grows with its weight
#: up to about N.  The work cap admits one monomial of weight N or more at
#: the precision cap.  At N = 1000, c4 + c6 takes 0.01 s, j 0.4 s, and one
#: monomial of weight WEIGHT_CAP, c4^a c6^b Delta^c with c from 0 to 800,
#: 0.2-1.3 s (the heaviest have c4 and Delta factors); forms that fill the
#: work cap with lighter monomials, at N from 1 to 1000, take 0.01-2.9 s:
#: within a budget of 5 s a call (Python 3.11, 2 CPUs)
WEIGHT_CAP = 10000
QEXP_PRECISION_CAP = 1000
QEXP_WORK_CAP = (QEXP_PRECISION_CAP + 100) * (QEXP_PRECISION_CAP + 50) ** 2


def monomial_weight(mon):
    """Weight of the monomial c4^a * c6^b * Delta^c given as (a, b, c)."""
    a, b, c = mon
    return 4 * a + 6 * b + 12 * c


def monomial_label(mon):
    """Printable label for (a, b, c), e.g. 'c4^2*c6', 'Delta', '1'."""
    return monomial_str(("c4", "c6", "Delta"), mon)


class ModularForm:
    """Element of M_* over a coefficient ring, stored in normal form.

    ``terms`` maps monomials (a, b, c) -- meaning c4^a c6^b Delta^c with
    b <= 1 -- to nonzero ring elements.  Use :func:`normal_form` (or the
    arithmetic operators, which normalize) to build one from raw data with
    arbitrary c6 powers.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        clean = {}
        for mon, coeff in terms.items():
            a, b, c = mon
            if a < 0 or b < 0 or c < 0:
                raise AlgebraError("monomial exponents must be non-negative")
            if b >= 2:
                raise AlgebraError(
                    "monomial has c6 exponent %d; apply normal_form first" % b)
            if not ring.is_zero(coeff):
                clean[(a, b, c)] = coeff
        self.ring = ring
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring=ZZ):
        return cls(ring, {})

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, {(0, 0, 0): c})

    @classmethod
    def one(cls, ring=ZZ):
        return cls.constant(ring, ring.one)

    @classmethod
    def generator(cls, name, ring=ZZ):
        if name not in GENERATOR_WEIGHTS:
            raise AlgebraError("unknown generator %r" % (name,))
        mon = {"c4": (1, 0, 0), "c6": (0, 1, 0), "Delta": (0, 0, 1)}[name]
        return cls(ring, {mon: ring.one})

    @classmethod
    def monomial(cls, mon, ring=ZZ, coeff=None):
        return cls(ring, {tuple(mon): ring.one if coeff is None else coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def weight(self):
        """Common weight if homogeneous, None if zero, 'mixed' otherwise."""
        weights = {monomial_weight(m) for m in self.terms}
        if not weights:
            return None
        if len(weights) == 1:
            return weights.pop()
        return "mixed"

    def sorted_terms(self):
        """Terms sorted by (c, b, a), the basis enumeration order."""
        return sorted(self.terms.items(), key=lambda t: (t[0][2], t[0][1], t[0][0]))

    def coefficient(self, mon):
        return self.terms.get(tuple(mon), self.ring.zero)

    # -- arithmetic ---------------------------------------------------------

    def _require_same_ring(self, other):
        if self.ring != other.ring:
            raise AlgebraError("mismatched coefficient rings")

    def __add__(self, other):
        self._require_same_ring(other)
        R = self.ring
        terms = dict(self.terms)
        for mon, c in other.terms.items():
            terms[mon] = R.add(terms.get(mon, R.zero), c)
        return ModularForm(R, terms)

    def __neg__(self):
        R = self.ring
        return ModularForm(R, {m: R.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_same_ring(other)
        R = self.ring
        raw = {}
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                mon = (a1 + a2, b1 + b2, c1 + c2)
                raw[mon] = R.add(raw.get(mon, R.zero), R.mul(x, y))
        return normal_form(raw, R)

    def scale(self, c):
        R = self.ring
        return ModularForm(R, {m: R.mul(c, x) for m, x in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise AlgebraError("negative powers are not modular forms")
        return power(self, k, ModularForm.one(self.ring))

    def __eq__(self, other):
        return (isinstance(other, ModularForm) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(self.sorted_terms())))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        R = self.ring
        return {
            "terms": [{"a": a, "b": b, "c": c, "coeff": R.coeff_to_json(x)}
                      for (a, b, c), x in self.sorted_terms()],
            "ring": R.to_json(),
        }

    @classmethod
    def from_json(cls, obj, ring=None):
        from .algebra import ring_from_json
        if ring is None:
            if "ring" not in obj:
                raise AlgebraError("modular form JSON needs a 'ring' field")
            ring = ring_from_json(obj["ring"])
        raw = {}
        for t in obj["terms"]:
            mon = tuple(json_int(t[k], "integer exponent %r" % k)
                        for k in "abc")
            coeff = ring.coeff_from_json(t["coeff"])
            raw[mon] = ring.add(raw.get(mon, ring.zero), coeff)
        return normal_form(raw, ring)

    def __str__(self):
        if not self.terms:
            return "0"
        R = self.ring
        parts = []
        for mon, c in self.sorted_terms():
            cs = R.coeff_str(c)
            label = monomial_label(mon)
            if label == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(label)
            else:
                parts.append("%s*%s" % (cs, label))
        return " + ".join(parts)

    def __repr__(self):
        return "ModularForm(%s)" % self


def normal_form(raw, ring=ZZ):
    """Rewrite a raw polynomial in c4, c6, Delta into normal form.

    ``raw`` maps monomials (a, b, c) with arbitrary b >= 0 to coefficients;
    every c6^(2k+e) is rewritten as (c4^3 - 1728*Delta)^k * c6^e, that is
    sum_j C(k, j) c4^(3(k-j)) (-1728*Delta)^j c6^e, and like terms are
    collected.  Zero coefficients are dropped.
    """
    if isinstance(raw, ModularForm):
        return raw
    R = ring
    out = {}
    for (a, b, c), coeff in raw.items():
        if R.is_zero(coeff):
            continue
        k = max(b, 0) // 2
        for j in range(k + 1):
            mon = (a + 3 * (k - j), b - 2 * k, c + j)
            t = R.mul(R.from_int(comb(k, j) * (-1728) ** j), coeff) if k else coeff
            out[mon] = R.add(out[mon], t) if mon in out else t
    return ModularForm(R, out)


# ---------------------------------------------------------------------------
# weight bases


def _check_weight(k):
    if k > WEIGHT_CAP:
        raise AlgebraError("weight %d exceeds the desk-scale cap %d"
                           % (k, WEIGHT_CAP))


def basis_monomials(k):
    """Monomials (a, b, c) of weight k with b <= 1, in (c, b, a) lex order."""
    _check_weight(k)
    if k < 0:
        return []
    out = []
    for c in range(0, k // 12 + 1):
        for b in (0, 1):
            rem = k - 6 * b - 12 * c
            if rem >= 0 and rem % 4 == 0:
                out.append((rem // 4, b, c))
    return out


def dimension(k):
    """len(basis_monomials(k)) in closed form: k // 12 + 1 for even k >= 0,
    one less when k = 2 mod 12."""
    _check_weight(k)
    if k < 0 or k % 2:
        return 0
    return k // 12 + (k % 12 != 2)


# ---------------------------------------------------------------------------
# q-expansions


def _conv(f, g, N):
    """The first N coefficients of the product of two int lists, the second
    of N or more entries (the first may be shorter)."""
    return [sum(map(mul, f[:n + 1], g[n::-1])) for n in range(N)]


def _monomial(gens, exps, N):
    """The first N coefficients of g = prod f^e, for int lists f of N or
    more entries with f[0] = 1 and int exponents e of either sign, by one
    J.C.P. Miller recurrence (Knuth, TAOCP vol. 2, 4.7).  With
    theta = q d/dq, h the product of the factors present and
    K = sum e theta(f) h/f, h theta(g) = K g, that is
    n g_n = sum_{j=1..n} (K_j - (n-j) h_j) g_{n-j}, exact in Z.  h and
    k = K + theta(h) are built factor by factor from h = 1, k = 0: h
    becomes h f, and k becomes k f + (e+1) theta(f) h, which is
    (k - (e+1) theta(h)) f + (e+1) theta(h f), two products a factor."""
    present = [(f, e) for f, e in zip(gens, exps) if e]
    if [e for _, e in present] == [1]:
        return present[0][0][:N]
    h, k = [1], [0]
    for f, e in present:
        r = [x - (e + 1) * n * y for n, (x, y) in enumerate(zip(k, h))]
        h = _conv(h, f, N)
        k = [x + (e + 1) * n * y
             for n, (x, y) in enumerate(zip(_conv(r, f, N), h))]
    g = [1]
    for n in range(1, N):
        rev = g[::-1]
        a = sum(map(mul, k[1:n + 1], rev))
        b = sum(map(mul, h[1:n + 1], rev))
        g.append((a - n * b) // n)
    return g


def _generators(N, delta):
    """E4 and E6 by a divisor sieve and, if delta, D = Delta/q by the exact
    division Delta = (E4^3 - E6^2)/1728: N ints over Z each (D else None)."""
    e4 = [1] + [0] * N
    e6 = [1] + [0] * N
    for d in range(1, N + 1):
        t3, t5 = 240 * d ** 3, 504 * d ** 5
        for m in range(d, N + 1, d):
            e4[m] += t3
            e6[m] -= t5
    if not delta:
        return e4[:N], e6[:N], None
    num = map(sub, _monomial([e4], [3], N + 1), _conv(e6, e6, N + 1))
    d = []
    for n, x in enumerate(num):
        q, r = divmod(x, 1728)
        if r:
            raise InternalCheckError(
                "Delta q-expansion not integral at q^%d" % n)
        d.append(q)
    return e4[:N], e6[:N], d[1:]


def _check_precision(N):
    if N < 1:
        raise AlgebraError("q-precision must be at least 1")
    if N > QEXP_PRECISION_CAP:
        raise AlgebraError("q-precision %d exceeds the desk-scale cap %d"
                           % (N, QEXP_PRECISION_CAP))


def _check_work(weights, N):
    """Refuse to expand monomials of these weights to q-precision N when the
    work, (min(weight, N) + 100) * (N + 50)^2 steps a monomial, is past
    QEXP_WORK_CAP."""
    work = sum((min(w, N) + 100) * (N + 50) ** 2 for w in weights)
    if work > QEXP_WORK_CAP:
        raise AlgebraError("expanding %d monomials to q-precision %d, work "
                           "%d, exceeds the desk-scale cap %d"
                           % (len(weights), N, work, QEXP_WORK_CAP))


def q_expansion(f, N):
    """q-expansion of a ModularForm to precision N (exponents < N).

    Integral monomial expansions are computed over Z and then coerced into
    the form's coefficient ring, so integrality never depends on dividing
    by 1728 inside the target ring.
    """
    _check_precision(N)
    for mon in f.terms:
        if monomial_weight(mon) > WEIGHT_CAP:
            raise AlgebraError("monomial %s of weight %d exceeds the desk-scale "
                               "cap %d" % (monomial_label(mon),
                                           monomial_weight(mon), WEIGHT_CAP))
    _check_work([monomial_weight(mon) for mon in f.terms], N)
    gens = _generators(N, any(0 < c < N for _, _, c in f.terms))
    R = f.ring
    out = {}
    for (a, b, c), coeff in f.sorted_terms():
        if c >= N:
            continue
        # c4^a c6^b Delta^c = (-1)^b E4^a E6^b q^c D^c
        for n, x in enumerate(_monomial(gens, (a, b, c), N - c), c):
            e, v = (n,), R.mul(coeff, R.from_int((-1) ** b * x))
            out[e] = R.add(out[e], v) if e in out else v
    return Series(R, ("q",), N, out)


def j_q_expansion(N):
    """Laurent q-expansion of j = c4^3/Delta over Z: q^-1 + 744 + 196884q + ...

    The returned series shows exponents -1 .. N-2 (N terms) for N >= 2.
    """
    _check_precision(N)
    n = max(N, 2)
    g = _monomial(_generators(n, True), (3, 0, -1), n)
    j = Series(ZZ, ("q",), n, {(e,): x for e, x in enumerate(g)}).shift(-1)
    if j.coeff((-1,)) != 1:
        raise InternalCheckError("j-expansion must start with q^-1")
    if j.coeff((0,)) != 744:
        raise InternalCheckError("j-expansion constant term must be 744")
    if j.precision > 1 and j.coeff((1,)) != 196884:
        raise InternalCheckError("j-expansion q-coefficient must be 196884")
    return j
