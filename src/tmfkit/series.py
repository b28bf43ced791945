"""Truncated multivariate power series over an exact coefficient ring.

Storage is a dict from exponent tuples to nonzero ring payloads; truncation is
by total degree (all monomials of total degree >= precision are dropped).
A series of one variable may have negative exponents: a pole, as in the x
and y of a curve's formal group and in j = q^-1 + 744 + ...; whether it has
one is read off its terms.  A series of several variables may not, and the
constructor refuses one.  The constructor is the one place that drops
zero terms and terms at or above the precision; the kernels may keep zeros
in their accumulators, and every operation hands its terms to it unfiltered.

The kernels (_product, subst's Horner loop and its monomials, and
inverse_unit) key a monomial by one int, the packed exponent vectors of
Monagan & Pearce (CASC 2007) in graded form: the total degree, then all
exponents but the last as digits in base n, the degree bound (the exponent
itself with one variable; d*n + e0 or (d*n + e0)*n + e1 with two or three).
Only series of one variable have negative exponents; so a pair of total
degree below n has every digit of its sum below n, and the keys add with no
carry.
A key's degree is key // n^(k-1), and keys sort by degree.  Multivariate
terms of degree n or more are dropped before packing: at base n, (n, 0) and
(0, n + 1) would share a key.  _pairs is the one loop that multiplies and
adds coefficients; every kernel but _solve_implicit calls it.

The rings with int or Fraction payloads (Z, Q, Z/m, F_p and the localized
integers: the rings with the to_cleared hook) run the kernels on plain
ints; only F_{p^2} and F_p[T] keep ring arithmetic.  Over Q and its
localizations the ints are numerators over one common denominator, with one
Fraction built per output term (the layout of FLINT's fmpq_poly).  A product
clears each factor once; subst clears its operands once and keeps the
Horner accumulator cleared for the whole call, its denominator the product
of the factors' and the lcm with each added term's (see subst).  Every step
is exact integer arithmetic on the numerators of one rational series, and a
Fraction is canonical, so each result is the one ring arithmetic gives step
by step.  Over Z and Z/m each denominator is 1 or a power of a unit, and
from_cleared is the ring's divide.  Over Z/m and F_p the ints are reduced
mod m once per Horner step, memoized monomial, _solve_implicit dot product
and inverse_unit degree, and by from_cleared once per output term: the
delayed reduction of Monagan & Pearce's sdmp.

Substitution has one precision rule: compose and subst return precision
n = min of the precisions of the outer series and of the values, and claim
nothing above it.  The rule is sound: the unknown terms of the outer series
start at its precision, and values of positive valuation keep them at that
degree or above; an unknown term of a value, at its precision or above,
stays there in every power of the value.  compose is subst with one value,
so both run subst's degree-truncated Horner loop.

Reversion is one implicit solve, _solve_implicit: the y with
H(t, y(t)) = 0, one coefficient per degree from a table of the powers of y
that grows by one degree per step (Knuth, TAOCP vol. 2, 4.7), with no
composition or substitution.  Series.reverse solves f(y) = t,
FormalGroupLaw.formal_inverse solves F(t, y) = 0, and the curve's
formal_group solves the Weierstrass equation for w(z).  On rings with the
to_cleared hook it runs on plain ints scaled by powers of h_01's numerator,
with one from_cleared per output term.
"""

from bisect import bisect_right
from functools import reduce
from math import inf, lcm
from operator import itemgetter, mul

from .algebra import AlgebraError, NotDivisible, json_int, monomial_str, power


def _packing(k, n):
    """(pack, unpack, s) for graded int keys of exponent tuples of k
    variables: the key of e is deg(e) * s + the digits e[0], ..., e[k-2] in
    base n, with s = n^(k-1) (the exponent itself for k = 1).  So a key's
    degree is key // s, and keys sort by degree.  Exact for tuples of total
    degree below n with no negative component (any exponent when k = 1):
    then every digit is below n."""
    if k == 1:
        return itemgetter(0), lambda key: (key,), 1
    if k == 2:
        def unpack(key):
            d, a = divmod(key, n)
            return a, d - a
        return (lambda e: (e[0] + e[1]) * n + e[0]), unpack, n

    def pack(e):
        return ((e[0] + e[1] + e[2]) * n + e[0]) * n + e[1]

    def unpack(key):
        d, r = divmod(key, n * n)
        a, b = divmod(r, n)
        return a, b, d - a - b
    return pack, unpack, n * n


def _lift(R, terms, pack, cut):
    """The terms of total degree below cut, packed and cleared, as (pairs,
    D): the (key, c) pairs sorted by key, each payload equal to c over D on
    rings with the to_cleared hook, and the payloads themselves with D = 1
    on the others."""
    kept = {pack(e): c for e, c in terms.items() if sum(e) < cut}
    if R.to_cleared is None:
        return sorted(kept.items()), 1
    cs, D = R.to_cleared(list(kept.values()))
    return sorted(zip(kept, cs)), D


def _lower(R, acc, D, unpack):
    """The term dict of a packed accumulator over D: one from_cleared per
    nonzero term on rings with the to_cleared hook."""
    if R.to_cleared is None:
        return {unpack(k): c for k, c in acc.items()}
    back = R.from_cleared
    return {unpack(k): back(c, D) for k, c in acc.items() if c}


def _reduce(R, acc):
    """A packed accumulator with each int reduced mod R.characteristic() on
    the int path over Z/m and F_p; acc itself on every other ring (Z, Q and
    Z_(p) have characteristic 0, and ring payloads are reduced already)."""
    p = R.to_cleared and R.characteristic()
    return {k: c % p for k, c in acc.items()} if p else acc


def _pairs(R, out, t1, f2, n, s):
    """The packed pair loop: adds into the dict out, and returns it, the
    terms below degree n of the product of t1 and f2, iterables of (key, c)
    with the keys of _packing (degree key // s) at a base of n or more, f2
    sorted by key.  A pair has degree below n exactly when its f2 key is
    below (n - deg) * s, deg the degree of its t1 key; f2 is sorted, so the
    loop breaks at the first partner past that bound.  Every kept pair has
    degree below n, so every digit of its key sum is below n and the sum,
    with no carry, is the key of the product monomial.  Zero coefficients
    may be left in, and on the int path the sums are left unreduced."""
    if R.to_cleared is not None:
        # plain ints: the operators inline
        get = out.get
        for k1, c1 in t1:
            lim = (n - k1 // s) * s
            for k2, c2 in f2:
                if k2 >= lim:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return out
    plus, times = R.add, R.mul
    for k1, c1 in t1:
        lim = (n - k1 // s) * s
        for k2, c2 in f2:
            if k2 >= lim:
                break
            k = k1 + k2
            p = times(c1, c2)
            out[k] = plus(out[k], p) if k in out else p
    return out


def _product(R, t1, t2, n):
    """Terms of the product of two term dicts below total degree n.  Zero
    coefficients may be left in; the Series constructor drops them.

    Multivariate terms of degree n or more meet no partner below n and are
    dropped, so every term kept has a packed key of its own (_packing at
    base n); one-variable keys are the exponents, Laurent tails included.
    The pairs run through _pairs, and the int-keyed result is decoded back
    to tuples once per output term.

    When R has the to_cleared hook, each factor is cleared once, c = a / D
    with D the lcm of its denominators (1 over Z and Z/m), and the pairs
    are convolved in plain ints: the coefficient of e is
    (sum a1 * a2) / (D1 * D2), mapped back (and over Z/m reduced) by one
    from_cleared per output term.  Other rings use R.add and R.mul."""
    if not t1 or not t2:
        return {}
    k = len(next(iter(t1)))
    pack, unpack, s = _packing(k, n)
    cut = n if k > 1 else inf
    a, D1 = _lift(R, t1, pack, cut)
    b, D2 = _lift(R, t2, pack, cut)
    return _lower(R, _pairs(R, {}, a, b, n, s), D1 * D2, unpack)


def _solve_implicit(R, H, n):
    """The terms {(k,): y_k}, 1 <= k < n, of the power series y with
    y(0) = 0 and H(t, y(t)) = 0 below degree n.  H is a term dict
    {(a, b): h_ab} in (t, y) with no constant term, and h_01 is a unit.

    One degree at a time (the power-table reversion of Knuth, TAOCP
    vol. 2, 4.7): the t^k coefficient of H(t, y) is h_01 y_k plus the sum
    of h_ab P_b[k - a] over the other terms, with P_b[m] = [t^m] y^b.  An
    entry P_b[k], b >= 2, involves y_i only for i <= k - b + 1, so each
    step first extends the table of powers of y by its degree-k entries,
    P_b[k] = sum_i y_i P_(b-1)[k - i], and then sets
    y_k = -h_01^-1 * (that sum).  Every step is exact in any commutative
    ring.

    On rings with the to_cleared hook the solve runs on plain ints, with
    one from_cleared per output term.  With A_ab the numerators of H over a
    common denominator and U = A_01, the integers Y_k = U^(2k-1) y_k and
    Q_(b,m) = U^(2m-b) P_b[m] satisfy
    Y_k = -sum A_ab U^(2a+b-2) Q_(b,k-a) and
    Q_(b,m) = sum_i Y_i Q_(b-1,m-i); the exponent 2a + b - 2 is never
    negative, as (a, b) is neither (0, 0) nor (0, 1).  Over Z/m and F_p
    each dot product is reduced mod the characteristic."""
    keys = sorted((e for e in H if sum(e) and e != (0, 1)), key=sum)
    # cs holds the factors -h_ab / h_01 (-A_ab U^(2a+b-2) on plain ints)
    if R.to_cleared is None:
        zero, one = R.zero, R.one
        m = R.neg(R.inv(H[0, 1]))
        cs = [R.mul(m, H[e]) for e in keys]

        def dot(xs, ys):
            return reduce(R.add, map(R.mul, xs, ys), zero)
    else:
        A = dict(zip(H, R.to_cleared(list(H.values()))[0]))
        U = A[0, 1]
        zero, one = 0, 1
        p = R.characteristic()
        cs = [-A[a, b] * U ** (2 * a + b - 2) for a, b in keys]

        def dot(xs, ys):
            x = sum(map(mul, xs, ys))
            return x % p if p else x
    degs = [sum(e) for e in keys]
    top = max([b for _, b in keys] + [1])
    # P[b][m] = [t^m] y^b; P[1] is y itself
    P = [[one] + [zero] * (n - 1)] + [[zero] * n for _ in range(top)]
    y = P[1]
    for k in range(1, n):
        for b in range(2, min(k, top) + 1):
            P[b][k] = dot(y[1:k - b + 2], P[b - 1][k - 1:b - 2:-1])
        j = bisect_right(degs, k)
        y[k] = dot(cs[:j], [P[b][k - a] for a, b in keys[:j]])
    if R.to_cleared is None:
        return {(k,): c for k, c in enumerate(y) if k}
    back = R.from_cleared
    return {(k,): back(c, U ** (2 * k - 1)) for k, c in enumerate(y) if c}


class Series:
    __slots__ = ("ring", "vars", "precision", "terms")

    def __init__(self, ring, vars, precision, terms=None):
        if not (1 <= len(vars) <= 3):
            raise AlgebraError("series support 1 to 3 variables")
        if precision < 1:
            raise AlgebraError("precision must be positive")
        self.ring = ring
        self.vars = tuple(vars)
        self.precision = precision
        is_zero = ring.is_zero
        self.terms = {e: c for e, c in (terms or {}).items()
                      if sum(e) < precision and not is_zero(c)}
        if len(vars) > 1 and min(map(min, self.terms), default=0) < 0:
            raise AlgebraError("a series of several variables has no "
                               "negative exponents")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, vars, precision):
        return cls(ring, vars, precision, {})

    @classmethod
    def constant(cls, ring, vars, precision, c):
        z = (0,) * len(vars)
        return cls(ring, vars, precision, {z: c})

    @classmethod
    def one(cls, ring, vars, precision):
        return cls.constant(ring, vars, precision, ring.one)

    @classmethod
    def gen(cls, ring, vars, precision, name):
        vars = tuple(vars)
        i = vars.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(ring, vars, precision, {e: ring.one})

    def _like(self, terms, precision=None):
        return Series(self.ring, self.vars,
                      self.precision if precision is None else precision,
                      terms)

    # -- inspection ---------------------------------------------------------

    def coeff(self, exp):
        if isinstance(exp, int):
            exp = (exp,)
        return self.terms.get(tuple(exp), self.ring.zero)

    def is_zero(self):
        return not self.terms

    def _has_pole(self):
        """One variable and a term of negative degree."""
        return len(self.vars) == 1 and any(e < 0 for (e,) in self.terms)

    def valuation(self):
        """Minimal total degree of a nonzero term; None for the zero series."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def constant_term(self):
        return self.coeff((0,) * len(self.vars))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __eq__(self, other):
        return (isinstance(other, Series) and other.ring == self.ring
                and other.vars == self.vars and other.precision == self.precision
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.ring, self.vars, self.precision,
                     tuple(self.sorted_terms())))

    def agrees_with(self, other, upto=None):
        """Equality of coefficients below min(precisions) (and upto, if given)."""
        if self.ring != other.ring or self.vars != other.vars:
            return False
        n = min(self.precision, other.precision)
        if upto is not None:
            n = min(n, upto)
        for exp, c in self.terms.items():
            if sum(exp) < n and not self.ring.eq(c, other.coeff(exp)):
                return False
        for exp, c in other.terms.items():
            if sum(exp) < n and not self.ring.eq(c, self.coeff(exp)):
                return False
        return True

    # -- ring operations ----------------------------------------------------

    def _align(self, other):
        if not isinstance(other, Series):
            raise AlgebraError("expected a series, got %r" % (other,))
        if other.ring != self.ring or other.vars != self.vars:
            raise AlgebraError("mismatched series (ring or variables differ)")

    def __add__(self, other):
        self._align(other)
        R = self.ring
        n = min(self.precision, other.precision)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = R.add(out[exp], c) if exp in out else c
        return Series(R, self.vars, n, out)

    def __neg__(self):
        R = self.ring
        return self._like({e: R.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._align(other)
        # a factor of valuation v pushes the other factor's window up by v
        v1 = self.valuation()
        v2 = other.valuation()
        if v1 is None or v2 is None:
            n = min(self.precision, other.precision)
        else:
            n = min(self.precision + v2, other.precision + v1)
        return Series(self.ring, self.vars, n,
                      _product(self.ring, self.terms, other.terms, n))

    def scale(self, c):
        R = self.ring
        return self._like({e: R.mul(c, a) for e, a in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise AlgebraError("negative series powers not supported")
        return power(self, k, Series.one(self.ring, self.vars, self.precision))

    def shift(self, k):
        """Multiply by the k-th power of the single variable (k may be
        negative, leaving a pole).  The window of known terms moves with the
        series, so the precision changes by k as well."""
        if len(self.vars) != 1:
            raise AlgebraError("shift is single-variable only")
        n = self.precision + k
        if n < 1:
            raise AlgebraError("shift would exhaust the precision")
        out = {(e[0] + k,): c for e, c in self.terms.items()}
        return Series(self.ring, self.vars, n, out)

    def map_coeffs(self, fn, new_ring=None):
        """Apply fn to every coefficient (e.g. reduction mod p)."""
        R = new_ring if new_ring is not None else self.ring
        return Series(R, self.vars, self.precision,
                      {e: fn(c) for e, c in self.terms.items()})

    def truncate(self, new_precision):
        """Lower the precision, dropping the terms it no longer covers."""
        if new_precision > self.precision:
            raise AlgebraError("cannot raise precision by truncation")
        return self._like(self.terms, new_precision)

    # -- calculus -----------------------------------------------------------

    def derivative(self, name=None):
        """Partial derivative; the known window shrinks by one degree (the
        top-degree coefficients of the derivative came from unknown terms)."""
        if self.precision < 2:
            raise AlgebraError("derivative would exhaust the precision")
        R = self.ring
        i = 0 if name is None else self.vars.index(name)
        out = {e[:i] + (e[i] - 1,) + e[i + 1:]: R.mul(R.from_int(e[i]), c)
               for e, c in self.terms.items() if e[i]}
        return Series(self.ring, self.vars, self.precision - 1, out)

    def integrate(self):
        """Antiderivative in the first variable with zero constant term;
        requires exact divisibility by the new exponent in the coefficient
        ring.  The known window grows by one degree."""
        R = self.ring
        out = {}
        for e, c in self.terms.items():
            if e[0] == -1:
                raise AlgebraError("integration of a 1/t term needs a logarithm")
            out[(e[0] + 1,) + e[1:]] = R.divide(c, R.from_int(e[0] + 1))
        return Series(R, self.vars, self.precision + 1, out)

    # -- substitution -------------------------------------------------------

    def compose(self, g):
        """f(g) for single-variable f: subst([g]), so g may be multivariate
        but needs positive valuation, f may have no pole, and the result has
        precision n = min(f.precision, g.precision)."""
        if len(self.vars) != 1:
            raise AlgebraError("compose requires a single-variable outer series")
        return self.subst([g])

    def subst(self, values):
        """f(P0, P1, ...): substitute one series per variable.  Every value
        needs positive valuation, and all share the ring and variables.  The
        result has precision n = min(f.precision, precisions of the values),
        the rule of the module docstring.

        Horner in the first variable: with f = sum_a x0^a f_a(x1, ...), the
        loop acc -> acc * P0 + f_a(P1, ...) runs from the top a down to 0,
        truncated by degree.  P0 has valuation v >= 1 (a zero P0 counts as
        v = n), and the accumulator after step a is multiplied by P0 a more
        times, which raises its degrees by at least a * v; so only its terms
        below b = n - a * v are formed, and the steps with a * v >= n are
        skipped.  Each f_a(P1, ...) is a linear combination of monomials in
        P1, ..., memoized below degree n and each built from a smaller one
        by one product.  Every product, and every added term c * m (c at
        key 0, so _pairs keeps the terms of m below b), runs through _pairs.

        The accumulator, packed by _packing at base n, stays cleared for the
        whole call: int numerators over one denominator D.  P0 is lifted
        once, over D0; each product multiplies D by D0, and each added term
        c * m of f_a, over Df * Dm, is brought with the accumulator to their
        lcm.  Every step is exact rational arithmetic on numerators over a
        common denominator, so the one from_cleared per output term at the
        end gives the payloads of ring arithmetic step by step (a Fraction
        is canonical).  Over Z and Z/m every denominator is 1, and over Z/m
        the accumulator is reduced mod m after each step and each monomial
        once it is built.  Rings without the to_cleared hook keep ring
        arithmetic with every denominator 1."""
        if len(values) != len(self.vars):
            raise AlgebraError("need one series per variable")
        R = self.ring
        tgt = values[0]
        for P in values:
            if P.ring != R or P.vars != tgt.vars:
                raise AlgebraError("mismatched series (ring or variables differ)")
            if not P.is_zero() and P.valuation() < 1:
                raise AlgebraError("composition requires positive valuation")
        if self._has_pole():
            raise AlgebraError("cannot substitute into a Laurent series")
        n = min([self.precision] + [P.precision for P in values])
        pack, unpack, s = _packing(len(tgt.vars), n)
        rest = [_lift(R, P.terms, pack, n) for P in values[1:]]
        mono = {(0,) * len(rest): _lift(R, {(0,) * len(tgt.vars): R.one},
                                        pack, n)}

        def monomial(e):
            chain = []
            while e not in mono:
                j = next(i for i, x in enumerate(e) if x)
                chain.append((e, j))
                e = e[:j] + (e[j] - 1,) + e[j + 1:]
            m, D = mono[e]
            for e, j in reversed(chain):
                t, Dj = rest[j]
                m = sorted(_reduce(R, _pairs(R, {}, m, t, n, s)).items())
                D *= Dj
                mono[e] = m, D
            return m, D

        v = tgt.valuation() or n
        # parts[a]: (c, m, Dc) for each term c * m of f_a(P1, ...), over
        # Dc = Df * Dm; the terms with a * v >= n cannot reach the result
        f, Df = _lift(R, self.terms, tuple, n)
        parts = {}
        for e, c in f:
            if e[0] * v < n:
                m, Dm = monomial(e[1:])
                parts.setdefault(e[0], []).append((c, m, Df * Dm))
        G, D0 = _lift(R, tgt.terms, pack, n)
        acc, D = {}, 1
        for a in range(max(parts, default=0), -1, -1):
            b = n - a * v
            acc, D = ((_pairs(R, {}, acc.items(), G, b, s), D * D0) if acc
                      else ({}, 1))
            terms = parts.get(a, ())
            L = lcm(D, *[Dc for _, _, Dc in terms])
            if L != D:
                acc = {k: c * (L // D) for k, c in acc.items()}
            for c, m, Dc in terms:
                if L != Dc:
                    c = c * (L // Dc)
                # c has key 0, so _pairs keeps the terms of m below degree b
                _pairs(R, acc, [(0, c)], m, b, s)
            acc, D = _reduce(R, acc), L
        return Series(R, tgt.vars, n, _lower(R, acc, D, unpack))

    def rename(self, new_vars, mapping=None):
        """Move to a new variable tuple.  mapping[i] = index of old variable i
        inside new_vars (defaults to name lookup)."""
        new_vars = tuple(new_vars)
        if mapping is None:
            mapping = [new_vars.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, x in enumerate(e):
                ne[mapping[i]] = x
            out[tuple(ne)] = c
        return Series(self.ring, new_vars, self.precision, out)

    # -- division -----------------------------------------------------------

    def inverse_unit(self):
        """1/f when the constant term c0 is a unit, degree by degree: with
        f_j the homogeneous part of degree j, q_0 = 1/c0 and
        q_d = sum_{j=1..d} (-(1/c0) f_j) q_{d-j}, which holds in any
        commutative ring.  Once q_(d-1) is known, one _pairs call adds its
        products with every -(1/c0) f_j into a running sum of the degrees
        above, whose degree-d part is then complete: q_d.  The result has
        the precision of f.  An f with a pole is rejected.  On rings with
        the to_cleared hook the recurrence runs on cleared ints, reduced mod
        m once per degree over Z/m and F_p, with one from_cleared per output
        term."""
        R = self.ring
        if self._has_pole():
            raise AlgebraError("inverse_unit needs a power series")
        c0 = self.constant_term()
        if not R.is_unit(c0):
            raise NotDivisible("constant term is not a unit")
        n = self.precision
        # every degree is below n and no exponent is negative: the keys
        # add without carry
        pack, unpack, s = _packing(len(self.vars), n)
        t, D = _lift(R, self.terms, pack, n)
        if R.to_cleared is None:
            u, q0 = 1, R.inv(c0)
            m = R.neg(q0)
            f = {k: R.mul(m, c) for k, c in t if k}
        else:
            # f = F / D with F_0 = u: q_d = Q_d / u^(d+1), where Q_0 = D and
            # Q_d = sum_j (-F_j * u^(j-1)) Q_{d-j}, all plain ints
            u, q0 = t[0][1], D
            f = {k: -c * u ** (k // s - 1) for k, c in t if k}
        f = sorted(_reduce(R, f).items())
        out, acc, qd = {}, {}, {0: q0}
        for d in range(1, n + 1):
            # qd is q_(d-1), over u^d; its products complete degree d
            out.update(_lower(R, qd, u ** d, unpack))
            _pairs(R, acc, qd.items(), f, n, s)
            done = [k for k in acc if k < (d + 1) * s]
            qd = _reduce(R, {k: acc.pop(k) for k in done})
        return Series(R, self.vars, n, out)

    def divide_exact(self, g):
        """f/g for a power series g with a unit constant term, as
        f * g.inverse_unit().  Any other divisor raises NotDivisible,
        naming g's lowest term."""
        self._align(g)
        if g.is_zero():
            raise NotDivisible("division by zero series")
        if g._has_pole() or not self.ring.is_unit(g.constant_term()):
            lead = g._like(dict(g.sorted_terms()[:1]))
            raise NotDivisible("the divisor's lowest term %s is not a unit "
                               "constant" % lead)
        return self * g.inverse_unit()

    # -- reversion ----------------------------------------------------------

    def reverse(self):
        """Compositional inverse of a single-variable series f of valuation
        1 with a unit linear coefficient: the g with f(g(t)) = t, by
        _solve_implicit on H(t, y) = f(y) - t.  The result has f's
        precision.  An f with a pole is rejected."""
        if len(self.vars) != 1:
            raise AlgebraError("reversion is single-variable only")
        if self._has_pole():
            raise AlgebraError("cannot reverse a Laurent series")
        R = self.ring
        a1 = self.coeff((1,))
        if not R.is_zero(self.constant_term()) or R.is_zero(a1):
            raise AlgebraError("reversion needs valuation exactly 1")
        if not R.is_unit(a1):
            raise AlgebraError("leading coefficient not invertible")
        H = {(0, e): c for (e,), c in self.terms.items()}
        H[1, 0] = R.neg(R.one)
        return Series(R, self.vars, self.precision,
                      _solve_implicit(R, H, self.precision))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "vars": list(self.vars),
            "precision": self.precision,
            "terms": [{"exp": list(e), "coeff": self.ring.coeff_to_json(c)}
                      for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj, ring=None):
        from .algebra import ring_from_json
        if ring is None:
            ring = ring_from_json(obj["ring"])
        vars = obj["vars"]
        if not (isinstance(vars, list) and all(isinstance(v, str) for v in vars)
                and len(set(vars)) == len(vars)):
            raise AlgebraError("'vars' must be a list of distinct variable "
                               "names, got %r" % (vars,))
        vars = tuple(vars)
        terms = {}
        for t in obj.get("terms", []):
            e = tuple(json_int(x, "integer exponent") for x in t["exp"])
            if len(e) != len(vars):
                raise AlgebraError("exponent %r does not match the variables "
                                   "%r" % (list(e), list(vars)))
            terms[e] = ring.coeff_from_json(t["coeff"])
        precision = json_int(obj["precision"], "integer 'precision'")
        return cls(ring, vars, precision, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        R = self.ring
        parts = []
        for e, c in self.sorted_terms():
            mon = monomial_str(self.vars, e)
            cs = R.coeff_str(c)
            if not any(e):
                parts.append(cs)
            elif cs == "1":
                parts.append(mon)
            elif cs == "-1":
                parts.append("-" + mon)
            else:
                parts.append("%s*%s" % (cs, mon))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "Series(%s ; N=%d)" % (self, self.precision)
