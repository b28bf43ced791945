"""Exact coefficient arithmetic: Z, Q, Z/m, F_p, F_p^2, localized integers,
univariate polynomials, and the integer-matrix utilities (Smith form) used by
the graded-ring regularity checks.

Rings are small descriptor objects whose methods act on plain payloads:
int for Z and residues, Fraction for Q and localized integers, (a0, a1)
tuples for quadratic field extensions.  Keeping payloads unboxed matters for
the power-series layer, which pushes many coefficient operations per term.
"""

from fractions import Fraction
import json
import math
import operator


class AlgebraError(Exception):
    pass


class NotDivisible(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class InternalCheckError(Exception):
    """A violated internal invariant.  These abort loudly (CLI exit 3)."""


PRIMALITY_CAP = 10 ** 6


def is_prime(n):
    """Trial division, capped at desk scale."""
    if n > PRIMALITY_CAP:
        raise AlgebraError("primality cap exceeded: %d" % n)
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def power(x, n, one, mul=operator.mul):
    """x^n for n >= 0 by square and multiply: on each bit of n, r = r * x
    if the bit is set, then x = x * x unless that was the top bit."""
    if n < 0:
        raise AlgebraError("negative power %d" % n)
    r = one
    while n:
        if n & 1:
            r = mul(r, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return r


class Ring:
    """Base descriptor.  A ring is identified by its to_json() descriptor,
    which ring_from_json inverts.  The number arithmetic a + b, -a, a * b is
    stated here; rings whose payloads need reducing override it."""

    kind = None

    # Rings whose payloads are Fractions (Q and its localizations) define
    # to_cleared(cs) -> (ints, D), with c equal to from_cleared(i, D) for
    # each c and its int i, and from_cleared(s, D), the payload of the
    # integer s over D.  Series products then multiply and add plain ints
    # and map each output coefficient back once.
    to_cleared = None

    def __eq__(self, other):
        # identity first: series operations compare rings on every call
        return self is other or (isinstance(other, Ring)
                                 and self.to_json() == other.to_json())

    def __hash__(self):
        return hash(json.dumps(self.to_json(), sort_keys=True))

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == self.zero

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def characteristic(self):
        return 0

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        return power(a, n, self.one, self.mul)

    def sum(self, items):
        r = self.zero
        for it in items:
            r = self.add(r, it)
        return r

    def coeff_to_json(self, a):
        return a

    def coeff_from_json(self, obj):
        raise NotImplementedError

    def coeff_str(self, a):
        return str(a)


class Integers(Ring):
    kind = "Integers"
    zero = 0
    one = 1

    def from_int(self, n):
        return n

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a in (1, -1):
            return a
        raise NotInvertible("%r is not a unit in Z" % (a,))

    def divide(self, a, b):
        if b == 0:
            raise NotDivisible("division by zero")
        q, r = divmod(a, b)
        if r:
            raise NotDivisible("%r not divisible by %r in Z" % (a, b))
        return q

    def __repr__(self):
        return "Z"

    def to_json(self):
        return {"kind": "Integers"}

    def coeff_from_json(self, obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise AlgebraError("expected integer, got %r" % (obj,))
        return obj


class Rationals(Ring):
    kind = "Rationals"
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def to_cleared(self, cs):
        pairs = [c.as_integer_ratio() for c in cs]
        d = math.lcm(*[q for _, q in pairs])
        return [p * (d // q) for p, q in pairs], d

    def from_cleared(self, s, d):
        return Fraction(s, d)

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertible("0 is not a unit in Q")
        return 1 / a

    def divide(self, a, b):
        if b == 0:
            raise NotDivisible("division by zero")
        return a / b

    def __repr__(self):
        return "Q"

    def to_json(self):
        return {"kind": "Rationals"}

    def coeff_to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return "%d/%d" % (a.numerator, a.denominator)

    def coeff_from_json(self, obj):
        if isinstance(obj, bool):
            raise AlgebraError("expected rational, got %r" % (obj,))
        if isinstance(obj, int):
            return Fraction(obj)
        if isinstance(obj, str):
            return Fraction(obj)
        raise AlgebraError("expected rational, got %r" % (obj,))

    def coeff_str(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)


class LocalizedIntegers(Rationals):
    """Z with a fixed set of primes inverted (Z[1/2]) or a single prime kept
    non-invertible (Z localized at p).  Payloads are Fractions whose
    denominators are checked on construction via check()."""

    def __init__(self, inverted=(), at=None):
        if (at is None) == (not inverted):
            raise AlgebraError("specify primes to invert, or a prime to localize at")
        self.inverted = tuple(sorted(inverted))
        self.at = at
        for q in self.inverted:
            if not is_prime(q):
                raise AlgebraError("%d is not prime" % q)
        if at is not None and not is_prime(at):
            raise AlgebraError("%d is not prime" % at)
        self.kind = "ZInverted" if at is None else "ZLocalAt"

    def check(self, a):
        d = a.denominator
        if self.at is not None:
            if d % self.at == 0:
                raise AlgebraError("denominator %d not a unit in Z_(%d)" % (d, self.at))
            return a
        for q in self.inverted:
            while d % q == 0:
                d //= q
        if d != 1:
            raise AlgebraError("denominator of %s not supported in Z[%s]" %
                               (a, ",".join("1/%d" % q for q in self.inverted)))
        return a

    def is_unit(self, a):
        if a == 0:
            return False
        try:
            self.check(1 / a)
        except AlgebraError:
            return False
        return True

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%s is not a unit" % a)
        return 1 / a

    def divide(self, a, b):
        if b == 0:
            raise NotDivisible("division by zero")
        q = a / b
        try:
            return self.check(q)
        except AlgebraError:
            raise NotDivisible("%s not divisible by %s here" % (a, b))

    def __repr__(self):
        if self.at is not None:
            return "Z_(%d)" % self.at
        return "Z[%s]" % ",".join("1/%d" % q for q in self.inverted)

    def to_json(self):
        if self.at is not None:
            return {"kind": "ZLocalAt", "p": self.at}
        return {"kind": "ZInverted", "inverted": list(self.inverted)}

    def coeff_from_json(self, obj):
        return self.check(super().coeff_from_json(obj))


class IntegersMod(Ring):
    kind = "IntegersMod"

    def __init__(self, m):
        if m < 2:
            raise AlgebraError("modulus must be >= 2")
        self.m = m
        self.zero = 0
        self.one = 1 % m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def from_int(self, n):
        return n % self.m

    def is_unit(self, a):
        return math.gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%d is not a unit mod %d" % (a, self.m))
        return pow(a, -1, self.m)

    def divide(self, a, b):
        if self.is_unit(b):
            return self.mul(a, self.inv(b))
        raise NotDivisible("%d is a zero divisor mod %d" % (b, self.m))

    def characteristic(self):
        return self.m

    def __repr__(self):
        return "Z/%d" % self.m

    def to_json(self):
        return {"kind": "IntegersMod", "m": self.m}

    def coeff_from_json(self, obj):
        if not isinstance(obj, int) or isinstance(obj, bool):
            raise AlgebraError("expected residue, got %r" % (obj,))
        return obj % self.m


class PrimeField(IntegersMod):
    kind = "PrimeField"

    def __init__(self, p):
        if not is_prime(p):
            raise AlgebraError("not prime: %d" % p)
        IntegersMod.__init__(self, p)
        self.p = p

    def is_unit(self, a):
        return a % self.p != 0

    def __repr__(self):
        return "F_%d" % self.p

    def to_json(self):
        return {"kind": "PrimeField", "p": self.p}


def _smallest_quad_modulus(p):
    # lexicographically smallest monic irreducible x^2 + b x + c over F_p,
    # irreducibility tested by absence of roots
    for b in range(p):
        for c in range(p):
            if all((x * x + b * x + c) % p != 0 for x in range(p)):
                return (c, b)
    raise InternalCheckError("no irreducible quadratic over F_%d" % p)


class QuadExtField(Ring):
    """F_{p^2} = F_p[x]/(x^2 + b x + c).  Payloads (a0, a1) meaning a0 + a1 x."""

    kind = "QuadExtField"

    def __init__(self, p, modulus=None):
        if not is_prime(p):
            raise AlgebraError("not prime: %d" % p)
        self.p = p
        if modulus is None:
            modulus = _smallest_quad_modulus(p)
        c, b = modulus[0] % p, modulus[1] % p
        if len(modulus) > 2 and modulus[2] % p != 1:
            raise AlgebraError("modulus must be monic")
        if any((x * x + b * x + c) % p == 0 for x in range(p)):
            raise AlgebraError("modulus x^2+%dx+%d is reducible mod %d" % (b, c, p))
        self.b = b
        self.c = c
        self.zero = (0, 0)
        self.one = (1 % p, 0)

    def add(self, a, b):
        p = self.p
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    def neg(self, a):
        p = self.p
        return ((-a[0]) % p, (-a[1]) % p)

    def mul(self, u, v):
        p, b, c = self.p, self.b, self.c
        # (u0 + u1 x)(v0 + v1 x) with x^2 = -b x - c
        hi = u[1] * v[1]
        return ((u[0] * v[0] - hi * c) % p,
                (u[0] * v[1] + u[1] * v[0] - hi * b) % p)

    def from_int(self, n):
        return (n % self.p, 0)

    def is_unit(self, a):
        return a != (0, 0)

    def inv(self, a):
        if a == (0, 0):
            raise NotInvertible("0 is not a unit")
        # norm = a * conj(a) lands in F_p
        conj = self.frobenius(a)
        n = self.mul(a, conj)
        if n[1] != 0:
            raise InternalCheckError("norm left the prime field")
        return self.mul(conj, (pow(n[0], -1, self.p), 0))

    def divide(self, a, b):
        return self.mul(a, self.inv(b))

    def frobenius(self, a):
        """a^p, computed from x^p = -b - x when p is odd (conjugate root)."""
        if self.p == 2:
            return self.mul(a, a)
        # conj(x) is the other root of x^2+bx+c, namely -b - x
        a0, a1 = a
        return ((a0 - a1 * self.b) % self.p, (-a1) % self.p)

    def in_prime_field(self, a):
        return a[1] == 0

    def characteristic(self):
        return self.p

    def __repr__(self):
        return "F_%d[x]/(x^2+%dx+%d)" % (self.p, self.b, self.c)

    def to_json(self):
        return {"kind": "QuadExtField", "p": self.p, "modulus": [self.c, self.b, 1]}

    def coeff_to_json(self, a):
        return [a[0], a[1]]

    def coeff_from_json(self, obj):
        if isinstance(obj, int) and not isinstance(obj, bool):
            return self.from_int(obj)
        if (isinstance(obj, list) and len(obj) == 2
                and all(isinstance(u, int) and not isinstance(u, bool) for u in obj)):
            return (obj[0] % self.p, obj[1] % self.p)
        raise AlgebraError("expected [a0, a1] element, got %r" % (obj,))

    def coeff_str(self, a):
        if a[1] == 0:
            return str(a[0])
        if a[0] == 0:
            return "%d*x" % a[1] if a[1] != 1 else "x"
        return "%d+%d*x" % (a[0], a[1])


ZZ = Integers()
QQ = Rationals()


def ring_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise AlgebraError("ring descriptor must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "Integers":
        return ZZ
    if kind == "Rationals":
        return QQ
    if kind == "IntegersMod":
        return IntegersMod(int(obj["m"]))
    if kind == "PrimeField":
        return PrimeField(int(obj["p"]))
    if kind == "QuadExtField":
        if "modulus" in obj:
            return QuadExtField(int(obj["p"]), [int(u) for u in obj["modulus"]])
        return QuadExtField(int(obj["p"]))
    if kind == "ZInverted":
        return LocalizedIntegers(inverted=tuple(int(q) for q in obj["inverted"]))
    if kind == "ZLocalAt":
        return LocalizedIntegers(at=int(obj["p"]))
    if kind == "PolynomialRing":
        return PolynomialRing(ring_from_json(obj["base"]), obj.get("var", "T"))
    raise AlgebraError("unknown ring kind %r" % (kind,))


# ---------------------------------------------------------------------------
# univariate polynomials


class Poly:
    """Dense univariate polynomial over a coefficient ring.  Immutable;
    coefficient list never has trailing zeros."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        while coeffs and ring.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring, [c])

    @classmethod
    def x(cls, ring):
        return cls(ring, [ring.zero, ring.one])

    @classmethod
    def from_ints(cls, ring, ints):
        return cls(ring, [ring.from_int(n) for n in ints])

    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def leading(self):
        if not self.coeffs:
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ring == self.ring
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def _check(self, other):
        if self.ring != other.ring:
            raise AlgebraError("mismatched base rings")

    def __add__(self, other):
        self._check(other)
        R = self.ring
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(R, [R.add(self[i], other[i]) for i in range(n)])

    def __neg__(self):
        return Poly(self.ring, [self.ring.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        R = self.ring
        if self.is_zero() or other.is_zero():
            return Poly(R, [])
        out = [R.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if R.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = R.add(out[i + j], R.mul(a, b))
        return Poly(R, out)

    def scale(self, c):
        R = self.ring
        return Poly(R, [R.mul(c, a) for a in self.coeffs])

    def __pow__(self, n):
        return power(self, n, Poly.constant(self.ring, self.ring.one))

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.ring.inv(self.leading()))

    def divmod(self, other):
        """Polynomial division; the divisor's leading coefficient must be a unit."""
        self._check(other)
        R = self.ring
        if other.is_zero():
            raise NotDivisible("polynomial division by zero")
        lead_inv = R.inv(other.leading())
        rem = list(self.coeffs)
        d = other.degree()
        q = [R.zero] * max(0, len(rem) - d)
        for i in range(len(rem) - 1 - d, -1, -1):
            c = R.mul(rem[i + d], lead_inv)
            if R.is_zero(c):
                continue
            q[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] = R.sub(rem[i + j], R.mul(c, b))
        return Poly(R, q), Poly(R, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def evaluate(self, v):
        R = self.ring
        acc = R.zero
        for c in reversed(self.coeffs):
            acc = R.add(R.mul(acc, v), c)
        return acc

    def derivative(self):
        R = self.ring
        return Poly(R, [R.mul(R.from_int(i), c)
                        for i, c in enumerate(self.coeffs)][1:])

    def to_string(self, var="x"):
        if self.is_zero():
            return "0"
        R = self.ring
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self[i]
            if R.is_zero(c):
                continue
            cs = R.coeff_str(c)
            if i == 0:
                parts.append(cs)
            elif i == 1:
                parts.append(var if cs == "1" else "%s*%s" % (cs, var))
            else:
                parts.append("%s^%d" % (var, i) if cs == "1"
                             else "%s*%s^%d" % (cs, var, i))
        return " + ".join(parts)

    def __repr__(self):
        return "Poly(%s)" % self.to_string()


def poly_gcd(f, g):
    """Monic gcd over a field via the Euclidean algorithm; gcd(0,0) = 0."""
    if f.ring != g.ring:
        raise AlgebraError("mismatched base rings")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a.monic()


def minimal_polynomial(field, a):
    """Monic minimal polynomial over F_p of an element of F_{p^2}."""
    if not isinstance(field, QuadExtField):
        raise AlgebraError("element must lie in a quadratic extension field")
    Fp = PrimeField(field.p)
    if field.in_prime_field(a):
        return Poly(Fp, [(-a[0]) % field.p, 1])
    conj = field.frobenius(a)
    # (x - a)(x - conj a), expanded; trace and norm land in F_p
    s = field.add(a, conj)
    n = field.mul(a, conj)
    if s[1] != 0 or n[1] != 0:
        raise InternalCheckError("trace/norm left the prime field")
    return Poly(Fp, [n[0], (-s[0]) % field.p, 1])


class PolynomialRing(Ring):
    """Polynomial ring over a base ring, as a coefficient ring in its own
    right (payloads are Poly values)."""

    kind = "PolynomialRing"

    def __init__(self, base, var="T"):
        self.base = base
        self.var = var
        self.zero = Poly(base, [])
        self.one = Poly.constant(base, base.one)

    def from_int(self, n):
        return Poly.constant(self.base, self.base.from_int(n))

    def is_unit(self, a):
        return a.degree() == 0 and self.base.is_unit(a.coeffs[0])

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertible("%r is not a unit" % (a,))
        return Poly.constant(self.base, self.base.inv(a.coeffs[0]))

    def divide(self, a, b):
        if b.is_zero():
            raise NotDivisible("division by zero")
        if self.base.is_unit(b.leading()):
            q, r = a.divmod(b)
            if r.is_zero():
                return q
            raise NotDivisible("inexact polynomial division")
        raise NotDivisible("leading coefficient of divisor is not a unit")

    def characteristic(self):
        return self.base.characteristic()

    def __repr__(self):
        return "%r[%s]" % (self.base, self.var)

    def to_json(self):
        return {"kind": "PolynomialRing", "base": self.base.to_json(), "var": self.var}

    def coeff_to_json(self, a):
        return [self.base.coeff_to_json(c) for c in a.coeffs]

    def coeff_from_json(self, obj):
        if not isinstance(obj, list):
            raise AlgebraError("expected coefficient list, got %r" % (obj,))
        return Poly(self.base, [self.base.coeff_from_json(c) for c in obj])

    def coeff_str(self, a):
        return a.to_string(self.var)


# ---------------------------------------------------------------------------
# integer matrices: Smith normal form and friends (used by the Landweber
# regularity check on graded pieces)

# desk-scale cap on the bit length of a Smith-form entry: least-absolute-value
# pivoting can grow entries without bound, and 4096 bits stays below Python's
# 4300-digit str() limit
SMITH_BITS_CAP = 4096


def _swap_rows(a, U, i, j):
    a[i], a[j] = a[j], a[i]
    U[i], U[j] = U[j], U[i]


def _swap_cols(a, V, i, j):
    for r in a + V:
        r[i], r[j] = r[j], r[i]


def _add_row(a, U, src, dst, c):
    for m in (a, U):
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]


def _add_col(a, V, src, dst, c):
    for r in a + V:
        r[dst] += c * r[src]


def _clear_pivot(a, U, V, t):
    """Clear row and column t around the nonzero pivot a[t][t] by division
    with remainder, swapping in any smaller remainder as the new pivot.  The
    pivot's sign is left to smith_normal_form's sign pass: no move touches
    row t before that pass runs, so negating it there gives the same U.
    After each pass an entry of row or column t past SMITH_BITS_CAP bits is
    an input error."""
    rows, cols = len(a), len(V)
    while True:
        done = True
        for i in range(t + 1, rows):
            if a[i][t]:
                _add_row(a, U, t, i, -(a[i][t] // a[t][t]))
                if a[i][t]:
                    _swap_rows(a, U, t, i)
                    done = False
        for j in range(t + 1, cols):
            if a[t][j]:
                _add_col(a, V, t, j, -(a[t][j] // a[t][t]))
                if a[t][j]:
                    _swap_cols(a, V, t, j)
                    done = False
        bits = max(abs(x).bit_length() for x in a[t] + [r[t] for r in a])
        if bits > SMITH_BITS_CAP:
            raise AlgebraError("a Smith-form entry of %d bits exceeds the "
                               "desk-scale cap %d" % (bits, SMITH_BITS_CAP))
        if done:
            break


def smith_normal_form(mat):
    """Return (D, U, V) with D = U * mat * V in Smith form, U and V unimodular.
    Rows index the target, columns the source.

    The sequence of moves is part of the contract, not only D: a Smith form
    fixes D but not U and V, and integer_kernel reads its basis off the
    columns of V, so a different move order would change the kernel-witness
    labels that the Landweber check prints."""
    a = [list(row) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    U = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    V = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    for t in range(min(rows, cols)):
        # pivot: the first entry of least absolute value in the lower block
        piv = min(((abs(a[i][j]), i, j) for i in range(t, rows)
                   for j in range(t, cols) if a[i][j]), default=None)
        if piv is None:
            break
        _swap_rows(a, U, t, piv[1])
        _swap_cols(a, V, t, piv[2])
        _clear_pivot(a, U, V, t)
    # fix divisibility d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols)):
            if a[i][i] < 0:
                a[i] = [-x for x in a[i]]
                U[i] = [-x for x in U[i]]
        for i in range(min(rows, cols) - 1):
            d1, d2 = a[i][i], a[i + 1][i + 1]
            if d1 and d2 and d2 % d1 != 0:
                # a[i][i] is still d1: re-clear the 2x2 block around it
                _add_col(a, V, i + 1, i, 1)
                _clear_pivot(a, U, V, i)
                changed = True
    return a, U, V


def abelian_group_structure(n_gens, relations):
    """Z^n modulo the span of relation rows -> (free_rank, [torsion orders])."""
    if n_gens == 0:
        return 0, []
    if not relations:
        return n_gens, []
    mat = [list(r) for r in relations]
    D, _, _ = smith_normal_form(mat)
    diags = [D[i][i] for i in range(min(len(D), n_gens)) if D[i][i] != 0]
    torsion = sorted(d for d in diags if d > 1)
    free = n_gens - len(diags)
    return free, torsion


def in_column_span(smith, target):
    """Is target an integer combination of the columns of mat, given
    smith = smith_normal_form(mat)?  It is exactly when each entry of
    U * target is a multiple of D's diagonal entry in its row, and zero past
    the diagonal."""
    D, U, V = smith
    cols = len(V)
    for i, row in enumerate(U):
        b = sum(map(operator.mul, row, target))
        d = D[i][i] if i < cols else 0
        if b % d if d else b:
            return False
    return True


def integer_kernel(mat):
    """Basis (list of vectors) of the integer kernel of mat."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    D, _, V = smith_normal_form(mat)
    basis = []
    for j in range(cols):
        d = D[j][j] if j < rows else 0
        if d == 0:
            basis.append([V[i][j] for i in range(cols)])
    return basis
