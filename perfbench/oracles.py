"""Answer checks that share no code with tmfkit.

Each check takes plain data (ints, Fractions, lists, dicts) pulled out of a
tmfkit answer and returns True when the answer is right.  They use classical
facts computed here from scratch: integer q-series convolutions, brute-force
point counts, the Silverman IV.1 low-degree terms of a curve's formal group,
and dimension formulas for modular forms.
"""

from fractions import Fraction


# -- q-series over Z as plain int lists -------------------------------------


def conv(a, b, n):
    """First n coefficients of the product of two int lists."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                out[i + j] += x * y
    return out


def _sigma_table(k, n):
    s = [0] * n
    for d in range(1, n):
        dk = d ** k
        for m in range(d, n, d):
            s[m] += dk
    return s


class QSeries:
    """E4, E6 and Delta to a fixed precision, with cached powers."""

    def __init__(self, n):
        self.n = n
        s3, s5 = _sigma_table(3, n), _sigma_table(5, n)
        e4 = [1] + [240 * s3[m] for m in range(1, n)]
        e6 = [1] + [-504 * s5[m] for m in range(1, n)]
        num = [x - y for x, y in zip(conv(conv(e4, e4, n), e4, n),
                                     conv(e6, e6, n))]
        if any(x % 1728 for x in num):
            raise ValueError("E4^3 - E6^2 not divisible by 1728")
        # the modular-form generators: c4 -> E4, c6 -> -E6, Delta
        self.gens = (e4, [-x for x in e6], [x // 1728 for x in num])
        self._powers = {}

    def power(self, g, e):
        key = (g, e)
        if key not in self._powers:
            if e == 0:
                self._powers[key] = [1] + [0] * (self.n - 1)
            else:
                self._powers[key] = conv(self.power(g, e - 1), self.gens[g],
                                         self.n)
        return self._powers[key]

    def form(self, terms, n):
        """q-expansion to n terms of sum coeff * c4^a c6^b Delta^c."""
        out = [0] * n
        for (a, b, c), coeff in terms.items():
            mono = conv(conv(self.power(0, a), self.power(1, b), n),
                        self.power(2, c), n)
            for i in range(n):
                out[i] += coeff * mono[i]
        return out


def check_qexp(qs, terms, n, coeffs):
    """coeffs: the n coefficients q^0 .. q^(n-1) returned for the form."""
    return len(coeffs) == n and coeffs == qs.form(terms, n)


def check_j(qs, n, coeffs):
    """coeffs: j's coefficients of q^-1 .. q^(n-2).  Checks j * Delta = E4^3
    through q^(n-1), which involves every returned coefficient."""
    if len(coeffs) != n or coeffs[0] != 1:
        return False
    delta = qs.gens[2]
    e4cubed = qs.form({(3, 0, 0): 1}, n)
    for m in range(n):
        # (j * Delta)_m = sum over i >= -1 of j_i * Delta_(m - i)
        acc = sum(coeffs[i + 1] * delta[m - i] for i in range(-1, m))
        if acc != e4cubed[m]:
            return False
    return True


# -- formal group laws -------------------------------------------------------


def check_relog(log, relog, n):
    """The re-derived logarithm equals the generating one below degree n.
    log, relog: {degree: Fraction}."""
    return all(relog.get(k, 0) == log.get(k, 0) for k in range(1, n)) and \
        all(k < n for k in relog)


def silverman_low_terms(a1, a2, a3):
    """Terms of total degree <= 4 of a curve's formal group law in z = -x/y
    (Silverman, AEC IV.1)."""
    return {(1, 0): 1, (0, 1): 1, (1, 1): -a1,
            (2, 1): -a2, (1, 2): -a2,
            (3, 1): -2 * a3, (2, 2): a1 * a2 - 3 * a3, (1, 3): -2 * a3}


def check_curve_law(a, low_terms):
    """low_terms: {(i, j): Fraction} of the law restricted to degree <= 4."""
    want = {e: Fraction(c) for e, c in silverman_low_terms(*a[:3]).items()
            if c}
    got = {e: c for e, c in low_terms.items() if c}
    return got == want


# -- curves over F_p ---------------------------------------------------------


def point_count(p, a):
    """#E(F_p) by brute force over all affine (x, y), plus infinity."""
    a1, a2, a3, a4, a6 = a
    n = 1
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p == 0:
                n += 1
    return n


def check_hasse(p, a, ordinary):
    """Ordinary exactly when p does not divide the trace p + 1 - #E."""
    return ordinary == ((p + 1 - point_count(p, a)) % p != 0)


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f, g, p):
    """Remainder of f by monic-izable g over F_p (int lists, low to high)."""
    f = _trim([x % p for x in f])
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, gc in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gc) % p
        _trim(f)
    return f


def _pgcd(f, g, p):
    f, g = _trim([x % p for x in f]), _trim([x % p for x in g])
    while g:
        f, g = g, _pmod(f, g, p)
    return f


def _pmulmod(f, g, m, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return _pmod(out, m, p)


def _x_power_mod(e, m, p):
    result, base = [1], _pmod([0, 1], m, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return result


def _peval(f, x, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _legendre_sum(p, A, B):
    return sum(((pow((x ** 3 + A * x + B) % p, (p - 1) // 2, p) + 1) % p) - 1
               for x in range(p))


def supersingular_in_fp(p):
    """The supersingular j-invariants lying in F_p (p >= 5), found by
    counting points on one curve per j: supersingular iff a_p = 0 mod p."""
    out = set()
    for j in range(p):
        if j == 0:
            A, B = 0, 1
        elif j == 1728 % p:
            A, B = 1, 0
        else:
            k = j * pow(1728 - j, -1, p) % p
            A, B = 3 * k % p, 2 * k % p
        if _legendre_sum(p, A, B) % p == 0:
            out.add(j)
    return out


def check_ss_poly(p, coeffs, degree, n_roots, ss_cache):
    """coeffs: Phi_p over F_p, low to high.  Monic, of degree
    (p-1)//12 + eps, separable, split over F_p^2 (so its root set is
    Frobenius-stable), and its F_p-roots are exactly the supersingular
    j-invariants in F_p."""
    f = _trim([c % p for c in coeffs])
    if not f or f[-1] != 1 or len(f) - 1 != degree or n_roots != degree:
        return False
    if p < 5:
        return f == [0, 1]
    eps = (p % 3 == 2) + (p % 4 == 3)
    if degree != (p - 1) // 12 + eps:
        return False
    deriv = [i * c % p for i, c in enumerate(f)][1:]
    if len(_pgcd(f, deriv, p)) != 1:
        return False
    if _x_power_mod(p * p, f, p) != _pmod([0, 1], f, p):
        return False
    if p not in ss_cache:
        ss_cache[p] = supersingular_in_fp(p)
    roots = {j for j in range(p) if _peval(f, j, p) == 0}
    return roots == ss_cache[p]


# -- the 3-local chart -------------------------------------------------------


def dim_mf(k):
    """Dimension of level-1 modular forms of weight k (counting c4^a c6^b
    Delta^c with b <= 1)."""
    if k < 0 or k % 2:
        return 0
    return sum(1 for c in range(k // 12 + 1) for b in (0, 1)
               if (k - 12 * c - 6 * b) >= 0 and (k - 12 * c - 6 * b) % 4 == 0)


def free_rank(n):
    """Rank of pi_n: M_(n/2) for n >= 0, and the -21-shifted dual of
    M_((-21-n)/2) below; zero in between."""
    if n >= 0:
        return dim_mf(n // 2) if n % 2 == 0 else 0
    m = -21 - n
    return dim_mf(m // 2) if m >= 0 and m % 2 == 0 else 0


def check_pi(n, rank, group):
    if -20 <= n <= -1 and group != "0":
        return False
    return rank == free_rank(n)


def check_chart(lo, hi, ranks_by_degree, classes_by_degree):
    """The stable page of a window: the -20..-1 band is empty and the free
    rank in each degree matches free_rank()."""
    for n in range(lo, hi + 1):
        if -20 <= n <= -1 and classes_by_degree.get(n, 0):
            return False
        if ranks_by_degree.get(n, 0) != free_rank(n):
            return False
    return all(lo <= n <= hi for n in classes_by_degree)


def check_duality(k, partner, is_iso):
    return is_iso is True and partner == -21 - k


def _v3(x):
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % 3 == 0:
        num //= 3
        v += 1
    while den % 3 == 0:
        den //= 3
        v -= 1
    return v


def check_lifts(weight, terms, e):
    """A weight-k form lifts to homotopy except through d5 on Delta^c
    (c = k/12), which needs 3 | c * coeff(Delta^c); e is the least power of
    3 that fixes it."""
    want = 0
    if weight % 12 == 0 and weight:
        c = weight // 12
        coeff = terms.get((0, 0, c), 0)
        if coeff:
            want = max(0, 1 - _v3(coeff * c))
    return e == want
