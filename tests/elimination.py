"""Exact division of truncated series by leading-term elimination, for the
tests: the divisions Series.divide_exact refuses, by a divisor with no unit
constant term.  In one variable that is t^v times a unit, with a quotient
that may have a pole, or a divisor whose lowest coefficient is not a unit;
in several, any divisor without a unit constant term.  x = z/w, y = -1/w
and the chord slope (w(z2) - w(z1))/(z2 - z1) of a curve's formal group
taken the long way are such divisions."""

from tmfkit.algebra import AlgebraError, InternalCheckError, NotDivisible
from tmfkit.series import Series


def eliminate(f, g):
    """f/g by leading-term elimination: repeatedly divide the least
    remaining term of f, by (degree, exponent), by g's lex-least term of
    degree v = val(g), and subtract that quotient term times g.  Each step
    is forced, so the quotient is exact only if every step is; an inexact
    step raises NotDivisible, and so does a negative quotient exponent in
    several variables.  The precision drops by v, and by a further
    v - val(f) when f starts lower than g (the quotient's low terms consume
    that much of the known window)."""
    f._align(g)
    R = f.ring
    if g.is_zero():
        raise NotDivisible("division by zero series")
    v = g.valuation()
    if f.is_zero():
        return Series.zero(R, f.vars, min(f.precision, g.precision)
                           - max(v, 0))
    n = min(f.precision, g.precision) - v - max(0, v - f.valuation())
    if n < 1:
        raise AlgebraError("division would exhaust the precision")
    lead = min(e for e in g.terms if sum(e) == v)
    lc = g.terms[lead]
    rem = dict(f.terms)
    out = {}
    guard = 0
    while rem:
        guard += 1
        if guard > 200000:
            raise InternalCheckError("division failed to terminate")
        e = min(rem, key=lambda x: (sum(x), x))
        if sum(e) - v >= n:
            # everything left is beyond the result precision
            break
        q_exp = tuple(a - b for a, b in zip(e, lead))
        if len(q_exp) > 1 and min(q_exp) < 0:
            raise NotDivisible("not divisible")
        q_c = R.divide(rem[e], lc)
        out[q_exp] = q_c
        for ge, gc in g.terms.items():
            ne = tuple(a + b for a, b in zip(q_exp, ge))
            if sum(ne) >= n + v:
                continue
            s = R.sub(rem.get(ne, R.zero), R.mul(q_c, gc))
            if R.is_zero(s):
                rem.pop(ne, None)
            else:
                rem[ne] = s
    return Series(R, f.vars, n, out)
