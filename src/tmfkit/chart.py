"""3-local descent chart for the compactified moduli of elliptic curves.

Builds the bigraded sheaf-cohomology chart H^s(omega^t) with 2 inverted and
3-local coefficients, runs the descent spectral sequence (the only nonzero
differentials are d5, generated multiplicatively by d5(Delta) = alpha*beta^2,
and d9, generated by d9(alpha*Delta^2) = beta^5), and assembles the homotopy
of the global-sections spectrum in a degree window from the non-negative
(DM) and negative (DC/K^1) presentations.  The two routes -- spectral
sequence and presentation -- are cross-checked on every call: tmf_pi runs
the spectral sequence on the degree it answers, so the duality pairing and
the mod-3 groups it pairs, which are built from tmf_pi, are audited too.  The
(-21)-shifted duality of the mod-3 homotopy is verified by an explicit
pairing matrix.

Conventions: a class at (s, t) contributes to topological degree 2t - s;
alpha sits at (1, 2) (degree 3), beta at (2, 6) (degree 10), Delta at
(0, 12) (degree 24); free groups are Z_(3)-lattices with scaled monomial
generators; all torsion is elementary of order 3.
"""

from fractions import Fraction

from .algebra import AlgebraError, InternalCheckError, is_prime, monomial_str
from .modforms import ModularForm, basis_monomials, dimension, monomial_label

COEFFICIENTS = "Z_(3)"
DEFAULT_S_MAX = 12
DEFAULT_T_BOUND = 60
DEFAULT_WINDOW = (-80, 80)
_HARD_S_MAX = 40
_HARD_T_BOUND = 400

#: degrees mod 72 of the order-3 classes in non-negative degrees, with the
#: presentation label of each and the chart class detecting it
_DM_TORSION = {
    3: ("alpha", (1, 0, 0)),
    10: ("beta", (0, 1, 0)),
    13: ("alpha*beta", (1, 1, 0)),
    20: ("beta^2", (0, 2, 0)),
    27: ("x", (1, 0, 1)),
    30: ("beta^3", (0, 3, 0)),
    37: ("x*beta", (1, 1, 1)),
    40: ("beta^4", (0, 4, 0)),
}


def _tors_label(e, f, c):
    """Chart label of alpha^e beta^f Delta^c."""
    return monomial_str(("alpha", "beta", "Delta"), (e, f, c))


def _free_label(kind, mon, scale):
    base = monomial_label(mon)
    if kind == "dual":
        base = "dual(%s)" % base
    return base if scale == 1 else "%d*%s" % (scale, base)


def _is_pure_delta(mon):
    a, b, c = mon
    return a == 0 and b == 0


class Entry:
    """One bidegree: a scaled free lattice plus order-3 torsion classes.

    ``free`` is a list of (kind, monomial, scale) with kind 'mf' (weight-t
    modular forms on the zero line) or 'dual' (dual-basis vectors of a
    weight piece at s = 1); the group is the span of scale * generator.
    ``torsion`` is a list of (e, f, c) triples, each an order-3 class
    alpha^e beta^f Delta^c.  A bidegree never mixes free and torsion parts.
    """

    __slots__ = ("free", "torsion")

    def __init__(self, free=(), torsion=()):
        self.free = list(free)
        self.torsion = list(torsion)
        if self.free and self.torsion:
            raise InternalCheckError("free and torsion mixed in one bidegree")

    def is_zero(self):
        return not self.free and not self.torsion

    def free_rank(self):
        return len(self.free)

    def free_labels(self):
        return [_free_label(k, m, s) for (k, m, s) in self.free]

    def torsion_labels(self):
        return [_tors_label(e, f, c) for (e, f, c) in self.torsion]

    def to_json(self, s, t):
        return {
            "s": s, "t": t,
            "free_rank": self.free_rank(),
            "free_gens": self.free_labels(),
            "torsion": [3] * len(self.torsion),
            "torsion_gens": self.torsion_labels(),
        }


class BigradedGroup:
    """Bigraded abelian group over Z_(3): entries indexed by (s, t)."""

    __slots__ = ("entries", "coefficients")

    def __init__(self, entries):
        self.entries = {st: e for st, e in entries.items() if not e.is_zero()}
        self.coefficients = COEFFICIENTS

    def entry(self, s, t):
        return self.entries.get((s, t), Entry())

    def to_json(self):
        return {
            "coefficients": self.coefficients,
            "entries": [self.entries[st].to_json(*st)
                        for st in sorted(self.entries)],
        }


# ---------------------------------------------------------------------------
# the E2 chart


def _torsion_shape(s, t):
    """The (e, f, c) class living at (s, t) for s >= 2, if any."""
    if s % 2 == 0:
        e, f = 0, s // 2
    else:
        e, f = 1, (s - 1) // 2
    num = t - 2 * e - 6 * f
    if num % 12 != 0:
        return None
    return (e, f, num // 12)


def coh_mell(s_max=DEFAULT_S_MAX, t_min=-DEFAULT_T_BOUND, t_max=DEFAULT_T_BOUND):
    """Sheaf cohomology H^s(omega^t), 2 inverted and 3-localized, as E2 data.

    Zero line: the weight-t modular forms M_t.  s = 1: the classes
    alpha*Delta^c at t = 2 + 12c (c >= 0) and, for t = -k-10 with
    dim M_k > 0, the lattice spanned by the dual basis of M_k with the
    pure-power dual (Delta^m)-dual unscaled and every other dual vector
    scaled by 3 (the all-scaled sublattice is the kernel K^1 of
    multiplication by beta).  s >= 2: one order-3 class
    alpha^e beta^f Delta^c per solution of s = e + 2f, t = 2e + 6f + 12c
    with e <= 1, f >= 1 and c any integer.
    """
    if s_max < 0 or s_max > _HARD_S_MAX:
        raise AlgebraError("window exceeded: s_max must lie in [0, %d]"
                           % _HARD_S_MAX)
    if t_min > t_max or max(abs(t_min), abs(t_max)) > _HARD_T_BOUND:
        raise AlgebraError("window exceeded: need t_min <= t_max with |t| <= %d"
                           % _HARD_T_BOUND)
    entries = {}
    for t in range(t_min, t_max + 1):
        if t >= 0 and dimension(t) > 0:
            entries[(0, t)] = Entry(
                free=[("mf", mon, 1) for mon in basis_monomials(t)])
        if s_max >= 1:
            if t >= 2 and (t - 2) % 12 == 0:
                entries[(1, t)] = Entry(torsion=[(1, 0, (t - 2) // 12)])
            k = -t - 10
            if k >= 0 and dimension(k) > 0:
                free = []
                for mon in basis_monomials(k):
                    pure = _is_pure_delta(mon)
                    free.append(("dual", mon, 1 if pure else 3))
                entries[(1, t)] = Entry(free=free)
        for s in range(2, s_max + 1):
            shape = _torsion_shape(s, t)
            if shape is not None:
                entries[(s, t)] = Entry(torsion=[shape])
    return BigradedGroup(entries)


# ---------------------------------------------------------------------------
# differentials


def d5_torsion(e, f, c):
    """d5 on alpha^e beta^f Delta^c: the Leibniz extension of
    d5(Delta) = alpha*beta^2 with alpha^2 = 0.  Returns (coeff, class)."""
    if e == 1:
        return None
    coeff = c % 3
    if coeff == 0:
        return None
    return (coeff, (1, f + 2, c - 1))


def d9_torsion(e, f, c):
    """d9 on alpha^e beta^f Delta^c: the Leibniz extension of
    d9(alpha*Delta^2) = beta^5 with d9 zero on beta, c4, c6, Delta^3."""
    if e != 1 or c % 3 != 2:
        return None
    return (1, (0, f + 5, c - 2))


def _free_shape(s, kind, mon):
    """The torsion shape (e, f, c) a free basis direction maps like, or None.

    d5 hits the pure Delta^c direction of the zero line as it hits
    Delta^c, with coefficient c; d9 hits the unscaled dual direction
    (Delta^m)-dual of the s = 1 lattice in weight 12m exactly as the class
    alpha*Delta^(-m-1) would map.
    """
    if not _is_pure_delta(mon):
        return None
    if s == 0 and kind == "mf":
        return (0, 0, mon[2])
    if s == 1 and kind == "dual":
        return (1, 0, -mon[2] - 1)
    return None


class ChartPage:
    """A page of the spectral sequence: groups plus that page's arrows."""

    __slots__ = ("page", "groups", "differentials", "stable")

    def __init__(self, page, groups, differentials, stable=False):
        self.page = page
        self.groups = groups
        self.differentials = differentials
        self.stable = stable

    def to_json(self):
        out = {"page": self.page}
        if self.stable:
            out["stable"] = True
        out.update(self.groups.to_json())
        out["differentials"] = [dict(d) for d in self.differentials]
        return out


def _run_page(groups, r, trusted):
    """Apply d_r (r = 5 or 9) to a BigradedGroup; returns (new groups,
    arrows).  A free direction maps like the torsion class of _free_shape.

    ``trusted`` is a predicate on (s, t) limiting the internal-consistency
    asserts to the region whose sources and targets are fully materialized.
    """
    shift = (r, (r - 1) // 2)
    d_r = {5: d5_torsion, 9: d9_torsion}[r]
    entries = groups.entries
    arrows = []
    scale_up = {}      # (s,t) -> set of free indices whose direction triples
    dies_out = {}      # (s,t) -> set of torsion indices killed by emission
    dies_in = {}       # (s,t) -> set of torsion indices killed by reception

    def _target_index(st, cls):
        ent = entries.get(st)
        if ent is None:
            return None
        for j, shape in enumerate(ent.torsion):
            if shape == cls:
                return j
        return None

    for (s, t), ent in sorted(entries.items()):
        target_st = (s + shift[0], t + shift[1])
        maps = []      # (marked sources, index, source label, coeff, target)
        for i, (kind, mon, scale) in enumerate(ent.free):
            shape = _free_shape(s, kind, mon)
            rule = shape and d_r(*shape)
            coeff = rule and (rule[0] * scale) % 3
            if coeff:
                maps.append((scale_up, i, _free_label(kind, mon, scale),
                             coeff, rule[1]))
        if len(maps) > 1:
            raise InternalCheckError(
                "more than one free direction maps at (%d, %d)" % (s, t))
        for i, shape in enumerate(ent.torsion):
            rule = d_r(*shape)
            if rule is not None:
                maps.append((dies_out, i, _tors_label(*shape)) + rule)
        for marked, i, source, coeff, cls in maps:
            marked.setdefault((s, t), set()).add(i)
            j = _target_index(target_st, cls)
            if j is None:
                if trusted(*target_st):
                    raise InternalCheckError(
                        "d%d target %s missing at (%d, %d)"
                        % (r, _tors_label(*cls), *target_st))
            else:
                dies_in.setdefault(target_st, set()).add(j)
            arrows.append({
                "page": r, "from": [s, t], "to": list(target_st),
                "source": source, "target": _tors_label(*cls),
                "coefficient": coeff,
            })

    new_entries = {}
    for (s, t), ent in entries.items():
        chains = (dies_out.get((s, t), set()) & dies_in.get((s, t), set()))
        if chains and trusted(s, t):
            raise InternalCheckError(
                "d%d fails d o d = 0 at (%d, %d)" % (r, s, t))
        killed = dies_out.get((s, t), set()) | dies_in.get((s, t), set())
        free = []
        for i, (kind, mon, scale) in enumerate(ent.free):
            if i in scale_up.get((s, t), set()):
                scale *= 3
            free.append((kind, mon, scale))
        torsion = [shape for i, shape in enumerate(ent.torsion)
                   if i not in killed]
        new_entries[(s, t)] = Entry(free=free, torsion=torsion)
    return BigradedGroup(new_entries), arrows


# ---------------------------------------------------------------------------
# closed-form survivor rules (independent audit of the page engine)


def einf_entry_rule(s, t):
    """Expected E-infinity entry at (s, t) from the survivor analysis:

    * s = 0: the d5-kernel lattice (pure Delta^c scaled by 3 when 3 does not
      divide c, everything else unscaled).
    * s = 1, t = 2 + 12c >= 2: alpha*Delta^c survives iff c = 0, 1 mod 3.
    * s = 1, t = -k-10: the full E2 lattice unless k = 12m with m divisible
      by 3, in which case the unscaled dual direction is tripled (only the
      all-scaled sublattice K^1 survives).
    * even s = 2f: beta^f Delta^c survives iff 3 | c and 1 <= f <= 4.
    * odd s = 2f+1 >= 3: alpha*beta^f Delta^c survives iff
      f = 1 and c = 0, 1 mod 3, or f = 2 and c <= -2 with c = 0, 1 mod 3.
    """
    if s == 0:
        if t < 0 or dimension(t) == 0:
            return Entry()
        free = []
        for mon in basis_monomials(t):
            scale = 3 if _is_pure_delta(mon) and mon[2] % 3 != 0 else 1
            free.append(("mf", mon, scale))
        return Entry(free=free)
    if s == 1:
        if t >= 2 and (t - 2) % 12 == 0:
            c = (t - 2) // 12
            return Entry(torsion=[(1, 0, c)] if c % 3 in (0, 1) else [])
        k = -t - 10
        if k >= 0 and dimension(k) > 0:
            free = []
            for mon in basis_monomials(k):
                if _is_pure_delta(mon):
                    free.append(("dual", mon, 3 if mon[2] % 3 == 0 else 1))
                else:
                    free.append(("dual", mon, 3))
            return Entry(free=free)
        return Entry()
    shape = _torsion_shape(s, t)
    if shape is None:
        return Entry()
    e, f, c = shape
    if e == 0:
        alive = (c % 3 == 0) and 1 <= f <= 4
    elif f == 1:
        alive = c % 3 in (0, 1)
    elif f == 2:
        alive = c <= -2 and c % 3 in (0, 1)
    else:
        alive = False
    return Entry(torsion=[shape] if alive else [])


def _entries_equal(a, b):
    return a.free == b.free and sorted(a.torsion) == sorted(b.torsion)


# ---------------------------------------------------------------------------
# the spectral sequence


class DescentChart:
    """Pages and E-infinity of the descent spectral sequence on a window."""

    __slots__ = ("window", "pages", "infinity")
    s_max = DEFAULT_S_MAX

    def __init__(self, window, pages, infinity):
        self.window = window
        self.pages = pages
        self.infinity = infinity

    def to_json(self):
        return {
            "window": list(self.window),
            "coefficients": COEFFICIENTS,
            "pages": [p.to_json() for p in self.pages],
        }


def descent_ss(n_min=DEFAULT_WINDOW[0], n_max=DEFAULT_WINDOW[1]):
    """Run the spectral sequence over topological degrees [n_min, n_max].

    Returns a DescentChart whose pages are r = 5 (E2 groups with the d5
    arrows), r = 9 (E6 groups with the d9 arrows) and r = 10 (E-infinity;
    all later differentials vanish).  Entries outside the degree window or
    above DEFAULT_S_MAX are computed internally but not reported.
    """
    if n_min > n_max:
        raise AlgebraError("empty degree window")
    if max(abs(n_min), abs(n_max)) > 2 * _HARD_T_BOUND - _HARD_S_MAX:
        raise AlgebraError("window exceeded")
    s_internal = min(DEFAULT_S_MAX + 12, _HARD_S_MAX)
    t_lo = (n_min - 2) // 2 - 1
    t_hi = (n_max + 2 + s_internal) // 2 + 1
    e2 = coh_mell(s_internal, t_lo, t_hi)

    def trusted(s, t):
        return n_min - 1 <= 2 * t - s <= n_max + 1 and s <= s_internal - 9

    e6, d5_arrows = _run_page(e2, 5, trusted)
    einf, d9_arrows = _run_page(e6, 9, trusted)

    def in_window(s, t):
        return n_min <= 2 * t - s <= n_max and s <= DEFAULT_S_MAX

    def restrict(groups):
        return BigradedGroup({st: ent for st, ent in groups.entries.items()
                              if in_window(*st)})

    def restrict_arrows(arrows):
        return [a for a in arrows
                if in_window(*a["from"]) or in_window(*a["to"])]

    # audit: the honest page computation must reproduce the survivor rules
    for (s, t), ent in einf.entries.items():
        if in_window(s, t):
            if not _entries_equal(ent, einf_entry_rule(s, t)):
                raise InternalCheckError(
                    "E-infinity disagrees with survivor rules at (%d, %d)"
                    % (s, t))
    for s in range(0, DEFAULT_S_MAX + 1):
        for t in range(t_lo, t_hi + 1):
            if in_window(s, t) and (s, t) not in einf.entries:
                if not einf_entry_rule(s, t).is_zero():
                    raise InternalCheckError(
                        "survivor rules expect a class at (%d, %d)" % (s, t))

    pages = [
        ChartPage(5, restrict(e2), restrict_arrows(d5_arrows)),
        ChartPage(9, restrict(e6), restrict_arrows(d9_arrows)),
        ChartPage(10, restrict(einf), [], stable=True),
    ]
    return DescentChart((n_min, n_max), pages, restrict(einf))


# ---------------------------------------------------------------------------
# homotopy groups from the presentations


class HomotopyGroupReport:
    """pi_n of the 3-local global-sections spectrum (2 inverted).

    ``gens`` is a list of dicts with keys label, order (0 for a free
    generator, 3 for torsion), provenance ('DM' for the non-negative
    presentation, 'K1' for the all-scaled dual lattice, 'DC' for negative
    classes outside K^1), class (the chart class that carries it, an
    Entry.free triple or an (e, f, c) shape; tmf_pi derives the label
    from it and audits it against E-infinity), and optionally
    detected_by / dual_of.
    """

    __slots__ = ("degree", "free_rank", "torsion", "gens")

    def __init__(self, degree, gens):
        self.degree = degree
        self.gens = gens
        self.free_rank = sum(1 for g in gens if g["order"] == 0)
        self.torsion = [g["order"] for g in gens if g["order"] != 0]

    def group_string(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z_(3)")
        elif self.free_rank > 1:
            parts.append("Z_(3)^%d" % self.free_rank)
        parts.extend("Z/%d" % q for q in self.torsion)
        return " + ".join(parts) if parts else "0"

    def labels(self):
        return [g["label"] for g in self.gens]


def _dm_free_gens(n):
    """Free classes in degree n >= 0: the d5-kernel lattice of M_(n/2)."""
    if n < 0 or n % 2 != 0:
        return []
    return [("mf", mon, 3 if _is_pure_delta(mon) and mon[2] % 3 != 0 else 1)
            for mon in basis_monomials(n // 2)]


def _dm_torsion_gen(n):
    """The order-3 generator in degree n >= 0, if any."""
    if n < 3:
        return None
    base, m = n % 72, n // 72
    if base not in _DM_TORSION:
        return None
    label, (e, f, cx) = _DM_TORSION[base]
    if m > 0:
        label = "%s*Delta^%d" % (label, 3 * m)
    shape = (e, f, cx + 3 * m)
    return {"label": label, "order": 3, "provenance": "DM",
            "detected_by": _tors_label(*shape), "class": shape}


def _dc_free_gens(n):
    """Free classes in degree n <= -21: the surviving dual lattice of
    M_k for n = -2k - 21."""
    if n > -21 or (-n - 21) % 2 != 0:
        return []
    return [("dual", mon, 1 if _is_pure_delta(mon) and mon[2] % 3 != 0 else 3)
            for mon in basis_monomials((-n - 21) // 2)]


def _dc_torsion_gen(n):
    """The order-3 generator in degree n < -20, if any: the chart class
    dual (under the -22 reflection) to the one in degree -n - 22."""
    if n >= -20:
        return None
    partner = _dm_torsion_gen(-n - 22)
    # locate the chart class of degree n among the negative survivors
    candidates = []
    # beta^f Delta^(3m), m <= -1
    for f in range(1, 5):
        if (n - 10 * f) % 72 == 0:
            m = (n - 10 * f) // 72
            if m <= -1:
                candidates.append((0, f, 3 * m))
    # alpha beta Delta^c and alpha beta^2 Delta^c, c <= -2, c = 0,1 mod 3
    for f, base in ((1, 13), (2, 23)):
        if (n - base) % 24 == 0:
            c = (n - base) // 24
            if c <= -2 and c % 3 in (0, 1):
                candidates.append((1, f, c))
    if len(candidates) > 1 or (partner is not None) != (len(candidates) == 1):
        raise InternalCheckError(
            "reflection rule and chart enumeration disagree in degree %d: %r"
            % (n, candidates))
    if not candidates:
        return None
    shape = candidates[0]
    return {"label": _tors_label(*shape), "order": 3, "provenance": "DC",
            "dual_of": partner["label"], "class": shape}


def tmf_pi(n):
    """pi_n of the 3-local global sections over the degree window [-80, 80].

    Non-negative degrees come from the DM presentation (the d5-kernel of
    M_* on the zero line plus the order-3 algebra on alpha, beta, x =
    <alpha, alpha, beta^2>), negative degrees from the DC presentation
    (dual lattices with K^1 their all-scaled part, plus reflected order-3
    classes strictly below degree -20).  Each generator's "class" is the
    chart class that carries it, and every answer is audited against the
    E-infinity page of the spectral sequence run on degree n alone: the
    presentation's free (kind, monomial, scale) classes and order-3
    (e, f, c) classes must be E-infinity's classes in that degree.
    """
    lo, hi = DEFAULT_WINDOW
    if not lo <= n <= hi:
        raise AlgebraError("degree %d outside the window [%d, %d]"
                           % (n, lo, hi))
    if n >= 0:
        free, tg = _dm_free_gens(n), _dm_torsion_gen(n)
    else:
        free, tg = _dc_free_gens(n), _dc_torsion_gen(n)
    gens = [{"label": _free_label(*cls), "order": 0,
             "provenance": "DM" if cls[0] == "mf" else
                           ("K1" if cls[2] == 3 else "DC"),
             "class": cls} for cls in free] + ([tg] if tg else [])
    torsion = [tg["class"]] if tg else []
    if -20 <= n <= -1 and gens:
        raise InternalCheckError(
            "degrees -1 .. -20 must be empty, found %r" % gens)
    einf = list(descent_ss(n, n).infinity.entries.values())
    einf_free = [cls for ent in einf for cls in ent.free]
    einf_torsion = [shape for ent in einf for shape in ent.torsion]
    if free != einf_free or torsion != einf_torsion:
        raise InternalCheckError(
            "degree %d: presentation gives classes %r, E-infinity gives %r"
            % (n, free + torsion, einf_free + einf_torsion))
    return HomotopyGroupReport(n, gens)


def tmf_pi_window(n_min, n_max):
    """Reports for every degree in [n_min, n_max] (inclusive)."""
    return {n: tmf_pi(n) for n in range(n_min, n_max + 1)}


# ---------------------------------------------------------------------------
# mod-3 homotopy and duality


def _tmf3_gens(n):
    """Generators of pi_n of the mod-3 theory: (pi_n tensor Z/3) plus
    Tor(pi_(n-1), Z/3), as tagged copies of the integral generators."""
    tensor = [{"part": "tensor", "degree": n, "gen": g}
              for g in tmf_pi(n).gens]
    return tensor + [{"part": "tor", "degree": n - 1, "gen": g}
                     for g in tmf_pi(n - 1).gens if g["order"] != 0]


def _tmf3_label(wrapped):
    base = wrapped["gen"]["label"]
    return base if wrapped["part"] == "tensor" else "Tor(%s)" % base


def _pair(g, h):
    """Pairing of pi_k(tmf/3) x pi_(-k-21)(tmf/3) -> pi_(-21)(tmf/3) = F_3,
    the product followed by projection on the K^1 class dual to 1."""
    a, b = g["gen"], h["gen"]
    if a["order"] == 0 and b["order"] == 0:
        # free x free (both tensor parts): mu and dual(mu) pair when their
        # scalings multiply to exactly 3 (3^eps mu against 3^(1-eps)
        # dual(mu) lands on 3*dual(1), the generator)
        (ka, ma, sa), (kb, mb, sb) = a["class"], b["class"]
        return 1 if ka != kb and ma == mb and sa * sb == 3 else 0
    if g["part"] == h["part"]:
        return 0
    # tensor torsion against Tor torsion: the -22-reflection partners
    ten, tor = (g, h) if g["part"] == "tensor" else (h, g)
    return 1 if ten["gen"]["order"] and \
        ten["degree"] + tor["degree"] == -22 else 0


def duality_check(k):
    """Verify that the pairing pi_k(tmf/3) x pi_(-k-21)(tmf/3) -> F_3 is
    perfect; reports the matrix in the generator bases."""
    left = _tmf3_gens(k)
    right = _tmf3_gens(-k - 21)
    matrix = [[_pair(g, h) for h in right] for g in left]
    # perfect: square, with one unit in every row and every column (both
    # sides zero is vacuously an isomorphism)
    perfect = len(left) == len(right) and all(
        sum(1 for x in line if x % 3) == 1
        for line in matrix + list(zip(*matrix)))
    return {
        "degree": k, "partner_degree": -k - 21,
        "rows": [_tmf3_label(g) for g in left],
        "cols": [_tmf3_label(h) for h in right],
        "matrix": matrix,
        "is_iso": perfect,
    }


# ---------------------------------------------------------------------------
# survival of modular forms


def lifts_to_homotopy(f):
    """Does the weight-k form f survive the 3-local spectral sequence?

    The only obstruction on the zero line is d5(Delta^c) =
    c*alpha*beta^2*Delta^(c-1) on the pure power c = k/12, an order-3
    target; f survives iff 3 divides c times its Delta^c coefficient.
    The verdict reports the minimal e with 3^e * f surviving.  (Integrally
    the smallest surviving multiples of Delta and c6 are 24*Delta and
    2*c6; the factors of 2 are prime-2 phenomena outside this 3-local
    engine, which sees c4, c6 and 3*Delta as classes.)
    """
    if isinstance(f, str):
        f = ModularForm.generator(f)
    w = f.weight()
    if w == "mixed":
        raise AlgebraError("survival needs a homogeneous form")
    if f.is_zero():
        return {"weight": None, "verdict": "lifts", "e": 0,
                "obstruction": None}
    obstruction = None
    e = 0
    if w % 12 == 0:
        c = w // 12
        coeff = f.coefficient((0, 0, c))
        if not f.ring.is_zero(coeff) and c != 0:
            lam = Fraction(coeff) if not isinstance(coeff, Fraction) \
                else coeff
            val = _v3(lam * c)
            if val < 1:
                e = 1 - val
                obstruction = ("d5(Delta^%d) = %d*alpha*beta^2*Delta^%d"
                               % (c, c % 3, c - 1))
    verdict = "lifts" if e == 0 else "multiple-of-3^%d lifts" % e
    return {
        "weight": w, "verdict": verdict, "e": e, "obstruction": obstruction,
        "note": ("3-local verdict (2 is inverted); the smallest integral "
                 "multiples are 24*Delta and 2*c6, whose extra factors are "
                 "2-primary and out of scope here"),
    }


def _v3(x):
    """3-adic valuation of a nonzero Fraction/int."""
    x = Fraction(x)
    v = 0
    n = x.numerator
    while n % 3 == 0:
        n //= 3
        v += 1
    d = x.denominator
    while d % 3 == 0:
        d //= 3
        v -= 1
    return v


# ---------------------------------------------------------------------------
# closed-form K(1)-local answers


def k1_sphere(p, k):
    """Homotopy of the K(1)-local sphere at an odd prime, in closed form:
    Z_p in degrees 0 and -1; Z/p^(t+1) when k + 1 = 2 p^t s (p-1) with s
    prime to p; zero otherwise."""
    if p == 2:
        raise AlgebraError("odd primes only for the closed-form answer")
    if not is_prime(p):
        raise AlgebraError("%d is not prime" % p)
    if k in (0, -1):
        return {"p": p, "degree": k, "group": "Z_%d" % p}
    m = k + 1
    if m % (2 * (p - 1)) != 0:
        return {"p": p, "degree": k, "group": "0"}
    j = m // (2 * (p - 1))
    t = 0
    while j % p == 0:
        j //= p
        t += 1
    return {"p": p, "degree": k, "group": "Z/%d" % (p ** (t + 1)),
            "t": t, "s": j}


def k1_tmf_p2(n, M, A):
    """Degree-n piece of the K(1)-local theory at p = 2 on the ordinary
    locus: the 2-adic ring on 1/j with generators eta (degree 1), v
    (degree 4) and invertible b (degree 8), subject to 2*eta = eta^3 =
    v*eta = 0 and v^2 = 2b.  1/j is truncated at power M, 2-adics at
    precision A."""
    if M < 1 or A < 1:
        raise AlgebraError("truncation order and adic precision must be >= 1")
    residue = n % 8
    if residue not in (0, 1, 2, 4):
        return {"degree": n, "monomial": None, "rank": 0, "free": False,
                "module": "0",
                "relations_applied": ["eta^3 = 0", "v*eta = 0"]}
    # eta^residue, or v in degree 4, times a power of b
    eta, v = (0, 1) if residue == 4 else (residue, 0)
    free = eta == 0
    label = monomial_str(("eta", "v", "b"), (eta, v, (n - residue) // 8))
    basis_family = "%s*(1/j)^i for 0 <= i < %d" % (label, M)
    relations = []
    if free:
        module = "free of rank %d over Z_2 (mod 2^%d)" % (M, A)
        if v:
            relations.append("v^2 = 2b")
    else:
        module = "elementary 2-torsion (Z/2)^%d" % M
        relations.append("2*eta = 0")
    return {
        "degree": n, "monomial": label, "rank": M, "free": free,
        "module": module, "basis_family": basis_family,
        "adic_precision": A,
        "relations_applied": relations,
    }


# ---------------------------------------------------------------------------
# text rendering


def render_chart_text(chart=None, n_min=-40, n_max=40):
    """ASCII chart of the E-infinity page: column 2t - s, row s; a free
    summand prints its rank, an order-3 class prints a dot.  Without a
    chart, runs the spectral sequence on [n_min, n_max]."""
    if chart is None:
        chart = descent_ss(n_min, n_max)
    lo, hi = chart.window
    if n_min < lo or n_max > hi:
        raise AlgebraError("render window exceeds the computed window")
    width = 2
    cols = list(range(n_min, n_max + 1))
    cells = {}
    top = 1
    for (s, t), ent in chart.infinity.entries.items():
        n = 2 * t - s
        if not (n_min <= n <= n_max) or s > chart.s_max:
            continue
        sym = str(ent.free_rank()) if ent.free else "." * len(ent.torsion)
        cells[(s, n)] = sym
        top = max(top, s)
    lines = []
    for s in range(top, -1, -1):
        row = "".join(("%%%ds" % width) % cells.get((s, n), "")
                      for n in cols)
        lines.append("s=%2d|%s" % (s, row))
    lines.append("     " + "-" * (width * len(cols)))
    axis = [" "] * (width * len(cols) + 5)
    for n in cols:
        if n % 12 == 0:
            pos = 5 + (n - n_min) * width
            for i, ch in enumerate(str(n)):
                if pos + i < len(axis):
                    axis[pos + i] = ch
    lines.append("".join(axis).rstrip())
    return "\n".join(lines)
