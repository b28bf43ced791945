"""The 3-local descent spectral sequence: the E2 bigraded chart, its d5 and
d9 differentials, survivors, homotopy-group presentations in the stable
range, the -21-shifted duality pairing, and the K(1)-local closed forms."""

import pytest

from tmfkit import chart
from tmfkit.algebra import AlgebraError, InternalCheckError
from tmfkit.modforms import ModularForm, dimension, monomial_weight
from tmfkit.chart import (
    coh_mell, d5_torsion, d9_torsion, descent_ss, einf_entry_rule,
    tmf_pi, tmf_pi_window, duality_check, lifts_to_homotopy,
    k1_sphere, k1_tmf_p2, render_chart_text,
)


class TestE2Chart:
    def setup_method(self):
        self.G = coh_mell(10, -40, 40)

    def entry_labels(self, s, t):
        e = self.G.entry(s, t)
        return e.free_labels(), e.torsion_labels()

    def test_zero_line_is_the_form_basis(self):
        assert self.entry_labels(0, 0) == (["1"], [])
        assert self.entry_labels(0, 12) == (["c4^3", "Delta"], [])
        assert self.entry_labels(0, 2) == ([], [])
        assert self.entry_labels(0, 14) == (["c4^2*c6"], [])

    def test_zero_line_dimensions(self):
        for t in range(0, 41):
            free, tors = self.entry_labels(0, t)
            assert len(free) == dimension(t) and tors == []

    def test_alpha_tower(self):
        assert self.entry_labels(1, 2) == ([], ["alpha"])
        assert self.entry_labels(1, 14) == ([], ["alpha*Delta"])
        assert self.entry_labels(1, 26) == ([], ["alpha*Delta^2"])
        # no alpha classes at negative powers of Delta
        assert self.entry_labels(1, -10)[1] == []

    def test_dual_lattice(self):
        assert self.entry_labels(1, -10) == (["dual(1)"], [])
        assert self.entry_labels(1, -14) == (["3*dual(c4)"], [])
        assert self.entry_labels(1, -16) == (["3*dual(c6)"], [])
        # weight 12: the pure Delta dual is unscaled, the rest scaled
        assert self.entry_labels(1, -22) == \
            (["3*dual(c4^3)", "dual(Delta)"], [])

    def test_higher_torsion_wedge(self):
        assert self.entry_labels(2, 6) == ([], ["beta"])
        assert self.entry_labels(3, 8) == ([], ["alpha*beta"])
        assert self.entry_labels(4, 12) == ([], ["beta^2"])
        assert self.entry_labels(2, -6) == ([], ["beta*Delta^-1"])
        assert self.entry_labels(10, 30) == ([], ["beta^5"])

    def test_free_and_torsion_never_share_a_bidegree(self):
        for (s, t), entry in self.G.entries.items():
            assert not (entry.free and entry.torsion), (s, t)

    def test_window_caps(self):
        with pytest.raises(AlgebraError):
            coh_mell(100, -10, 10)
        with pytest.raises(AlgebraError):
            coh_mell(5, -1000, 1000)


class TestDifferentialRules:
    def test_d5_on_delta(self):
        coeff, tgt = d5_torsion(0, 0, 1)
        assert (coeff, tgt) == (1, (1, 2, 0))     # d5(Delta) = alpha*beta^2

    def test_d5_scales_with_delta_power(self):
        assert d5_torsion(0, 1, 2) == (2, (1, 3, 1))
        assert d5_torsion(0, 0, -1) == (2, (1, 2, -2))

    def test_d5_kernel(self):
        assert d5_torsion(1, 0, 1) is None        # alpha classes
        assert d5_torsion(0, 1, 3) is None        # 3 | c
        assert d5_torsion(0, 0, 0) is None

    def test_d9_on_alpha_delta_squared(self):
        assert d9_torsion(1, 0, 2) == (1, (0, 5, 0))   # -> beta^5

    def test_d9_kernel(self):
        assert d9_torsion(0, 1, 2) is None        # needs an alpha factor
        assert d9_torsion(1, 0, 1) is None        # needs c = 2 mod 3
        assert d9_torsion(1, 1, 5) == (1, (0, 6, 3))


class TestSpectralSequence:
    def setup_method(self):
        self.chart = descent_ss(-35, 52)

    def test_three_pages(self):
        assert [p.page for p in self.chart.pages] == [5, 9, 10]
        assert [p.stable for p in self.chart.pages] == [False, False, True]

    def test_pinned_d5_arrow(self):
        arrows = self.chart.pages[0].differentials
        delta = [a for a in arrows if a["source"] == "Delta"]
        assert delta == [{"page": 5, "from": [0, 12], "to": [5, 14],
                          "source": "Delta", "target": "alpha*beta^2",
                          "coefficient": 1}]

    def test_pinned_d9_arrows(self):
        arrows = self.chart.pages[1].differentials
        by_source = {a["source"]: a for a in arrows}
        assert by_source["alpha*Delta^2"]["to"] == [10, 30]
        assert by_source["alpha*Delta^2"]["target"] == "beta^5"
        assert by_source["dual(1)"]["to"] == [10, -6]
        assert by_source["dual(1)"]["target"] == "beta^5*Delta^-3"

    def test_degree_shift(self):
        for page_index, r in ((0, 5), (1, 9)):
            for a in self.chart.pages[page_index].differentials:
                (s, t), (s2, t2) = a["from"], a["to"]
                assert (s2, t2) == (s + r, t + (r - 1) // 2)

    def test_survivors_match_closed_form(self):
        # the page-by-page computation and the closed-form survivor rule
        # were derived independently; compare them on the stable page
        einf = self.chart.infinity
        for (s, t), entry in einf.entries.items():
            rule = einf_entry_rule(s, t)
            assert entry.free == rule.free and \
                sorted(entry.torsion) == sorted(rule.torsion), (s, t)

    def test_nothing_above_filtration_eight_survives(self):
        assert all(s <= 8 for (s, t) in self.chart.infinity.entries)

    def test_beta_powers_survive_up_to_fourth(self):
        einf = self.chart.infinity
        assert einf.entry(2, 6).torsion == [(0, 1, 0)]      # beta
        assert einf.entry(8, 24).torsion == [(0, 4, 0)]     # beta^4
        assert einf.entry(10, 30).torsion == []             # beta^5 dies

    def test_delta_survives_only_tripled(self):
        einf = self.chart.infinity
        assert einf.entry(0, 12).free == [("mf", (3, 0, 0), 1),
                                          ("mf", (0, 0, 1), 3)]

    def test_json_shape(self):
        blob = self.chart.to_json()
        assert blob["window"] == [-35, 52]
        assert blob["coefficients"] == "Z_(3)"
        assert [p["page"] for p in blob["pages"]] == [5, 9, 10]
        assert blob["pages"][2]["stable"] is True


class TestHomotopyGroups:
    PINNED = {
        0: ("Z_(3)", ["1"]),
        1: ("0", []),
        2: ("0", []),
        3: ("Z/3", ["alpha"]),
        8: ("Z_(3)", ["c4"]),
        10: ("Z/3", ["beta"]),
        12: ("Z_(3)", ["c6"]),
        13: ("Z/3", ["alpha*beta"]),
        20: ("Z_(3) + Z/3", ["c4*c6", "beta^2"]),
        24: ("Z_(3)^2", ["c4^3", "3*Delta"]),
        27: ("Z/3", ["x"]),
        30: ("Z/3", ["beta^3"]),
        37: ("Z/3", ["x*beta"]),
        40: ("Z_(3)^2 + Z/3", ["c4^5", "c4^2*Delta", "beta^4"]),
        48: ("Z_(3)^3", ["c4^6", "c4^3*Delta", "3*Delta^2"]),
        72: ("Z_(3)^4", ["c4^9", "c4^6*Delta", "c4^3*Delta^2", "Delta^3"]),
        75: ("Z/3", ["alpha*Delta^3"]),
        -21: ("Z_(3)", ["3*dual(1)"]),
        -25: ("Z/3", ["alpha*beta^2*Delta^-2"]),
        -29: ("Z_(3)", ["3*dual(c4)"]),
        -32: ("Z/3", ["beta^4*Delta^-3"]),
        -33: ("Z_(3)", ["3*dual(c6)"]),
        -35: ("Z/3", ["alpha*beta*Delta^-2"]),
        -45: ("Z_(3)^2", ["3*dual(c4^3)", "dual(Delta)"]),
        -69: ("Z_(3)^3", ["3*dual(c4^6)", "3*dual(c4^3*Delta)",
                          "dual(Delta^2)"]),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_groups(self, n):
        rep = tmf_pi(n)
        group, labels = self.PINNED[n]
        assert rep.group_string() == group
        assert rep.labels() == labels

    def test_gap_band_is_empty(self):
        for n in range(-20, 0):
            assert tmf_pi(n).group_string() == "0"

    def test_torsion_period_seventy_two(self):
        for n in (3, 10, 13, 20, 27, 30, 37, 40):
            assert tmf_pi(n).torsion == [3]
        # one full period fits inside the supported window
        assert tmf_pi(3 + 72).torsion == [3]
        assert tmf_pi(3 + 72).labels() == ["alpha*Delta^3"]

    def test_no_torsion_off_the_listed_degrees(self):
        listed = {3, 10, 13, 20, 27, 30, 37, 40}
        for n in range(0, 73):
            expected = [3] if n % 72 in listed else []
            assert tmf_pi(n).torsion == expected, n

    def test_torsion_labels_carry_detecting_class(self):
        rep = tmf_pi(27)
        gen = [g for g in rep.gens if g.get("order") == 3][0]
        assert gen["label"] == "x"
        assert gen["detected_by"] == "alpha*Delta"

    def test_window_guard(self):
        with pytest.raises(AlgebraError):
            tmf_pi(81)
        with pytest.raises(AlgebraError):
            tmf_pi(-81)

    def test_window_sweep_matches_pointwise(self):
        reports = tmf_pi_window(-10, 30)
        assert len(reports) == 41
        for n, rep in reports.items():
            assert rep.degree == n
            assert tmf_pi(n).group_string() == rep.group_string()


def mod_three_labels(n):
    """The generator labels of pi_n of the mod-3 theory, as duality_check
    prints them."""
    return [chart._tmf3_label(g) for g in chart._tmf3_gens(n)]


class TestModThree:
    def test_tensor_part(self):
        assert mod_three_labels(3) == ["alpha"]
        assert duality_check(3)["rows"] == ["alpha"]

    def test_tor_part_shifts_up_one(self):
        assert mod_three_labels(4) == ["Tor(alpha)"]

    def test_unit_degree(self):
        assert mod_three_labels(0) == ["1"]
        assert duality_check(-21)["cols"] == ["1"]

    def test_duality_anchor_degree(self):
        assert mod_three_labels(-21) == ["3*dual(1)"]
        assert duality_check(-21)["rows"] == ["3*dual(1)"]

    def test_each_degree_is_read_once(self, monkeypatch):
        # one audited tmf_pi for degree n and one for n - 1
        runs = []
        ss = chart.descent_ss
        monkeypatch.setattr(chart, "descent_ss",
                            lambda *a: runs.append(a) or ss(*a))
        assert mod_three_labels(4) == ["Tor(alpha)"]
        assert runs == [(4, 4), (3, 3)]


def _pair_by_labels(g, h):
    """The duality pairing read off the generator labels: an oracle for the
    pairing of chart classes."""
    a, b = g["gen"], h["gen"]
    if g["part"] == "tensor" and h["part"] == "tensor":
        if a["order"] == 0 and b["order"] == 0:
            la, lb = a["label"], b["label"]
            if "dual" in la:
                la, lb = lb, la
            if "dual" in la or "dual" not in lb:
                return 0
            sa = 3 if la.startswith("3*") else 1
            base_a = la[2:] if la.startswith("3*") else la
            sb = 3 if lb.startswith("3*") else 1
            base_b = lb[2:] if lb.startswith("3*") else lb
            if base_b != "dual(%s)" % base_a:
                return 0
            return 1 if sa * sb == 3 else 0
        return 0
    if g["part"] == "tor" and h["part"] == "tor":
        return 0
    ten, tor = (g, h) if g["part"] == "tensor" else (h, g)
    if ten["gen"]["order"] == 0:
        return 0
    return 1 if ten["degree"] + tor["degree"] == -22 else 0


class TestGeneratorClasses:
    def test_labels_are_read_off_the_classes(self):
        for n in range(-80, 81):
            for g in tmf_pi(n).gens:
                if g["order"] == 0:
                    assert g["label"] == chart._free_label(*g["class"]), n
                elif n >= 0:
                    assert g["detected_by"] == chart._tors_label(*g["class"])
                else:
                    assert g["label"] == chart._tors_label(*g["class"]), n

    def test_dual_of_names_the_reflected_generator(self):
        seen = 0
        for n in range(-80, -20):
            for g in tmf_pi(n).gens:
                if g["order"] == 3:
                    partner = [h["label"] for h in tmf_pi(-n - 22).gens
                               if h["order"] == 3]
                    assert [g["dual_of"]] == partner, n
                    seen += 1
        assert seen > 0

    def test_provenance_is_read_off_the_scale(self):
        # K^1 is the all-scaled part of the dual lattice
        def provenance(n):
            return [g["provenance"] for g in tmf_pi(n).gens]
        assert provenance(24) == ["DM", "DM"]
        assert provenance(27) == ["DM"]
        assert provenance(-69) == ["K1", "K1", "DC"]
        assert provenance(-32) == ["DC"]


class TestDuality:
    def test_pairing_of_classes_matches_the_label_oracle(self):
        for k in range(-79, 59):
            left = chart._tmf3_gens(k)
            right = chart._tmf3_gens(-k - 21)
            oracle = [[_pair_by_labels(g, h) for h in right] for g in left]
            assert duality_check(k)["matrix"] == oracle, k

    def test_a_zero_pairing_is_not_perfect(self, monkeypatch):
        monkeypatch.setattr(chart, "_pair", lambda g, h: 0)
        assert duality_check(0)["is_iso"] is False
        for k in range(-79, 59):
            out = duality_check(k)
            assert out["is_iso"] is (not out["rows"]), k

    def test_unit_pairs_with_anchor(self):
        out = duality_check(0)
        assert out == {"degree": 0, "partner_degree": -21, "rows": ["1"],
                       "cols": ["3*dual(1)"], "matrix": [[1]],
                       "is_iso": True}

    def test_beta_pairs_with_tor_class(self):
        out = duality_check(10)
        assert out["partner_degree"] == -31
        assert out["cols"] == ["Tor(beta^4*Delta^-3)"]
        assert out["is_iso"]

    def test_perfect_across_sample(self):
        for k in (-40, -24, -21, -3, 0, 3, 4, 8, 11, 20, 24, 25, 27, 28,
                  40, 41, 48):
            assert duality_check(k)["is_iso"], k

    def test_partner_degree_arithmetic(self):
        for k in (0, 5, -13, 24):
            assert duality_check(k)["partner_degree"] == -21 - k


class TestLifts:
    def test_c4_and_c6_lift(self):
        for name in ("c4", "c6"):
            out = lifts_to_homotopy(name)
            assert out["verdict"] == "lifts" and out["e"] == 0

    def test_delta_needs_one_factor_of_three(self):
        out = lifts_to_homotopy("Delta")
        assert out["verdict"] == "multiple-of-3^1 lifts"
        assert out["e"] == 1
        assert "d5" in out["obstruction"]

    def test_tripled_delta_lifts(self):
        out = lifts_to_homotopy(ModularForm.generator("Delta").scale(3))
        assert out["verdict"] == "lifts" and out["e"] == 0

    def test_delta_cubed_lifts(self):
        d = ModularForm.generator("Delta")
        out = lifts_to_homotopy(d * d * d)
        assert out["verdict"] == "lifts" and out["e"] == 0

    def test_delta_squared_obstructed(self):
        d = ModularForm.generator("Delta")
        assert lifts_to_homotopy(d * d)["e"] == 1

    def test_non_delta_weights_unobstructed(self):
        out = lifts_to_homotopy(ModularForm.monomial((1, 0, 1)))  # weight 16
        assert out["verdict"] == "lifts"

    def test_mixed_weight_rejected(self):
        f = ModularForm.generator("c4") + ModularForm.generator("Delta")
        with pytest.raises(AlgebraError):
            lifts_to_homotopy(f)


class TestK1Sphere:
    def test_zero_and_minus_one(self):
        assert k1_sphere(3, 0)["group"] == "Z_3"
        assert k1_sphere(3, -1)["group"] == "Z_3"

    def test_torsion_ladder(self):
        assert k1_sphere(3, 3)["group"] == "Z/3"
        assert k1_sphere(3, 7)["group"] == "Z/3"
        assert k1_sphere(3, 11)["group"] == "Z/9"
        assert k1_sphere(3, 23)["group"] == "Z/9"
        assert k1_sphere(3, 35)["group"] == "Z/27"

    def test_gaps(self):
        for k in (1, 2, 4, 5, 6, 40):
            assert k1_sphere(3, k)["group"] == "0"

    def test_other_odd_primes(self):
        assert k1_sphere(5, 7)["group"] == "Z/5"
        assert k1_sphere(5, 39)["group"] == "Z/25"
        assert k1_sphere(7, 11)["group"] == "Z/7"

    def test_two_rejected(self):
        with pytest.raises(AlgebraError):
            k1_sphere(2, 3)


class TestK1TmfAtTwo:
    def test_periodicity_backbone(self):
        assert k1_tmf_p2(0, 2, 1)["monomial"] == "1"
        assert k1_tmf_p2(8, 2, 1)["monomial"] == "b"
        assert k1_tmf_p2(-8, 2, 1)["monomial"] == "b^-1"
        assert k1_tmf_p2(16, 2, 1)["monomial"] == "b^2"

    def test_eta_multiples(self):
        one = k1_tmf_p2(1, 2, 1)
        assert one["monomial"] == "eta" and not one["free"]
        assert one["relations_applied"] == ["2*eta = 0"]
        assert k1_tmf_p2(2, 2, 1)["monomial"] == "eta^2"
        assert k1_tmf_p2(9, 2, 1)["monomial"] == "eta*b"

    def test_v_classes(self):
        four = k1_tmf_p2(4, 2, 1)
        assert four["monomial"] == "v" and four["free"]
        assert "v^2 = 2b" in four["relations_applied"]
        assert k1_tmf_p2(12, 2, 1)["monomial"] == "v*b"

    def test_zero_degrees(self):
        for n in (3, 5, 6, 7):
            out = k1_tmf_p2(n, 2, 1)
            assert out["module"] == "0"
            assert "eta^3 = 0" in out["relations_applied"]

    def test_rank_tracks_first_argument(self):
        assert k1_tmf_p2(0, 5, 2)["rank"] == 5


# ---------------------------------------------------------------------------
# A second model of the order-3 algebra, written apart from chart.py, and the
# audits that hold the chart's differentials and degrees against it.


def dm_torsion_product(x, y):
    """Product in the order-3 part of the DM presentation.

    Monomials are (a, b, e, m) = alpha^a beta^b x^e Delta^(3m) with the
    relations 3 = 0, alpha^2 = x^2 = beta^5 = alpha*beta^2 = x*beta^2 = 0
    and alpha*x = beta^3.  Returns the normalized monomial or None for 0.
    """
    a = x[0] + y[0]
    b = x[1] + y[1]
    e = x[2] + y[2]
    m = x[3] + y[3]
    while a >= 1 and e >= 1:
        a -= 1
        e -= 1
        b += 3
    if a >= 2 or e >= 2 or b >= 5:
        return None
    if (a == 1 or e == 1) and b >= 2:
        return None
    return (a, b, e, m)


def dm_torsion_degree(mon):
    a, b, e, m = mon
    return 3 * a + 10 * b + 27 * e + 72 * m


def audit_dm_relations(product=dm_torsion_product):
    """Spot-check the presentation relations, degree additivity and
    associativity of the given product."""
    alpha = (1, 0, 0, 0)
    beta = (0, 1, 0, 0)
    x = (0, 0, 1, 0)
    checks = [
        (product(alpha, alpha), None),            # alpha^2 = 0
        (product(x, x), None),                    # x^2 = 0
        (product(alpha, (0, 2, 0, 0)), None),     # alpha*beta^2
        (product(x, (0, 2, 0, 0)), None),         # x*beta^2
        (product((0, 4, 0, 0), beta), None),      # beta^5 = 0
        (product(alpha, x), (0, 3, 0, 0)),        # alpha*x = beta^3
    ]
    for got, expect in checks:
        assert got == expect, "presentation relation audit failed"
    mons = [alpha, beta, x, (0, 2, 0, 0), (0, 1, 1, 0), (1, 1, 0, 0)]
    for u in mons:
        for v in mons:
            w = product(u, v)
            if w is not None:
                assert dm_torsion_degree(w) == \
                    dm_torsion_degree(u) + dm_torsion_degree(v), \
                    "degree additivity failed"
            for z in mons:
                left = product(u, v)
                left = product(left, z) if left else None
                right = product(v, z)
                right = product(u, right) if right else None
                assert left == right, "associativity audit failed"


def torsion_in_page(page, shape):
    """Is alpha^e beta^f Delta^c a torsion class of the given page?

    E2 holds all shapes except alpha*Delta^c with c < 0 (those weights
    belong to the dual lattices); E6 additionally requires the d5
    survivors: 3 | c when alpha is absent, c = 2 mod 3 when alpha and
    beta^(>=2) are both present.
    """
    e, f, c = shape
    if e == 1 and f == 0 and c < 0:
        return False
    if (e, f) == (0, 0):
        return False
    if page == 2:
        return True
    assert page == 6, "only pages 2 and 6 carry differentials"
    if e == 0:
        return c % 3 == 0
    if f >= 2:
        return c % 3 == 2
    return True


def mul_torsion(page, t1, t2):
    """Product of two torsion monomials inside the given page's ring:
    alpha^2 = 0 and classes absent from the page are zero there."""
    e = t1[0] + t2[0]
    if e >= 2:
        return None
    prod = (e, t1[1] + t2[1], t1[2] + t2[2])
    return prod if torsion_in_page(page, prod) else None


def audit_derivations():
    """chart.d5_torsion and chart.d9_torsion, read at call time, satisfy the
    graded Leibniz rule d(xy) = d(x)y + (-1)^|x| x d(y) on the torsion
    algebra of their pages."""
    for page, rule in ((2, chart.d5_torsion), (6, chart.d9_torsion)):
        samples = [(e, f, c) for e in (0, 1) for f in (0, 1, 2, 3)
                   for c in range(-5, 6)
                   if torsion_in_page(page, (e, f, c))]
        for t1 in samples:
            for t2 in samples:
                prod = mul_torsion(page, t1, t2)
                lhs = {}
                if prod is not None:
                    r = rule(*prod)
                    if r:
                        lhs[r[1]] = (lhs.get(r[1], 0) + r[0]) % 3
                rhs = {}
                r = rule(*t1)
                if r:
                    tgt = mul_torsion(page, r[1], t2)
                    if tgt is not None:
                        rhs[tgt] = (rhs.get(tgt, 0) + r[0]) % 3
                r = rule(*t2)
                if r:
                    tgt = mul_torsion(page, t1, r[1])
                    if tgt is not None:
                        sign = 2 if t1[0] % 2 else 1  # (-1)^deg, deg odd iff alpha
                        rhs[tgt] = (rhs.get(tgt, 0) + sign * r[0]) % 3
                lhs = {k: x for k, x in lhs.items() if x}
                rhs = {k: x for k, x in rhs.items() if x}
                assert lhs == rhs, "Leibniz audit failed on %r * %r (page %d)" \
                    % (t1, t2, page)


def audit_degree_bookkeeping():
    """Every class stored in the chart of the default window sits at (s, t)
    with 2t - s equal to its label degree (alpha: 3, beta: 10, Delta: 24,
    c4: 8, c6: 12, duals: -2k-21)."""
    for page in descent_ss().pages:
        for (s, t), ent in page.groups.entries.items():
            n = 2 * t - s
            for (kind, mon, _scale) in ent.free:
                if kind == "mf":
                    assert 2 * monomial_weight(mon) == n, \
                        "zero-line degree mismatch"
                if kind == "dual":
                    assert -2 * monomial_weight(mon) - 21 == n, \
                        "dual-lattice degree mismatch"
            for (e, f, c) in ent.torsion:
                assert 3 * e + 10 * f + 24 * c == n, "torsion degree mismatch"


class TestTorsionAlgebra:
    def test_squares_vanish(self):
        alpha = (1, 0, 0, 0)
        x = (0, 0, 1, 0)
        assert dm_torsion_product(alpha, alpha) is None
        assert dm_torsion_product(x, x) is None

    def test_alpha_x_is_beta_cubed(self):
        assert dm_torsion_product((1, 0, 0, 0), (0, 0, 1, 0)) == (0, 3, 0, 0)

    def test_beta_truncation(self):
        b2 = (0, 2, 0, 0)
        b3 = dm_torsion_product(b2, (0, 1, 0, 0))
        assert b3 == (0, 3, 0, 0)
        assert dm_torsion_product(b3, b2) is None     # beta^5 = 0

    def test_alpha_beta_squared_vanishes(self):
        assert dm_torsion_product((1, 0, 0, 0), (0, 2, 0, 0)) is None

    def test_degree_additivity(self):
        a, b = (1, 0, 0, 0), (0, 1, 0, 1)
        prod = dm_torsion_product(a, b)
        assert dm_torsion_degree(prod) == \
            dm_torsion_degree(a) + dm_torsion_degree(b)

    def test_relation_audit_runs_clean(self):
        audit_dm_relations()

    def test_relation_audit_refuses_a_wrong_relation(self):
        # alpha*x = beta^2 in place of beta^3
        def wrong(u, v):
            w = dm_torsion_product(u, v)
            return (0, 2, 0, 0) if w == (0, 3, 0, 0) else w
        with pytest.raises(AssertionError, match="relation audit"):
            audit_dm_relations(wrong)


class TestInternalAudits:
    def test_differentials_are_derivations(self):
        audit_derivations()

    def test_derivation_audit_refuses_a_broken_leibniz_rule(self, monkeypatch):
        def shifted(e, f, c):
            r = d5_torsion(e, f, c)
            return r and ((r[0] + 1) % 3, r[1])
        monkeypatch.setattr(chart, "d5_torsion", shifted)
        with pytest.raises(AssertionError, match="Leibniz audit failed"):
            audit_derivations()

    def test_every_route_through_tmf_pi_is_audited(self, monkeypatch):
        # a presentation that loses a generator disagrees with E-infinity,
        # also where tmf_pi is reached through the mod-3 groups
        full = chart._dm_free_gens
        monkeypatch.setattr(chart, "_dm_free_gens", lambda n: full(n)[:-1])
        for call in (tmf_pi, chart._tmf3_gens, duality_check):
            with pytest.raises(InternalCheckError):
                call(0)

    @pytest.mark.parametrize("name", ["_dm_free_gens", "_dc_free_gens"])
    def test_a_flipped_scale_fails_the_class_audit(self, name, monkeypatch):
        # the audit compares (kind, monomial, scale) classes, not ranks: a
        # presentation with one wrong scale has the right rank and is refused
        full = getattr(chart, name)

        def flipped(n):
            classes = full(n)
            if classes:
                kind, mon, scale = classes[-1]
                classes[-1] = (kind, mon, 3 // scale)
            return classes
        monkeypatch.setattr(chart, name, flipped)
        degrees = [n for n in range(-80, 81) if full(n)]
        assert degrees
        for n in degrees:
            with pytest.raises(InternalCheckError):
                tmf_pi(n)

    def test_one_degree_chart_matches_the_whole_window(self):
        # tmf_pi audits degree n against descent_ss(n, n)
        def counts(ch, n):
            ents = [e for (s, t), e in ch.infinity.entries.items()
                    if 2 * t - s == n]
            return (sum(e.free_rank() for e in ents),
                    sum(len(e.torsion) for e in ents))
        whole = descent_ss(-82, 82)
        for n in range(-80, 81):
            assert counts(descent_ss(n, n), n) == counts(whole, n), n

    def test_render_builds_the_chart_of_its_window(self):
        whole = descent_ss(-82, 82)
        for lo, hi in ((-40, 40), (-4, 14), (-80, 80), (5, 5)):
            assert render_chart_text(n_min=lo, n_max=hi) == \
                render_chart_text(whole, lo, hi)

    def test_degree_bookkeeping(self):
        audit_degree_bookkeeping()

    def test_render_has_expected_landmarks(self):
        text = render_chart_text(n_min=-4, n_max=14)
        lines = text.splitlines()
        srows = {ln.split("|")[0].replace(" ", ""): ln
                 for ln in lines if ln.startswith("s=")}
        assert "s=0" in srows and "s=1" in srows
        # alpha sits at filtration one, three columns right of the unit
        assert "." in srows["s=1"]
        assert "1" in srows["s=0"]
