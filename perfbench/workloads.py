"""The four benchmark workloads.

A workload is an endless sequence of decks.  A deck is a fixed mix of
request templates whose parameters are drawn from the seed and whose order
is shuffled, so every run sees the same composition of request kinds and
the run-to-run spread comes from the inputs, not from the mix.

Each workload provides:

- ``deck(rng, index)``: the next deck of requests (plain dicts);
- ``call(req)``: the timed request, through the public tmfkit API (or the
  ``tmfkit`` command line for cli-cold);
- ``answer(req, raw)``: plain data pulled out of the result, untimed;
- ``verify(req, answer)``: the oracle from ``oracles``, untimed;
- ``corrupt(req, answer)``: a deliberately wrong answer, which ``verify``
  must reject (the self-check);
- ``properties(reqs)``: input properties of the requests that ran;
- ``setup_code``: what a fresh process runs before its first request;
- ``tail_pct``: the percentile reported as ``latency_tail_ms``;
- ``spawns``: whether requests run in child processes.
"""

import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PRIMES_TO_101 = [p for p in range(2, 102) if all(p % d for d in range(2, p))]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def discriminant(a):
    a1, a2, a3, a4, a6 = a
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def smooth_curve(rng, draw, modulus=None):
    """Draw a-invariants until the curve is smooth; returns (a, draws)."""
    draws = 0
    while True:
        draws += 1
        a = [draw() for _ in range(5)]
        d = discriminant(a)
        if (d % modulus if modulus else d) != 0:
            return a, draws


def stratum(lo, hi, k, i):
    """The i-th of k equal sub-ranges of [lo, hi], as a range."""
    width = (hi - lo + 1) / k
    return range(lo + int(i * width), lo + int((i + 1) * width))


def stratified(rng, lo, hi, k):
    """k integers from [lo, hi], one uniform draw from each of k equal
    sub-ranges, in increasing order of sub-range."""
    return [rng.choice(stratum(lo, hi, k, i)) for i in range(k)]


def random_form(rng, weight, count=None):
    """An integral form of the given weight with ``count`` (by default a
    random 1 to 4) basis monomials, fewer if the weight has fewer."""
    mons = []
    for c in range(weight // 12 + 1):
        for b in (0, 1):
            rest = weight - 12 * c - 6 * b
            if rest >= 0 and rest % 4 == 0:
                mons.append((rest // 4, b, c))
    if count is None:
        count = rng.randint(1, 4)
    chosen = rng.sample(mons, min(len(mons), count))
    return {m: rng.choice([-1, 1]) * rng.randint(1, 9) for m in chosen}


def histogram(values):
    return {str(k): v for k, v in sorted(Counter(values).items())}


# ---------------------------------------------------------------------------


class FglRational:
    """Formal group laws over Q built with the criterion-5 recipe, plus the
    formal group of random smooth curves over Q."""

    name = "fgl-rational"
    why = ("Q-coefficient one-variable reversion and composition path; the "
           "N=16 laws and the curve formal groups set the tail")
    # per deck: 6 laws at each precision, an n-series homomorphism check on
    # 4 of them and full associativity on one, plus 2 curves.  The flags sit
    # on the N=8 and N=16 laws so that the cost groups (N=8, plain N=12,
    # plain N=16, the rest) hold 30/30/20/20% of the requests and the
    # median and the 75th percentile fall inside a group, not on the edge
    # between two.
    LAWS = ([(8, False, True)] * 3 + [(8, False, False)] * 3
            + [(12, False, False)] * 6
            + [(16, True, False), (16, False, True)]
            + [(16, False, False)] * 4)
    CURVE_PRECISIONS = (8, 10)
    tail_pct = 75
    spawns = False
    setup_code = "import tmfkit"

    def deck(self, rng, index):
        out = []
        for n, assoc, hom in self.LAWS:
            terms = {1: Fraction(1)}
            for k in range(2, n):
                num = rng.randint(-6, 6)
                if num:
                    terms[k] = Fraction(num, rng.choice([1, 2, 3, 4, 5]))
            out.append({"kind": "law", "precision": n, "log": terms,
                        "assoc": assoc,
                        "m": rng.choice([2, 3, -1]) if hom else None})
        for n in self.CURVE_PRECISIONS:
            a, draws = smooth_curve(rng, lambda: rng.randint(-3, 3))
            out.append({"kind": "curve", "precision": n, "a": a,
                        "draws": draws})
        rng.shuffle(out)
        return out

    def call(self, req):
        from tmfkit import QQ, Series, FormalGroupLaw, check_homomorphism
        from tmfkit import WeierstrassCurve, formal_group
        n = req["precision"]
        if req["kind"] == "curve":
            curve = WeierstrassCurve.from_ints(QQ, *req["a"])
            return formal_group(curve, n)["fgl"]
        pair = ("x", "y")
        gx = Series.gen(QQ, pair, n, "x")
        gy = Series.gen(QQ, pair, n, "y")
        log = Series(QQ, ("t",), n, {(k,): c for k, c in req["log"].items()})
        exp = log.reverse()
        lx = log.rename(pair, [0]).subst([gx, gy])
        ly = log.rename(pair, [1]).subst([gx, gy])
        law = FormalGroupLaw.validate(exp.compose(lx + ly),
                                      check_associativity=req["assoc"])
        relog = law.logarithm()
        rep = None
        if req["m"] is not None:
            rep = check_homomorphism(law.n_series(req["m"]), law, law)
        return relog, rep

    def answer(self, req, raw):
        if req["kind"] == "curve":
            return {"precision": raw.precision,
                    "low": {e: c for e, c in raw.F.terms.items()
                            if sum(e) <= 4}}
        relog, rep = raw
        return {"precision": relog.precision,
                "relog": {e[0]: c for e, c in relog.terms.items()},
                "hom": None if rep is None else
                bool(rep["is_hom"] and rep["inv2_holds"])}

    def verify(self, req, ans):
        if ans["precision"] != req["precision"]:
            return False
        if req["kind"] == "curve":
            return oracles.check_curve_law(req["a"], ans["low"])
        if req["m"] is not None and ans["hom"] is not True:
            return False
        return oracles.check_relog(req["log"], ans["relog"], req["precision"])

    def corrupt(self, req, ans):
        bad = dict(ans)
        if req["kind"] == "curve":
            bad["low"] = dict(ans["low"])
            bad["low"][(1, 1)] = bad["low"].get((1, 1), 0) + 1
        else:
            bad["relog"] = dict(ans["relog"])
            bad["relog"][2] = bad["relog"].get(2, 0) + Fraction(1, 7)
        return bad

    def properties(self, reqs):
        laws = [r for r in reqs if r["kind"] == "law"]
        curves = [r for r in reqs if r["kind"] == "curve"]
        return {
            "law_precision_histogram": histogram(r["precision"] for r in laws),
            "curve_precision_histogram":
                histogram(r["precision"] for r in curves),
            "associativity_certified": sum(r["assoc"] for r in laws),
            "homomorphism_checks": sum(r["m"] is not None for r in laws),
            "curve_smooth_share":
                len(curves) / max(1, sum(r["draws"] for r in curves)),
        }


class CurvesModP:
    """Hasse invariants of random smooth curves over small prime fields,
    plus supersingular polynomials."""

    name = "curves-modp"
    why = ("the series layer with small-int coefficients and two-variable "
           "products plus algebra.Poly; a Q-only change should not move it")
    # per deck: two supersingular polynomials and 17 curves, weighted
    # towards the larger primes so that the median falls inside the p = 7
    # group and the 75th percentile inside the p = 11 group
    CURVES_PER_PRIME = {2: 2, 3: 2, 5: 2, 7: 4, 11: 4, 13: 3}
    SS_PER_DECK = 2
    tail_pct = 75
    spawns = False
    setup_code = "import tmfkit"

    def __init__(self):
        self._ss_cache = {}

    def deck(self, rng, index):
        out = []
        for p, k in self.CURVES_PER_PRIME.items():
            for _ in range(k):
                a, draws = smooth_curve(rng, lambda: rng.randrange(p), p)
                out.append({"kind": "hasse", "p": p, "precision": p + 2,
                            "a": a, "draws": draws})
        for _ in range(self.SS_PER_DECK):
            out.append({"kind": "ss", "p": rng.choice(PRIMES_TO_101)})
        rng.shuffle(out)
        return out

    def call(self, req):
        from tmfkit import PrimeField, WeierstrassCurve, hasse_invariant
        from tmfkit import supersingular_polynomial
        if req["kind"] == "ss":
            return supersingular_polynomial(req["p"])
        curve = WeierstrassCurve.from_ints(PrimeField(req["p"]), *req["a"])
        return hasse_invariant(curve)

    def answer(self, req, raw):
        if req["kind"] == "ss":
            return {"coeffs": [int(c) for c in raw.phi.coeffs],
                    "degree": raw.degree, "roots": len(set(raw.j_values))}
        return {"ordinary": raw["ordinary"]}

    def verify(self, req, ans):
        if req["kind"] == "ss":
            return oracles.check_ss_poly(req["p"], ans["coeffs"],
                                         ans["degree"], ans["roots"],
                                         self._ss_cache)
        return oracles.check_hasse(req["p"], req["a"], ans["ordinary"])

    def corrupt(self, req, ans):
        if req["kind"] == "ss":
            coeffs = list(ans["coeffs"])
            coeffs[0] += 1
            return dict(ans, coeffs=coeffs)
        return {"ordinary": not ans["ordinary"]}

    def properties(self, reqs):
        hasse = [r for r in reqs if r["kind"] == "hasse"]
        return {
            "fgl_precision_histogram":
                histogram(r["precision"] for r in hasse),
            "ss_prime_histogram":
                histogram(r["p"] for r in reqs if r["kind"] == "ss"),
            "curve_smooth_share":
                len(hasse) / max(1, sum(r["draws"] for r in hasse)),
        }


class FormsChart:
    """q-expansions of random integral forms and of j, plus the chart."""

    name = "forms-chart"
    why = ("one-variable series over Z with big integers and long precision, "
           "no Q and no multivariate products; modforms memo caches hit and miss")
    QEXP_PER_DECK = 7
    CHART_PER_DECK = 2
    CHART_KINDS = ("lifts", "descent_ss", "tmf_pi", "duality")
    # j's cost grows like N^3: its precision comes from one of five strata
    # of [20, 150], visited in this fixed order, one stratum per deck, so
    # any run of consecutive decks covers the strata evenly
    J_STRATA = (0, 3, 1, 4, 2)
    # a q-expansion at a precision seen before hits the modforms caches and
    # costs a fraction of a miss, so the hits are not left to chance: in
    # these precision strata each deck repeats a precision used earlier in
    # the run, and in the others it draws one not used before
    REPEAT_STRATA = (2, 5)
    tail_pct = 75
    spawns = False
    # the chart is built lazily on first use; users pay that once per process
    setup_code = "import tmfkit; tmfkit.tmf_pi(0)"

    def __init__(self):
        self._qs = oracles.QSeries(242)
        self._used = [[] for _ in range(self.QEXP_PER_DECK)]

    def _precision(self, rng, i):
        used = self._used[i]
        if i in self.REPEAT_STRATA and used:
            return rng.choice(used)
        span = stratum(40, 240, self.QEXP_PER_DECK, i)
        n = rng.choice([n for n in span if n not in used] or span)
        used.append(n)
        return n

    def deck(self, rng, index):
        out = []
        # high precisions go with low weights (the i-th precision stratum
        # with the i-th weight stratum from the top) and each stratum has a
        # fixed number of monomials, so request costs stay within a narrow
        # band and the median does not hinge on a few draws
        weights = reversed(stratified(rng, 2, 24, self.QEXP_PER_DECK))
        for i, half in enumerate(weights):
            out.append({"kind": "qexp", "precision": self._precision(rng, i),
                        "weight": 2 * half,
                        "terms": random_form(rng, 2 * half, 1 + i % 4)})
        s = self.J_STRATA[index % len(self.J_STRATA)]
        out.append({"kind": "j", "precision": rng.choice(
            stratum(20, 150, len(self.J_STRATA), s))})
        for kind in rng.sample(self.CHART_KINDS, self.CHART_PER_DECK):
            out.append(self._chart_request(rng, kind))
        rng.shuffle(out)
        return out

    def _chart_request(self, rng, kind):
        if kind == "lifts":
            weight = rng.choice([12, 24, 36, 48, 4, 6, 8, 10, 16, 20])
            return {"kind": kind, "weight": weight,
                    "terms": random_form(rng, weight)}
        if kind == "descent_ss":
            width = rng.randint(10, 60)
            lo = rng.randint(-80, 80 - width)
            return {"kind": kind, "window": (lo, lo + width)}
        if kind == "tmf_pi":
            return {"kind": kind, "degree": rng.randint(-80, 80)}
        return {"kind": kind, "degree": rng.randint(-79, 58)}

    def call(self, req):
        import tmfkit
        kind = req["kind"]
        if kind == "qexp":
            return tmfkit.q_expansion(
                tmfkit.ModularForm(tmfkit.ZZ, req["terms"]), req["precision"])
        if kind == "j":
            return tmfkit.j_q_expansion(req["precision"])
        if kind == "lifts":
            return tmfkit.lifts_to_homotopy(
                tmfkit.ModularForm(tmfkit.ZZ, req["terms"]))
        if kind == "descent_ss":
            return tmfkit.descent_ss(*req["window"])
        if kind == "tmf_pi":
            return tmfkit.tmf_pi(req["degree"])
        return tmfkit.duality_check(req["degree"])

    def answer(self, req, raw):
        kind = req["kind"]
        if kind == "qexp":
            return {"precision": raw.precision,
                    "coeffs": [raw.coeff((i,)) for i in range(raw.precision)]}
        if kind == "j":
            return {"coeffs": [raw.coeff((i,))
                               for i in range(-1, raw.precision)]}
        if kind == "lifts":
            return {"e": raw["e"]}
        if kind == "descent_ss":
            ranks, classes = Counter(), Counter()
            for (s, t), ent in raw.infinity.entries.items():
                ranks[2 * t - s] += ent.free_rank()
                classes[2 * t - s] += ent.free_rank() + len(ent.torsion)
            return {"ranks": dict(ranks), "classes": dict(classes)}
        if kind == "tmf_pi":
            return {"rank": raw.free_rank, "group": raw.group_string()}
        return {"partner": raw["partner_degree"], "is_iso": raw["is_iso"]}

    def verify(self, req, ans):
        kind = req["kind"]
        if kind == "qexp":
            n = req["precision"]
            return ans["precision"] == n and \
                oracles.check_qexp(self._qs, req["terms"], n, ans["coeffs"])
        if kind == "j":
            return oracles.check_j(self._qs, req["precision"], ans["coeffs"])
        if kind == "lifts":
            return oracles.check_lifts(req["weight"], req["terms"], ans["e"])
        if kind == "descent_ss":
            return oracles.check_chart(*req["window"], ans["ranks"],
                                       ans["classes"])
        if kind == "tmf_pi":
            return oracles.check_pi(req["degree"], ans["rank"], ans["group"])
        return oracles.check_duality(req["degree"], ans["partner"],
                                     ans["is_iso"])

    def corrupt(self, req, ans):
        kind = req["kind"]
        if kind in ("qexp", "j"):
            coeffs = list(ans["coeffs"])
            coeffs[-1] += 1
            return dict(ans, coeffs=coeffs)
        if kind == "lifts":
            return {"e": ans["e"] + 1}
        if kind == "descent_ss":
            lo = req["window"][0]
            ranks = dict(ans["ranks"])
            ranks[lo] = ranks.get(lo, 0) + 1
            return dict(ans, ranks=ranks)
        if kind == "tmf_pi":
            return dict(ans, rank=ans["rank"] + 1)
        return dict(ans, is_iso=not ans["is_iso"])

    def properties(self, reqs):
        qexp = [r["precision"] for r in reqs if r["kind"] == "qexp"]
        seen, repeats = set(), 0
        for n in qexp:
            repeats += n in seen
            seen.add(n)
        return {
            "qexp_precision_histogram":
                histogram(40 + 50 * ((n - 40) // 50) for n in qexp),
            "j_precision_histogram": histogram(
                20 + 30 * ((r["precision"] - 20) // 30)
                for r in reqs if r["kind"] == "j"),
            "qexp_precision_repeat_share": repeats / max(1, len(qexp)),
            "chart_kind_histogram": histogram(
                r["kind"] for r in reqs if r["kind"] in self.CHART_KINDS),
        }


class CliCold:
    """One fresh ``tmfkit`` process per request, one at a time."""

    name = "cli-cold"
    why = ("a fresh tmfkit process per call: pays interpreter start and "
           "import, carries the cli, chart, modforms and F_p paths, and "
           "bypasses the Q series path of fgl-rational")
    tail_pct = 75
    spawns = True
    setup_code = "import tmfkit.cli; tmfkit.cli.build_parser()"
    # the body of the installed console script ``tmfkit = tmfkit.cli:main``
    ENTRY = "import sys; from tmfkit.cli import main; sys.exit(main())"

    def __init__(self, traced=False):
        self.traced = traced
        self.summaries = []

    def deck(self, rng, index):
        out = [self._command(rng, kind) for kind in (
            "tmf pi", "tmf chart text", "tmf chart json", "tmf duality",
            "ss-poly", "modforms basis", "modforms qexp", "curve invariants",
            "curve hasse", "sphere k1")]
        rng.shuffle(out)
        return out

    def _command(self, rng, kind):
        stdin = ""
        if kind == "tmf pi":
            argv = ["tmf", "pi", "--degree", str(rng.randint(-80, 80))]
        elif kind.startswith("tmf chart"):
            width = rng.randint(8, 40)
            lo = rng.randint(-80, 80 - width)
            argv = ["tmf", "chart", "--window", "%d..%d" % (lo, lo + width),
                    "--format", kind.split()[-1]]
        elif kind == "tmf duality":
            argv = ["tmf", "duality", "--degree", str(rng.randint(-79, 58))]
        elif kind == "ss-poly":
            argv = ["ss-poly", "--prime", str(rng.choice(PRIMES_TO_101))]
        elif kind == "modforms basis":
            argv = ["modforms", "basis", "--weight", str(rng.randint(0, 100))]
        elif kind == "modforms qexp":
            argv = ["modforms", "qexp", "--precision",
                    str(rng.randint(5, 40))]
            if rng.random() < 0.5:
                stdin = json.dumps({"name": rng.choice(
                    ["c4", "c6", "Delta", "j"])})
            else:
                weight = rng.choice(range(4, 25, 2))
                stdin = json.dumps({"ring": {"kind": "Integers"}, "terms": [
                    {"a": a, "b": b, "c": c, "coeff": v} for (a, b, c), v in
                    random_form(rng, weight).items()]})
        elif kind == "curve invariants":
            a, _ = smooth_curve(rng, lambda: rng.randint(-9, 9))
            stdin = json.dumps({"ring": {"kind": "Rationals"}, "a": a})
            argv = ["curve", "invariants"]
        elif kind == "curve hasse":
            p = rng.choice([2, 3, 5])
            a, _ = smooth_curve(rng, lambda: rng.randrange(p), p)
            stdin = json.dumps({"ring": {"kind": "PrimeField", "p": p},
                                "a": a})
            argv = ["curve", "hasse"]
        else:
            argv = ["sphere", "k1", "--prime", str(rng.choice([3, 5, 7])),
                    "--degree", str(rng.randint(-1, 60))]
        return {"kind": kind, "argv": argv, "stdin": stdin}

    def call(self, req):
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "spans.py")]
        else:
            cmd = [sys.executable, "-c", self.ENTRY]
        proc = subprocess.run(cmd + req["argv"], input=req["stdin"].encode(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              cwd=ROOT, env=child_env(), timeout=120)
        if self.traced:
            lines = proc.stderr.decode().strip().splitlines()
            self.summaries.append(json.loads(lines[-1]))
        return proc.returncode, proc.stdout

    def answer(self, req, raw):
        return {"returncode": raw[0], "stdout": raw[1]}

    def in_process(self, req):
        """stdout of tmfkit.cli.main for the same argv, run in this process."""
        from tmfkit import cli
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(req["stdin"])
        try:
            code = cli.main(list(req["argv"]), out=out)
        finally:
            sys.stdin = saved
        return code, out.getvalue().encode()

    def verify(self, req, ans):
        code, expected = self.in_process(req)
        return ans["returncode"] == 0 == code and ans["stdout"] == expected

    def corrupt(self, req, ans):
        out = bytearray(ans["stdout"])
        out[0] ^= 1
        return dict(ans, stdout=bytes(out))

    def properties(self, reqs):
        return {"command_histogram": histogram(r["kind"] for r in reqs)}


WORKLOADS = {w.name: w for w in (FglRational, CurvesModP, FormsChart,
                                 CliCold)}
