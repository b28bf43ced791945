"""Batch command-line front end.

Parses exact JSON payloads (stdin or file), dispatches to the library, and
prints deterministic JSON (or a text chart).  All numbers are exact --
integers, fraction strings, residues -- never floating point.

Exit codes: 0 success, 2 input error (bad flags, malformed JSON, domain
errors on the input, a result with an integer past Python's str() digit
limit), 3 internal consistency failure (a library postcondition or
cross-check tripped; these abort loudly).
"""

import argparse
import json
import sys

from .algebra import (AlgebraError, InternalCheckError, is_prime, json_int,
                      ring_from_json)
from .series import Series
from . import chart as chart_mod
from . import fgl as fgl_mod
from . import modforms as mf_mod
from . import weierstrass as wz_mod

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class CLIInputError(Exception):
    pass


def _read_payload(args):
    path = getattr(args, "file", None)
    if path:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise CLIInputError("cannot read %s: %s" % (path, exc))
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CLIInputError(
            "malformed JSON at line %d column %d: %s"
            % (exc.lineno, exc.colno, exc.msg))
    except ValueError as exc:   # an integer past Python's digit limit
        raise CLIInputError("malformed JSON: %s" % exc)
    except RecursionError:
        raise CLIInputError("malformed JSON: nested too deeply")


def _emit(obj, out):
    if isinstance(obj, str):
        out.write(obj + "\n")
    else:
        out.write(json.dumps(obj) + "\n")


def _require(payload, key, where):
    if not isinstance(payload, dict) or key not in payload:
        raise CLIInputError("missing field %r in %s" % (key, where))
    return payload[key]


def _decode(where, fn, *args):
    """fn(*args) on payload fields; a missing key, a value of the wrong
    type or one nested past the recursion limit is an input error, not a
    crash."""
    try:
        return fn(*args)
    except (AttributeError, KeyError, RecursionError, TypeError,
            ValueError) as exc:
        raise CLIInputError("bad %s: %s" % (where, exc))


def _curve_from_payload(payload):
    _require(payload, "ring", "curve JSON")
    _require(payload, "a", "curve JSON")
    return _decode("curve JSON", wz_mod.WeierstrassCurve.from_json, payload)


# -- subcommand handlers ----------------------------------------------------


def _cmd_curve_invariants(args, out):
    curve = _curve_from_payload(_read_payload(args))
    inv = curve.invariants()
    R = curve.ring
    kind, val = inv.j_class()
    if kind == "value":
        j = R.coeff_to_json(val)
    elif kind == "pair":
        j = [R.coeff_to_json(val[0]), R.coeff_to_json(val[1])]
    else:
        j = "undefined"
    _emit({"c4": R.coeff_to_json(inv.c4),
           "c6": R.coeff_to_json(inv.c6),
           "Delta": R.coeff_to_json(inv.delta),
           "j": j}, out)


def _cmd_curve_fgl(args, out):
    curve = _curve_from_payload(_read_payload(args))
    data = wz_mod.formal_group(curve, args.precision)
    _emit({"F": data["fgl"].F.to_json(),
           "eta": data["eta"].to_json(),
           "x": data["x_series"].to_json(),
           "y": data["y_series"].to_json()}, out)


def _cmd_curve_hasse(args, out):
    curve = _curve_from_payload(_read_payload(args))
    rep = wz_mod.hasse_invariant(curve)
    _emit({"p": curve.ring.characteristic(),
           "v1": curve.ring.coeff_to_json(rep["v1"]),
           "ordinary": rep["ordinary"]}, out)


def _cmd_ss_poly(args, out):
    rep = wz_mod.supersingular_polynomial(args.prime)
    _emit({"Phi": rep.phi.to_string("j"),
           "degree": rep.degree,
           "epsilon": rep.epsilon}, out)


def _cmd_modforms_basis(args, out):
    mons = mf_mod.basis_monomials(args.weight)
    _emit({"weight": args.weight,
           "dimension": len(mons),
           "basis": [mf_mod.monomial_label(m) for m in mons]}, out)


def _cmd_modforms_qexp(args, out):
    payload = _read_payload(args)
    if isinstance(payload, dict) and payload.get("name") == "j":
        _emit(mf_mod.j_q_expansion(args.precision).to_json(), out)
        return
    if isinstance(payload, dict) and "name" in payload:
        form = _decode("modular form JSON", mf_mod.ModularForm.generator,
                       payload["name"])
    else:
        _require(payload, "terms", "modular form JSON")
        form = _decode("modular form JSON", mf_mod.ModularForm.from_json,
                       payload)
    _emit(mf_mod.q_expansion(form, args.precision).to_json(), out)


def _cmd_tmf_pi(args, out):
    report = chart_mod.tmf_pi(args.degree)
    _emit({"group": report.group_string(),
           "gens": report.labels()}, out)


def _parse_window(text):
    if ".." not in text:
        raise CLIInputError("window must look like a..b, got %r" % text)
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise CLIInputError("window bounds must be integers, got %r" % text)


def _cmd_tmf_chart(args, out):
    lo, hi = _parse_window(args.window)
    chart = chart_mod.descent_ss(lo, hi)
    if args.format == "text":
        _emit(chart_mod.render_chart_text(chart, lo, hi), out)
    else:
        _emit(chart.to_json(), out)


def _cmd_tmf_duality(args, out):
    _emit(chart_mod.duality_check(args.degree), out)


def _cmd_sphere_k1(args, out):
    _emit(chart_mod.k1_sphere(args.prime, args.degree), out)


def _presentation_from_config(cfg):
    gens = []
    for item in cfg.get("gens", []):
        if (not isinstance(item, (list, tuple)) or len(item) != 2):
            raise CLIInputError("presentation gens must be [name, degree] pairs")
        gens.append((str(item[0]), json_int(item[1], "integer degree")))
    relations = []
    for rel in cfg.get("relations", []):
        terms = {}
        for term in rel:
            mon = tuple(json_int(e, "integer exponent in 'mon'")
                        for e in _require(term, "mon", "relation term"))
            terms[mon] = json_int(_require(term, "coeff", "relation term"),
                                  "integer 'coeff'")
        relations.append(terms)
    return fgl_mod.GradedRingPresentation(gens, relations)


def _law_from_config(cfg, precision):
    law = _require(cfg, "law", "landweber config")
    ring = (_decode("ring descriptor", ring_from_json, cfg["ring"])
            if "ring" in cfg else None)
    if law == "multiplicative":
        from .algebra import ZZ
        return fgl_mod.FormalGroupLaw.multiplicative(ring or ZZ, precision)
    if law == "additive":
        from .algebra import ZZ
        return fgl_mod.FormalGroupLaw.additive(ring or ZZ, precision)
    if isinstance(law, dict) and "honda" in law:
        params = law["honda"]
        p = json_int(_require(params, "p", "honda law"), "integer 'p'")
        n = json_int(_require(params, "n", "honda law"), "integer 'n'")
        if is_prime(p) and n >= 1:   # else honda_fgl names the bad one
            precision = max(precision, fgl_mod.law_precision(p, n) + 2)
        return fgl_mod.honda_fgl(p, n, precision)
    if isinstance(law, dict) and "F" in law:
        F = _decode("series JSON", Series.from_json, law["F"], ring)
        return fgl_mod.FormalGroupLaw.validate(F)
    raise CLIInputError(
        "law must be 'multiplicative', 'additive', {'honda': {...}} or "
        "{'F': series JSON}")


def _cmd_landweber(args, out):
    cfg = _read_payload(args)
    where = "landweber config"
    p = json_int(_require(cfg, "p", where), "integer 'p'")
    n_max = json_int(cfg.get("n_max", 2), "integer 'n_max'")
    degree_bound = json_int(cfg.get("degree_bound", 4),
                            "integer 'degree_bound'")
    # the check reads [p](t) up to t^(p^n_max), so this precision suffices
    law = _law_from_config(cfg, fgl_mod.law_precision(p, n_max) + 2)
    if "presentation" in cfg:
        pres = _decode("presentation", _presentation_from_config,
                       cfg["presentation"])
    else:
        # default: present the law's own scalar base ring
        pres = fgl_mod.GradedRingPresentation()
        m = law.ring.characteristic()
        if m:
            pres = pres.with_constant_relation(m)
    _emit(fgl_mod.landweber_regularity(pres, law, p, n_max, degree_bound),
          out)


# -- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tmfkit",
        description="Exact computations: elliptic-curve formal groups, "
                    "supersingular loci, level-1 modular forms, and the "
                    "3-local descent chart with its -21-shifted duality.")
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="Weierstrass curve operations")
    curve_sub = curve.add_subparsers(dest="subcommand", required=True)
    ci = curve_sub.add_parser("invariants",
                              help="b/c-invariants, discriminant and j")
    ci.add_argument("--file", help="curve JSON file (default: stdin)")
    ci.set_defaults(handler=_cmd_curve_invariants)
    cf = curve_sub.add_parser("fgl", help="formal group law of the curve")
    cf.add_argument("--precision", type=int, required=True)
    cf.add_argument("--file", help="curve JSON file (default: stdin)")
    cf.set_defaults(handler=_cmd_curve_fgl)
    chs = curve_sub.add_parser("hasse", help="Hasse invariant v1 mod p")
    chs.add_argument("--file", help="curve JSON file (default: stdin)")
    chs.set_defaults(handler=_cmd_curve_hasse)

    ss = sub.add_parser("ss-poly", help="supersingular polynomial Phi_p(j)")
    ss.add_argument("--prime", type=int, required=True)
    ss.set_defaults(handler=_cmd_ss_poly)

    mf = sub.add_parser("modforms", help="level-1 modular forms")
    mf_sub = mf.add_subparsers(dest="subcommand", required=True)
    mb = mf_sub.add_parser("basis", help="weight-k monomial basis")
    mb.add_argument("--weight", type=int, required=True)
    mb.set_defaults(handler=_cmd_modforms_basis)
    mq = mf_sub.add_parser("qexp", help="q-expansion of a form (or of j)")
    mq.add_argument("--precision", type=int, required=True)
    mq.add_argument("--file", help="modular form JSON file (default: stdin)")
    mq.set_defaults(handler=_cmd_modforms_qexp)

    tmf = sub.add_parser("tmf", help="3-local descent chart and homotopy")
    tmf_sub = tmf.add_subparsers(dest="subcommand", required=True)
    tp = tmf_sub.add_parser("pi", help="homotopy group in one degree")
    tp.add_argument("--degree", type=int, required=True)
    tp.set_defaults(handler=_cmd_tmf_pi)
    tc = tmf_sub.add_parser("chart", help="spectral-sequence pages")
    tc.add_argument("--window", required=True, metavar="a..b")
    tc.add_argument("--format", choices=("json", "text"), default="json")
    tc.set_defaults(handler=_cmd_tmf_chart)
    td = tmf_sub.add_parser("duality", help="-21-shifted mod-3 pairing")
    td.add_argument("--degree", type=int, required=True)
    td.set_defaults(handler=_cmd_tmf_duality)

    sphere = sub.add_parser("sphere", help="K(1)-local sphere, closed form")
    sphere_sub = sphere.add_subparsers(dest="subcommand", required=True)
    sk = sphere_sub.add_parser("k1", help="homotopy at an odd prime")
    sk.add_argument("--prime", type=int, required=True)
    sk.add_argument("--degree", type=int, required=True)
    sk.set_defaults(handler=_cmd_sphere_k1)

    lw = sub.add_parser("landweber",
                        help="regular-sequence (exactness) check")
    lw.add_argument("--config", required=True, dest="file",
                    help="JSON config file")
    lw.set_defaults(handler=_cmd_landweber)
    return parser


def _normalize_argv(argv):
    """Glue ``--window -4..14`` into ``--window=-4..14`` so a negative lower
    bound is not mistaken for a flag."""
    if argv is None:
        argv = sys.argv[1:]
    merged = []
    i = 0
    while i < len(argv):
        if (argv[i] == "--window" and i + 1 < len(argv)
                and ".." in argv[i + 1]):
            merged.append("--window=" + argv[i + 1])
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    try:
        args.handler(args, out)
    except InternalCheckError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (CLIInputError, AlgebraError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # an input whose result has an integer past Python's str() digit
        # limit; any other ValueError is a defect and surfaces
        if "integer string conversion" not in str(exc):
            raise
        print("input error: result too large to print: %s" % exc,
              file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
