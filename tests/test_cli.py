"""Command-line front end: pinned outputs, payload plumbing, exit codes,
and byte-for-byte determinism."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from tmfkit import cli, fgl
from tmfkit.algebra import (InternalCheckError, POLY_BITS_CAP, POLY_COEFF_CAP,
                            RING_DEPTH_CAP, SMITH_BITS_CAP, ring_from_json)
from tmfkit.fgl import LANDWEBER_DEGREE_CAP, LANDWEBER_WORK_CAP
from tmfkit.series import Series


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(argv, out=out)
    return code, out.getvalue()


CURVE_J0 = '{"ring": {"kind": "Rationals"}, "a": [0, 0, 0, 0, 1]}'


class TestPinnedOutputs:
    def test_ss_poly_three(self):
        code, out = run_cli(["ss-poly", "--prime", "3"])
        assert code == 0
        assert out == '{"Phi": "j", "degree": 1, "epsilon": 1}\n'

    def test_tmf_pi_three(self):
        code, out = run_cli(["tmf", "pi", "--degree", "3"])
        assert code == 0
        assert out == '{"group": "Z/3", "gens": ["alpha"]}\n'

    def test_curve_invariants(self, monkeypatch):
        code, out = run_cli(["curve", "invariants"], CURVE_J0, monkeypatch)
        assert code == 0
        assert out == '{"c4": 0, "c6": -864, "Delta": -432, "j": 0}\n'

    def test_ss_poly_thirteen(self):
        code, out = run_cli(["ss-poly", "--prime", "13"])
        assert out == '{"Phi": "j + 8", "degree": 1, "epsilon": 0}\n'


class TestCurveCommands:
    def test_invariants_from_file(self, tmp_path, monkeypatch):
        path = tmp_path / "curve.json"
        path.write_text(CURVE_J0)
        code, out = run_cli(["curve", "invariants", "--file", str(path)])
        assert code == 0 and json.loads(out)["j"] == 0

    def test_rational_j(self, monkeypatch):
        payload = ('{"ring": {"kind": "Rationals"}, '
                   '"a": [0, -1, 1, 0, 0]}')
        code, out = run_cli(["curve", "invariants"], payload, monkeypatch)
        assert json.loads(out)["j"] == "-4096/11"

    def test_fgl(self, monkeypatch):
        code, out = run_cli(["curve", "fgl", "--precision", "6"],
                            CURVE_J0, monkeypatch)
        assert code == 0
        blob = json.loads(out)
        assert set(blob) == {"F", "eta", "x", "y"}
        assert blob["F"]["precision"] == 6
        linear = [t for t in blob["F"]["terms"]
                  if sorted(t["exp"]) == [0, 1]]
        assert all(t["coeff"] == 1 for t in linear) and len(linear) == 2

    def test_fgl_where_two_is_a_zero_divisor(self, monkeypatch):
        payload = ('{"ring": {"kind": "IntegersMod", "m": 12}, '
                   '"a": [1, 0, 3, 2, 5]}')
        code, out = run_cli(["curve", "fgl", "--precision", "6"],
                            payload, monkeypatch)
        assert code == 0
        assert json.loads(out)["eta"]["precision"] == 5

    def test_hasse(self, monkeypatch):
        payload = '{"ring": {"kind": "PrimeField", "p": 5}, "a": [0, 0, 0, 0, 1]}'
        code, out = run_cli(["curve", "hasse"], payload, monkeypatch)
        assert json.loads(out) == {"p": 5, "v1": 0, "ordinary": False}

    def test_missing_field_exits_two(self, monkeypatch):
        code, _ = run_cli(["curve", "invariants"],
                          '{"ring": {"kind": "Rationals"}}', monkeypatch)
        assert code == 2


class TestModformsCommands:
    def test_basis(self):
        code, out = run_cli(["modforms", "basis", "--weight", "12"])
        assert json.loads(out) == {"weight": 12, "dimension": 2,
                                   "basis": ["c4^3", "Delta"]}

    def test_qexp_generator(self, monkeypatch):
        code, out = run_cli(["modforms", "qexp", "--precision", "4"],
                            '{"name": "Delta"}', monkeypatch)
        blob = json.loads(out)
        coeffs = {tuple(t["exp"]): t["coeff"] for t in blob["terms"]}
        assert coeffs == {(1,): 1, (2,): -24, (3,): 252}

    def test_qexp_j(self, monkeypatch):
        code, out = run_cli(["modforms", "qexp", "--precision", "3"],
                            '{"name": "j"}', monkeypatch)
        coeffs = {tuple(t["exp"]): t["coeff"]
                  for t in json.loads(out)["terms"]}
        assert coeffs[(-1,)] == 1 and coeffs[(0,)] == 744
        assert coeffs[(1,)] == 196884

    def test_qexp_full_form(self, monkeypatch):
        form = json.dumps({
            "ring": {"kind": "Integers"},
            "terms": [{"a": 1, "b": 0, "c": 0, "coeff": 2}],
        })
        code, out = run_cli(["modforms", "qexp", "--precision", "2"],
                            form, monkeypatch)
        coeffs = {tuple(t["exp"]): t["coeff"]
                  for t in json.loads(out)["terms"]}
        assert coeffs == {(0,): 2, (1,): 480}


class TestTmfCommands:
    def test_chart_json(self):
        code, out = run_cli(["tmf", "chart", "--window", "0..14"])
        blob = json.loads(out)
        assert blob["window"] == [0, 14]
        assert [p["page"] for p in blob["pages"]] == [5, 9, 10]

    def test_chart_negative_window(self):
        code, out = run_cli(["tmf", "chart", "--window", "-24..-20"])
        assert code == 0
        blob = json.loads(out)
        stable = blob["pages"][2]["entries"]
        labels = [g for e in stable for g in e["free_gens"]]
        assert "3*dual(1)" in labels

    def test_chart_text(self):
        code, out = run_cli(["tmf", "chart", "--window", "-4..14",
                             "--format", "text"])
        assert code == 0 and out.startswith("s=")

    def test_bad_window_exits_two(self):
        code, _ = run_cli(["tmf", "chart", "--window", "0-14"])
        assert code == 2

    def test_duality(self):
        code, out = run_cli(["tmf", "duality", "--degree", "0"])
        assert json.loads(out) == {
            "degree": 0, "partner_degree": -21, "rows": ["1"],
            "cols": ["3*dual(1)"], "matrix": [[1]], "is_iso": True}

    def test_pi_negative_degree(self):
        code, out = run_cli(["tmf", "pi", "--degree", "-21"])
        assert out == '{"group": "Z_(3)", "gens": ["3*dual(1)"]}\n'

    def test_pi_out_of_window_exits_two(self):
        code, _ = run_cli(["tmf", "pi", "--degree", "101"])
        assert code == 2


class TestSphereCommand:
    def test_k1(self):
        code, out = run_cli(["sphere", "k1", "--prime", "3",
                             "--degree", "11"])
        assert json.loads(out)["group"] == "Z/9"

    def test_even_prime_exits_two(self):
        code, _ = run_cli(["sphere", "k1", "--prime", "2", "--degree", "3"])
        assert code == 2


class TestLandweber:
    def write_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_multiplicative_passes(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "law": "multiplicative", "ring": {"kind": "Integers"},
            "p": 3, "n_max": 2})
        code, out = run_cli(["landweber", "--config", cfg])
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_additive_fails_stage_one(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "law": "additive", "ring": {"kind": "Integers"},
            "p": 3, "n_max": 2})
        _, out = run_cli(["landweber", "--config", cfg])
        assert json.loads(out)["verdict"] == "fail at stage 1"

    def test_honda_fails_stage_zero(self, tmp_path):
        cfg = self.write_config(tmp_path, {
            "law": {"honda": {"p": 3, "n": 2}}, "p": 3, "n_max": 2})
        _, out = run_cli(["landweber", "--config", cfg])
        assert json.loads(out)["verdict"] == "fail at stage 0"

    def test_honda_height_above_n_max(self, tmp_path):
        # the Honda law is built at the precision its own height needs
        cfg = self.write_config(tmp_path, {
            "law": {"honda": {"p": 3, "n": 2}}, "p": 3, "n_max": 1})
        code, out = run_cli(["landweber", "--config", cfg])
        assert code == 0
        assert json.loads(out)["verdict"] == "fail at stage 0"

    def test_honda_at_the_law_precision_cap(self, tmp_path, monkeypatch):
        # p^n_max = 128, so the law is built at precision 130; a Honda law
        # is certified by construction, without the three-variable check
        checked = []
        monkeypatch.setattr(fgl, "_check_associative", checked.append)
        cfg = self.write_config(tmp_path, {
            "law": {"honda": {"p": 2, "n": 1}}, "p": 2, "n_max": 7})
        start = time.monotonic()
        code, out = run_cli(["landweber", "--config", cfg])
        assert code == 0 and time.monotonic() - start < 5
        assert json.loads(out)["verdict"] == "fail at stage 0"
        assert checked == []

    def test_explicit_series_law(self, tmp_path):
        F = {"ring": {"kind": "Integers"}, "vars": ["x", "y"],
             "precision": 12,
             "terms": [{"exp": [1, 0], "coeff": 1},
                       {"exp": [0, 1], "coeff": 1},
                       {"exp": [1, 1], "coeff": 1}]}
        cfg = self.write_config(tmp_path, {
            "law": {"F": F}, "p": 3, "n_max": 2})
        _, out = run_cli(["landweber", "--config", cfg])
        assert json.loads(out)["verdict"] == "pass"

    def test_bad_law_exits_two(self, tmp_path):
        cfg = self.write_config(tmp_path, {"law": "frobenius", "p": 3})
        code, _ = run_cli(["landweber", "--config", cfg])
        assert code == 2

    @pytest.mark.parametrize("relations,witness", [
        ([[{"mon": [0, 1], "coeff": 3}, {"mon": [1, 0], "coeff": 3}]],
         "w + u"),
        ([[{"mon": [0, 1], "coeff": 4}],
          [{"mon": [0, 1], "coeff": 3}, {"mon": [1, 0], "coeff": -3}]],
         "-6*w + 2*u"),
    ], ids=["3w+3u", "4w,3w-3u"])
    def test_kernel_witness_pinned(self, tmp_path, relations, witness):
        # the witness is read off the kernel basis of the Smith form, so
        # its label pins the order of the elimination moves
        cfg = self.write_config(tmp_path, {
            "law": "multiplicative", "ring": {"kind": "Integers"}, "p": 3,
            "presentation": {"gens": [["u", 1], ["w", 1]],
                             "relations": relations}})
        code, out = run_cli(["landweber", "--config", cfg])
        assert code == 0 and json.loads(out)["stages"] == [
            {"stage": 0, "v": 3, "status": "fail", "first_failing_degree": 1,
             "kernel_witness": witness}]


def landweber_sweep():
    """Seeded landweber configs: the multiplicative and additive laws over
    Z, Z/6 and F_3 and Honda laws of height 1 and 2 at 2, 3 and 5, for p in
    {2, 3, 5} and n_max in {0, 1, 2}, half of them on a seeded presentation
    of one to three generators."""
    rng = random.Random("landweber sweep")
    rings = [{"kind": "Integers"}, {"kind": "IntegersMod", "m": 6},
             {"kind": "PrimeField", "p": 3}]
    laws = [(law, ring) for law in ("multiplicative", "additive")
            for ring in rings]
    laws += [({"honda": {"p": q, "n": n}}, None)
             for q in (2, 3, 5) for n in (1, 2)]
    configs = []
    for law, ring in laws:
        for p in (2, 3, 5):
            for n_max in (0, 1, 2):
                cfg = {"law": law, "p": p, "n_max": n_max,
                       "degree_bound": rng.randint(1, 4)}
                if ring:
                    cfg["ring"] = ring
                if rng.random() < 0.5:
                    gens = [["g%d" % i, rng.randint(1, 2)]
                            for i in range(rng.randint(1, 3))]
                    cfg["presentation"] = {"gens": gens, "relations": [
                        [{"mon": [rng.randint(0, 1) for _ in gens],
                          "coeff": rng.choice([-3, -2, 2, 3, 4, 6, 9])}]
                        for _ in range(rng.randint(0, 2))]}
                configs.append(cfg)
    return configs


def test_landweber_sweep_output_is_pinned(tmp_path):
    """Every config of the sweep answers.  The outputs are pinned (sha256)
    for all but the Honda laws with p^n >= p^n_max + 2, the ones for which
    the CLI raises the law's precision past what the check needs."""
    path = tmp_path / "config.json"
    digest = hashlib.sha256()
    pinned = refused = 0
    for cfg in landweber_sweep():
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["landweber", "--config", str(path)])
        assert code == 0, cfg
        honda = cfg["law"].get("honda") if isinstance(cfg["law"], dict) \
            else None
        if honda and honda["p"] ** honda["n"] >= cfg["p"] ** cfg["n_max"] + 2:
            refused += 1
        else:
            digest.update(out.encode())
            pinned += 1
    assert (pinned, refused) == (81, 27)
    assert digest.hexdigest() == ("100c578919bb942958ab12caa280ad0e"
                                  "f082db2686826cdfce74042d04c8727d")


class TestErrorHandling:
    def test_malformed_json_exits_two(self, monkeypatch, capsys):
        code, _ = run_cli(["curve", "invariants"], '{"bad json',
                          monkeypatch)
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_nonprime_exits_two(self):
        code, _ = run_cli(["ss-poly", "--prime", "4"])
        assert code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tmf", "pi", "--degree", "3", "--bogus"])
        assert exc.value.code == 2

    def test_internal_failure_exits_three(self, monkeypatch):
        def explode(args, out):
            raise InternalCheckError("boom")
        monkeypatch.setattr(cli, "_cmd_tmf_pi", explode)
        code, _ = run_cli(["tmf", "pi", "--degree", "3"])
        assert code == 3

    def test_missing_file_exits_two(self):
        code, _ = run_cli(["landweber", "--config", "/nonexistent.json"])
        assert code == 2


def nested_ring(depth):
    """A ring descriptor: PolynomialRing over itself depth times, over F_3."""
    return ('{"kind": "PolynomialRing", "base": ' * depth
            + '{"kind": "PrimeField", "p": 3}' + "}" * depth)


# argv and raw payload text around a ring descriptor, for each command that
# reads JSON; an integer is not a coefficient of a polynomial ring, so a
# descriptor that decodes still gives exit 2
RING_PAYLOADS = {
    "curve invariants": (["curve", "invariants"],
                         '{"ring": %s, "a": [0, 0, 0, 0, 1]}'),
    "curve hasse": (["curve", "hasse"], '{"ring": %s, "a": [0, 0, 0, 0, 1]}'),
    "curve fgl": (["curve", "fgl", "--precision", "4"],
                  '{"ring": %s, "a": [0, 0, 0, 0, 1]}'),
    "modforms qexp": (["modforms", "qexp", "--precision", "5"],
                      '{"ring": %s, "terms": [{"a": 1, "b": 0, "c": 0, '
                      '"coeff": 1}]}'),
    "landweber": (["landweber", "--config"],
                  '{"p": 3, "law": {"F": {"ring": %s, "vars": ["x", "y"], '
                  '"precision": 4, "terms": [{"exp": [1, 0], "coeff": 1}]}}}'),
}


def run_text(argv, text):
    """cli.main on raw payload text, on stdin, or for landweber in a config
    file whose path ends argv; stderr is left to the caller."""
    if argv[0] == "landweber":
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as fh:
                fh.write(text)
            return cli.main(argv + [path], out=io.StringIO())
    with mock.patch.object(sys, "stdin", io.StringIO(text)):
        return cli.main(argv, out=io.StringIO())


class TestDeepNesting:
    """JSON nested past the recursion limit is an input error (exit 2),
    whether json.loads or a ring descriptor's decoder runs out of stack."""

    @pytest.mark.parametrize("command", sorted(RING_PAYLOADS))
    @pytest.mark.parametrize("depth", [1000, 10000, 100000])
    @pytest.mark.parametrize("shape", ["list", "object"])
    def test_nested_text(self, command, depth, shape, capsys):
        text = ("[" * depth + "]" * depth if shape == "list"
                else '{"a": ' * depth + "1" + "}" * depth)
        assert run_text(RING_PAYLOADS[command][0], text) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err

    @pytest.mark.parametrize("decoder", [
        ring_from_json,
        lambda ring: cli.wz_mod.WeierstrassCurve.from_json(
            {"ring": ring, "a": [0, 0, 0, 0, 1]}),
        lambda ring: Series.from_json(
            {"ring": ring, "vars": ["x"], "precision": 2, "terms": []}),
        lambda ring: cli.mf_mod.ModularForm.from_json(
            {"ring": ring, "terms": []}),
    ], ids=["ring", "curve", "series", "modular-form"])
    def test_decoder_out_of_stack_is_an_input_error(self, decoder):
        # built in Python: json.loads would run out of stack first
        ring = {"kind": "PrimeField", "p": 3}
        for _ in range(5000):
            ring = {"kind": "PolynomialRing", "base": ring}
        with pytest.raises(cli.CLIInputError,
                           match="maximum recursion depth exceeded"):
            cli._decode("payload", decoder, ring)

    @pytest.mark.parametrize("command", sorted(RING_PAYLOADS))
    @pytest.mark.parametrize("depth", [900, 960, 985, 1500, 5000])
    def test_nested_ring_descriptor(self, command, depth, capsys):
        argv, payload = RING_PAYLOADS[command]
        assert run_text(argv, payload % nested_ring(depth)) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err


def nested_coeff(value, depth):
    """A coefficient of the ring of nested_ring(depth): value, listed depth
    times."""
    return json.loads("[" * depth + str(value) + "]" * depth)


def nested_curve_payloads(depth):
    """(argv, text) for curve invariants, curve hasse and landweber over the
    ring of nested_ring(depth); the curve y^2 = x^3 + x + 1 is smooth over
    F_3, and its coefficients are nested to match the ring."""
    ring = json.loads(nested_ring(depth))
    curve = json.dumps({"ring": ring, "a": [nested_coeff(v, depth)
                                            for v in (0, 0, 0, 1, 1)]})
    law = json.dumps({"p": 3, "law": "multiplicative", "ring": ring,
                      "n_max": 1})
    return [(["curve", "invariants"], curve), (["curve", "hasse"], curve),
            (["landweber", "--config"], law)]


class TestRingDepthCap:
    """A ring descriptor that nests PolynomialRing past RING_DEPTH_CAP is an
    input error at once; at the cap every command still gives its answer."""

    def test_curve_nested_400_deep_exits_two(self, capsys):
        argv, text = nested_curve_payloads(400)[0]
        start = time.monotonic()
        assert run_text(argv, text) == 2
        assert time.monotonic() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err

    @pytest.mark.parametrize("i", range(3),
                             ids=["invariants", "hasse", "landweber"])
    def test_one_past_the_cap_names_it(self, i, capsys):
        argv, text = nested_curve_payloads(RING_DEPTH_CAP + 1)[i]
        start = time.monotonic()
        assert run_text(argv, text) == 2
        assert time.monotonic() - start < 5
        assert "exceeds the desk-scale cap %d" % RING_DEPTH_CAP in \
            capsys.readouterr().err

    def test_at_the_cap_every_command_answers(self, capsys):
        (inv, curve), (hasse, _), (lw, law) = \
            nested_curve_payloads(RING_DEPTH_CAP)
        assert run_text(inv, curve) == 0
        assert run_text(hasse, curve) == 0
        capsys.readouterr()
        # landweber's own verdict on a polynomial ring, not the cap
        assert run_text(lw, law) == 2
        err = capsys.readouterr().err
        assert "law must have scalar coefficients" in err
        assert "desk-scale cap" not in err


class TestDeskScaleCaps:
    """Inputs far past a desk-scale cap are refused at once, not computed."""

    @pytest.mark.parametrize("argv,stdin", [
        (["modforms", "basis", "--weight", "100000000"], None),
        (["modforms", "qexp", "--precision", "10000000"], '{"name": "Delta"}'),
        (["curve", "fgl", "--precision", "100000"], CURVE_J0),
        (["modforms", "qexp", "--precision", "100"],
         '{"ring": {"kind": "Integers"}, '
         '"terms": [{"a": 100000, "b": 0, "c": 0, "coeff": 1}]}'),
        (["modforms", "qexp", "--precision", "1000"],
         '{"ring": {"kind": "Integers"}, '
         '"terms": [{"a": 0, "b": 60, "c": 0, "coeff": 1}]}'),
    ], ids=["basis-weight", "qexp-precision", "curve-precision",
            "qexp-monomial-weight", "qexp-work"])
    def test_exits_two_quickly(self, argv, stdin, monkeypatch, capsys):
        start = time.monotonic()
        code, _ = run_cli(argv, stdin, monkeypatch if stdin else None)
        assert code == 2 and time.monotonic() - start < 5
        assert "exceeds the desk-scale cap" in capsys.readouterr().err

    @pytest.mark.parametrize("p,n_max", [(999983, 1), (3, 10 ** 9)],
                             ids=["large-prime", "large-height"])
    def test_landweber_law_precision(self, p, n_max, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"law": "multiplicative",
                                    "ring": {"kind": "Integers"},
                                    "p": p, "n_max": n_max}))
        start = time.monotonic()
        code, _ = run_cli(["landweber", "--config", str(path)])
        assert code == 2 and time.monotonic() - start < 5
        assert "exceeds the desk-scale cap 128" in capsys.readouterr().err

    @pytest.mark.parametrize("law", ["multiplicative",
                                     {"honda": {"p": 3, "n": 1}}],
                             ids=["multiplicative", "honda"])
    def test_landweber_explicit_precision(self, law, tmp_path):
        # the CLI picks the law's precision itself, so a "precision" key
        # changes nothing, however large or small
        path = tmp_path / "config.json"
        cfg = {"law": law, "p": 3, "n_max": 1}
        path.write_text(json.dumps(cfg))
        code, expected = run_cli(["landweber", "--config", str(path)])
        assert code == 0
        for precision in (400, 2):
            path.write_text(json.dumps(dict(cfg, precision=precision)))
            start = time.monotonic()
            assert run_cli(["landweber", "--config", str(path)]) == \
                (0, expected)
            assert time.monotonic() - start < 5

    @pytest.mark.parametrize("degree_bound", [LANDWEBER_DEGREE_CAP + 1,
                                              10 ** 9],
                             ids=["cap-plus-one", "huge"])
    def test_landweber_degree_bound(self, degree_bound, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"law": "multiplicative", "p": 3,
                                    "degree_bound": degree_bound}))
        start = time.monotonic()
        code, _ = run_cli(["landweber", "--config", str(path)])
        assert code == 2 and time.monotonic() - start < 1
        assert "exceeds the desk-scale cap %d" % LANDWEBER_DEGREE_CAP in \
            capsys.readouterr().err

    def test_landweber_work(self, tmp_path, capsys):
        # four free generators of degree 1: degree bound 8 is the largest
        # that the work cap allows, and 9 is past it
        pres = {"gens": [["g%d" % i, 1] for i in range(4)]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"law": "multiplicative", "p": 3,
                                    "degree_bound": 9,
                                    "presentation": pres}))
        start = time.monotonic()
        code, _ = run_cli(["landweber", "--config", str(path)])
        assert code == 2 and time.monotonic() - start < 1
        assert "exceeds the desk-scale cap %d" % LANDWEBER_WORK_CAP in \
            capsys.readouterr().err

    def test_landweber_smith_entry_bits(self, tmp_path, capsys):
        # five relations among five degree-1 generators with coefficients in
        # +-1000: without the cap the Smith form's entries grow for minutes
        rng = random.Random(0)
        relations = [[{"mon": [int(i == j) for j in range(5)],
                       "coeff": rng.randint(-1000, 1000)} for i in range(5)]
                     for _ in range(5)]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "law": "multiplicative", "ring": {"kind": "Integers"}, "p": 3,
            "n_max": 1, "degree_bound": 1,
            "presentation": {"gens": [["g%d" % i, 1] for i in range(5)],
                             "relations": relations}}))
        start = time.monotonic()
        code, _ = run_cli(["landweber", "--config", str(path)])
        assert code == 2 and time.monotonic() - start < 5
        assert "exceeds the desk-scale cap %d" % SMITH_BITS_CAP in \
            capsys.readouterr().err


class TestMalformedFields:
    """A field of the wrong shape is an input error: exit 2 with a message,
    never a traceback."""

    def run(self, argv, stdin=""):
        proc = subprocess.run([sys.executable, "-m", "tmfkit.cli"] + argv,
                              input=stdin, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("input error: ")

    def test_qexp_term_without_a(self):
        form = {"ring": {"kind": "Integers"},
                "terms": [{"b": 0, "c": 0, "coeff": 1}]}
        self.run(["modforms", "qexp", "--precision", "5"], json.dumps(form))

    @pytest.mark.parametrize("cfg", [
        {"law": "multiplicative", "ring": {"kind": "IntegersMod"}, "p": 3},
        {"law": "multiplicative", "p": "x"},
        {"law": {"honda": {"p": "x", "n": 1}}, "p": 3},
        {"law": "multiplicative", "p": 3, "presentation": [1]},
    ], ids=["ring-without-m", "p-not-integer", "honda-p-not-integer",
            "presentation-not-object"])
    def test_landweber_config(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        self.run(["landweber", "--config", str(path)])


class TestMalformedPayloadsInProcess:
    """Payloads that once escaped as tracebacks are rejected where they
    enter: the ring constructor, coeff_from_json, the presentation and the
    series decoder."""

    @pytest.mark.parametrize("argv,payload,message", [
        (["curve", "invariants"],
         {"ring": {"kind": "QuadExtField", "p": 3, "modulus": [1]},
          "a": [0, 0, 0, 1, 1]}, "modulus must be [c, b] or [c, b, 1]"),
        (["curve", "invariants"],
         {"ring": {"kind": "Rationals"}, "a": [0, 0, 0, "1/0", 1]},
         "zero denominator in '1/0'"),
        (["modforms", "qexp", "--precision", "5"],
         {"ring": {"kind": "Rationals"},
          "terms": [{"a": 1, "b": 0, "c": 0, "coeff": "1/0"}]},
         "zero denominator in '1/0'"),
        (["modforms", "qexp", "--precision", "5"], {"name": [1]},
         "unhashable type"),
    ], ids=["quad-modulus-too-short", "curve-zero-denominator",
            "qexp-zero-denominator", "qexp-name-not-a-string"])
    def test_stdin_payload(self, argv, payload, message, monkeypatch,
                           capsys):
        code, out = run_cli(argv, json.dumps(payload), monkeypatch)
        err = capsys.readouterr().err
        assert (code, out) == (2, "") and err.startswith("input error: ")
        assert message in err

    @pytest.mark.parametrize("cfg,message", [
        ({"law": "multiplicative", "ring": {"kind": "Integers"}, "p": 3,
          "presentation": {"gens": [["u", 1]],
                           "relations": [[{"mon": [1, 0], "coeff": 3}]]}},
         "relation monomial (1, 0) needs one non-negative exponent per "
         "generator"),
        ({"law": {"F": {"ring": {"kind": "Integers"}, "vars": ["x", "y"],
                        "precision": 6,
                        "terms": [{"exp": [1], "coeff": 1},
                                  {"exp": [0, 1], "coeff": 1}]}}, "p": 3},
         "exponent [1] does not match the variables ['x', 'y']"),
        ({"law": "multiplicative", "p": 0, "n_max": -1},
         "height -1 is negative"),
    ], ids=["relation-monomial-too-long", "series-exponent-too-short",
            "negative-height"])
    def test_landweber_config(self, cfg, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["landweber", "--config", str(path)])
        err = capsys.readouterr().err
        assert (code, out) == (2, "") and err.startswith("input error: ")
        assert message in err

    def test_empty_relation_monomial_is_the_constant_term(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "law": "multiplicative", "ring": {"kind": "Integers"}, "p": 3,
            "presentation": {"gens": [["u", 1]],
                             "relations": [[{"mon": [], "coeff": 3}]]}}))
        code, out = run_cli(["landweber", "--config", str(path)])
        assert code == 0
        assert json.loads(out)["verdict"] == "fail at stage 0"

    def test_integer_past_the_digit_limit(self, monkeypatch, capsys):
        text = '{"ring": {"kind": "Integers"}, "a": [0, 0, 0, 0, %s]}' \
            % ("9" * 5000)
        code, _ = run_cli(["curve", "invariants"], text, monkeypatch)
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: malformed")

    @pytest.mark.parametrize("ring", ["Rationals", "ZLocalAt"])
    def test_exponent_notation_is_rejected_at_once(self, ring, monkeypatch,
                                                   capsys):
        payload = {"ring": {"kind": ring, "p": 3},
                   "a": [0, 0, 0, "1/2", "1e10000000"]}
        t0 = time.perf_counter()
        code, out = run_cli(["curve", "invariants"], json.dumps(payload),
                            monkeypatch)
        assert time.perf_counter() - t0 < 1
        assert (code, out) == (2, "")
        assert "expected rational, got '1e10000000'" in capsys.readouterr().err

    def test_rational_forms_of_the_output_parse(self, monkeypatch):
        # b2 = 20, b4 = -3/2, b6 = 2
        payload = {"ring": {"kind": "Rationals"},
                   "a": [0, "5", 0, "-3/4", "1/2"]}
        code, out = run_cli(["curve", "invariants"], json.dumps(payload),
                            monkeypatch)
        got = json.loads(out)
        assert code == 0 and (got["c4"], got["c6"]) == (436, -9512)

    @pytest.mark.parametrize("payload", [
        '{"ring": {"kind": "Integers"}, "a": [0, 0, 0, %s, %s]}'
        % (10 ** 3000 - 1, 10 ** 3000 - 1),
        json.dumps({"ring": {"kind": "Rationals"},
                    "a": [0, 0, 0, 0, "9" * 4000 + "/7"]}),
    ], ids=["integers-json-dumps", "rationals-coeff-to-json"])
    def test_result_past_the_digit_limit(self, payload, monkeypatch, capsys):
        code, out = run_cli(["curve", "invariants"], payload, monkeypatch)
        err = capsys.readouterr().err
        assert (code, out) == (2, "") and err.startswith("input error: ")
        assert "limit (%d digits)" % sys.get_int_max_str_digits() in err

    def test_other_value_errors_surface(self, monkeypatch):
        def broken(weight):
            raise ValueError("not a digit-limit error")
        monkeypatch.setattr(cli.mf_mod, "basis_monomials", broken)
        with pytest.raises(ValueError, match="not a digit-limit error"):
            run_cli(["modforms", "basis", "--weight", "4"])


def curve_over(ring):
    return {"ring": ring, "a": [0, 0, 0, 1, 1]}


def form_with(**fields):
    term = dict({"a": 1, "b": 0, "c": 0, "coeff": 1}, **fields)
    return {"ring": {"kind": "Integers"}, "terms": [term]}


def law_config(**fields):
    return dict({"law": "multiplicative", "p": 3, "n_max": 1}, **fields)


def additive_law(precision=4, exp=(1, 0)):
    return {"F": {"ring": {"kind": "Integers"}, "vars": ["x", "y"],
                  "precision": precision,
                  "terms": [{"exp": list(exp), "coeff": 1},
                            {"exp": [0, 1], "coeff": 1}]}}


CURVE_INVARIANTS = ["curve", "invariants"]
QEXP = ["modforms", "qexp", "--precision", "4"]
LANDWEBER = ["landweber", "--config"]
# each integer field of a payload: (argv, the payload with v in the field,
# an integer the payload answers with, the field's name in the message)
INTEGER_FIELDS = {
    "ring-m": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "IntegersMod", "m": v}), 6, "'m'"),
    "ring-p": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "PrimeField", "p": v}), 7, "'p'"),
    "quad-p": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "QuadExtField", "p": v}), 5, "'p'"),
    "quad-modulus": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "QuadExtField", "p": 3, "modulus": [1, v, 1]}), 0,
        "'modulus'"),
    "inverted": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "ZInverted", "inverted": [v]}), 2, "'inverted'"),
    "local-p": (CURVE_INVARIANTS, lambda v: curve_over(
        {"kind": "ZLocalAt", "p": v}), 3, "'p'"),
    "form-a": (QEXP, lambda v: form_with(a=v), 1, "exponent 'a'"),
    "form-b": (QEXP, lambda v: form_with(b=v), 1, "exponent 'b'"),
    "form-c": (QEXP, lambda v: form_with(c=v), 1, "exponent 'c'"),
    "landweber-p": (LANDWEBER, lambda v: law_config(p=v), 3, "'p'"),
    "n_max": (LANDWEBER, lambda v: law_config(n_max=v), 1, "'n_max'"),
    "degree_bound": (LANDWEBER, lambda v: law_config(degree_bound=v), 2,
                     "'degree_bound'"),
    "honda-p": (LANDWEBER, lambda v: law_config(
        law={"honda": {"p": v, "n": 1}}), 3, "'p'"),
    "honda-n": (LANDWEBER, lambda v: law_config(
        law={"honda": {"p": 3, "n": v}}), 1, "'n'"),
    "series-precision": (LANDWEBER, lambda v: law_config(
        law=additive_law(precision=v)), 4, "'precision'"),
    "series-exponent": (LANDWEBER, lambda v: law_config(
        law=additive_law(exp=(v, 0))), 1, "exponent"),
    "gen-degree": (LANDWEBER, lambda v: law_config(
        presentation={"gens": [["u", v]]}), 2, "degree"),
    "relation-mon": (LANDWEBER, lambda v: law_config(
        presentation={"gens": [["u", 1]],
                      "relations": [[{"mon": [v], "coeff": 3}]]}), 1,
        "'mon'"),
    "relation-coeff": (LANDWEBER, lambda v: law_config(
        presentation={"gens": [["u", 1]],
                      "relations": [[{"mon": [1], "coeff": v}]]}), 3,
        "'coeff'"),
}


class TestIntegerFields:
    """An integer field of a payload takes a JSON integer only: a float is
    not truncated, and a numeric string or a boolean is not read as a
    number."""

    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integer_answers(self, field):
        # so the exit 2 below comes from the field alone
        argv, payload, good, _ = INTEGER_FIELDS[field]
        assert run_text(argv, json.dumps(payload(good))) == 0

    @pytest.mark.parametrize("value", [6.9, 2.0, "7", True],
                             ids=["float", "integral-float", "string",
                                  "true"])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_non_integer_exits_two_and_names_the_field(self, field, value,
                                                       capsys):
        argv, payload, _, name = INTEGER_FIELDS[field]
        assert run_text(argv, json.dumps(payload(value))) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: expected ")
        assert name in err and repr(value) in err


def test_negative_exponent_in_a_law_of_two_variables(capsys):
    # x^-1 y is no term of a series in x and y: the constructor refuses it
    cfg = law_config(law=additive_law(exp=(-1, 1)))
    assert run_text(LANDWEBER, json.dumps(cfg)) == 2
    assert "a series of several variables has no negative exponents" in \
        capsys.readouterr().err


@pytest.mark.parametrize("names", ["xy", ["x", "x"], ["x", 1]],
                         ids=["string", "repeated", "non-string"])
def test_law_vars_are_a_list_of_distinct_names(names, capsys):
    # a string is not read letter by letter, and a repeated name does not
    # fold two variables into one
    law = additive_law()
    law["F"]["vars"] = names
    assert run_text(LANDWEBER, json.dumps(law_config(law=law))) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: 'vars' must be a list of distinct")
    assert repr(names) in err


def poly_coeff(rng, shape):
    """A random coefficient of Q nested len(shape) deep, with shape[i]
    entries at level i."""
    if not shape:
        return "%d/%d" % (rng.randint(1, 9), rng.randint(2, 9))
    return [poly_coeff(rng, shape[1:]) for _ in range(shape[0])]


def poly_curve(shape, seed=0):
    """curve invariants over Q nested in len(shape) PolynomialRings, five
    random a-invariants of the given shape."""
    rng = random.Random(seed)
    ring = {"kind": "Rationals"}
    for _ in shape:
        ring = {"kind": "PolynomialRing", "base": ring}
    return json.dumps({"ring": ring,
                       "a": [poly_coeff(rng, shape) for _ in range(5)]})


class TestPolynomialCoefficientCap:
    """A polynomial coefficient of a payload has at most POLY_COEFF_CAP base
    coefficients, counted through the nesting; curve invariants grow to
    degree 12 in them."""

    @pytest.mark.parametrize("shape", [(POLY_COEFF_CAP,), (6, 2), (2, 6),
                                       (POLY_COEFF_CAP, 1)],
                             ids=str)
    def test_at_the_cap_curve_invariants_answers_in_time(self, shape):
        text = poly_curve(shape)
        start = time.monotonic()
        assert run_text(CURVE_INVARIANTS, text) == 0
        assert time.monotonic() - start < 5

    @pytest.mark.parametrize("shape", [(POLY_COEFF_CAP + 1,),
                                       (POLY_COEFF_CAP + 1, 1),
                                       (1, POLY_COEFF_CAP + 1),
                                       (7, 2), (100000,)], ids=str)
    def test_past_the_cap_exits_two_at_once(self, shape, capsys):
        text = poly_curve(shape)
        start = time.monotonic()
        assert run_text(CURVE_INVARIANTS, text) == 2
        assert time.monotonic() - start < 1
        assert "exceed the desk-scale cap %d" % POLY_COEFF_CAP in \
            capsys.readouterr().err

    def test_series_and_form_coefficients_are_capped(self, capsys):
        ring = {"kind": "PolynomialRing", "base": {"kind": "PrimeField",
                                                   "p": 3}}
        big = [1] * (POLY_COEFF_CAP + 1)
        form = {"ring": ring, "terms": [{"a": 1, "b": 0, "c": 0,
                                         "coeff": big}]}
        law = law_config(law={"F": {"ring": ring, "vars": ["x", "y"],
                                    "precision": 3,
                                    "terms": [{"exp": [1, 0], "coeff": big}]}})
        assert run_text(QEXP, json.dumps(form)) == 2
        assert run_text(LANDWEBER, json.dumps(law)) == 2
        assert capsys.readouterr().err.count(
            "exceed the desk-scale cap %d" % POLY_COEFF_CAP) == 2


def sized_curve(shape, bits, seed=0):
    """curve invariants over Q nested len(shape) deep: five random
    a-invariants of the given shape, each base coefficient a reduced
    fraction of at most `bits` bits, numerator and denominator together."""
    rng = random.Random(seed)
    top = bits // 2

    def coeff(shape):
        if shape:
            return [coeff(shape[1:]) for _ in range(shape[0])]
        c = Fraction(rng.randrange(1 << top - 1, 1 << top),
                     rng.randrange(1 << bits - top - 1, 1 << bits - top))
        return "%d/%d" % (c.numerator * rng.choice([1, -1]), c.denominator)
    ring = {"kind": "Rationals"}
    for _ in shape:
        ring = {"kind": "PolynomialRing", "base": ring}
    return {"ring": ring, "a": [coeff(shape) for _ in range(5)]}


def payload_bits(obj):
    """The bits of a payload coefficient over Q, as the cap counts them."""
    if isinstance(obj, list):
        return sum(map(payload_bits, obj))
    c = Fraction(obj)
    return c.numerator.bit_length() + c.denominator.bit_length()


class TestPolynomialBitsCap:
    """Over characteristic 0 a polynomial coefficient of a payload has at
    most POLY_BITS_CAP bits in its numerators and denominators, summed
    through the nesting: curve invariants grow with their size too."""

    @pytest.mark.parametrize("shape", [(POLY_COEFF_CAP,), (4, 3), (3, 4)],
                             ids=str)
    def test_at_the_cap_curve_invariants_answers_in_time(self, shape):
        # every coefficient has 21 bits: 12 of them are 252 of the 256
        payload = sized_curve(shape, POLY_BITS_CAP // POLY_COEFF_CAP)
        heaviest = max(map(payload_bits, payload["a"]))
        assert POLY_BITS_CAP - POLY_COEFF_CAP * 2 <= heaviest <= POLY_BITS_CAP
        start = time.monotonic()
        assert run_text(CURVE_INVARIANTS, json.dumps(payload)) == 0
        assert time.monotonic() - start < 5

    def test_forty_digit_fractions_exit_two_at_once(self, capsys):
        # five 12-term a-invariants of 40-digit fractions over Q[T]
        rng = random.Random(0)
        a = [["%d/%d" % (rng.randrange(10 ** 39, 10 ** 40),
                         rng.randrange(10 ** 39, 10 ** 40))
              for _ in range(POLY_COEFF_CAP)] for _ in range(5)]
        text = json.dumps({"ring": {"kind": "PolynomialRing",
                                    "base": {"kind": "Rationals"}}, "a": a})
        start = time.monotonic()
        assert run_text(CURVE_INVARIANTS, text) == 2
        assert time.monotonic() - start < 1
        err = capsys.readouterr().err
        assert "bits in one polynomial coefficient exceed the desk-scale " \
            "cap %d" % POLY_BITS_CAP in err

    @pytest.mark.parametrize("depth", [1, 2])
    def test_the_bound_is_exact(self, depth, capsys):
        # 2^254 has 255 bits and its denominator 1 one: 256 in all
        for n, code in ((2 ** 254, 0), (2 ** 255, 2)):
            ring, coeff = {"kind": "Rationals"}, n
            for _ in range(depth):
                ring = {"kind": "PolynomialRing", "base": ring}
                coeff = [coeff]
            text = json.dumps({"ring": ring, "a": [coeff, [], [], [], []]})
            assert run_text(CURVE_INVARIANTS, text) == code
        assert "257 bits in one polynomial coefficient" in \
            capsys.readouterr().err

    def test_residues_are_not_counted(self):
        # over F_{p^2} the coefficients do not grow: 12 residue pairs near
        # 10^6, 480 bits, answer
        p = 999983
        rng = random.Random(0)
        a = [[[rng.randrange(p), rng.randrange(p)]
              for _ in range(POLY_COEFF_CAP)] for _ in range(5)]
        ring = {"kind": "PolynomialRing",
                "base": {"kind": "QuadExtField", "p": p}}
        assert run_text(CURVE_INVARIANTS,
                        json.dumps({"ring": ring, "a": a})) == 0


# -- in-process fuzz: random JSON values in the real fields of each payload

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10 ** 6, 10 ** 6),
    st.sampled_from(["1/0", "2/3", "-1/2", "0", "1e3", "x", ""]),
    st.text(max_size=4))
JSON_VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=6)


def fuzz(valid):
    """The valid values of a field, or any JSON value in its place."""
    return st.one_of(valid, JSON_VALUES)


SMALL = st.integers(-2, 13)      # primes, moduli and generator degrees
NAMES = fuzz(st.sampled_from(["x", "y", "u"]))
RINGS = st.one_of(
    st.sampled_from([{"kind": "Integers"}, {"kind": "Rationals"}]),
    st.fixed_dictionaries({"kind": st.just("IntegersMod"), "m": fuzz(SMALL)}),
    st.fixed_dictionaries({"kind": st.just("PrimeField"), "p": fuzz(SMALL)}),
    st.fixed_dictionaries(
        {"kind": st.just("QuadExtField"), "p": fuzz(SMALL)},
        optional={"modulus": fuzz(st.lists(SMALL, max_size=4))}),
    st.fixed_dictionaries({"kind": st.just("ZInverted"),
                           "inverted": fuzz(st.lists(SMALL, max_size=2))}),
    st.fixed_dictionaries({"kind": st.just("ZLocalAt"), "p": fuzz(SMALL)}),
    st.fixed_dictionaries({"kind": st.just("PolynomialRing"),
                           "base": fuzz(st.fixed_dictionaries(
                               {"kind": st.just("PrimeField"),
                                "p": SMALL}))}),
    JSON_VALUES)
COEFFS = fuzz(st.one_of(SMALL, st.lists(SMALL, min_size=2, max_size=2),
                        st.sampled_from(["1/2", "-3/4", "5"])))
CURVES = fuzz(st.fixed_dictionaries(
    {"ring": RINGS, "a": fuzz(st.lists(COEFFS, min_size=5, max_size=5))}))
FORMS = fuzz(st.one_of(
    st.fixed_dictionaries({"name": fuzz(st.sampled_from(
        ["c4", "c6", "Delta", "j"]))}),
    st.fixed_dictionaries({"ring": RINGS, "terms": fuzz(st.lists(
        fuzz(st.fixed_dictionaries({
            "a": fuzz(st.integers(-1, 4)), "b": fuzz(st.integers(-1, 4)),
            "c": fuzz(st.integers(-1, 3)), "coeff": COEFFS})),
        max_size=4))})))
# exponent notation, and integers and integer strings near Python's
# 4300-digit str() limit, in well-formed payloads over the rings that take
# them; only for commands whose cost stays small on them (not curve fgl)
HUGE = st.one_of(SMALL, st.sampled_from(
    ["1e10000000", "-2E5000", "1e3", "5e-1"]), st.builds(
        lambda sign, digit, k, den: sign + str(digit) * k + den,
        st.sampled_from(["", "-"]), st.integers(1, 9),
        st.integers(3900, 4300), st.sampled_from(["", "/7"])), st.builds(
        lambda digit, k: int(str(digit) * k), st.integers(1, 9),
        st.integers(2900, 4300)))
HUGE_RINGS = st.sampled_from([{"kind": "Integers"}, {"kind": "Rationals"},
                              {"kind": "ZLocalAt", "p": 3}])
HUGE_CURVES = st.fixed_dictionaries(
    {"ring": HUGE_RINGS, "a": st.lists(HUGE, min_size=5, max_size=5)})
HUGE_FORMS = st.fixed_dictionaries({"ring": HUGE_RINGS, "terms": st.lists(
    st.fixed_dictionaries({"a": st.integers(0, 4), "b": st.integers(0, 4),
                           "c": st.integers(0, 3), "coeff": HUGE}),
    min_size=1, max_size=4)})
SERIES = fuzz(st.fixed_dictionaries({
    "ring": RINGS, "vars": fuzz(st.lists(NAMES, max_size=3)),
    "precision": fuzz(st.integers(-1, 10)),
    "terms": fuzz(st.lists(fuzz(st.fixed_dictionaries({
        "exp": fuzz(st.lists(st.integers(-1, 3), max_size=3)),
        "coeff": COEFFS})), max_size=5))}))
LAWS = fuzz(st.one_of(
    st.sampled_from(["multiplicative", "additive"]),
    st.fixed_dictionaries({"honda": fuzz(st.fixed_dictionaries(
        {"p": fuzz(SMALL), "n": fuzz(st.integers(-1, 2))}))}),
    st.fixed_dictionaries({"F": SERIES})))
PRESENTATIONS = fuzz(st.fixed_dictionaries({}, optional={
    "gens": fuzz(st.lists(fuzz(st.tuples(NAMES, fuzz(st.integers(-1, 3)))),
                          max_size=3)),
    "relations": fuzz(st.lists(fuzz(st.lists(fuzz(st.fixed_dictionaries({
        "mon": fuzz(st.lists(st.integers(-1, 3), max_size=3)),
        "coeff": fuzz(SMALL)})), max_size=3)), max_size=3))}))
CONFIGS = fuzz(st.fixed_dictionaries({"law": LAWS, "p": fuzz(SMALL)}, optional={
    "ring": RINGS, "n_max": fuzz(st.integers(-1, 2)),
    "degree_bound": fuzz(st.integers(-1, 4)),
    "precision": fuzz(st.integers(-1, 30)),
    "presentation": PRESENTATIONS}))


class RawText(str):
    """Payload text handed to the command as it is, not through
    json.dumps (which cannot build JSON nested this deep)."""


DEPTHS = st.one_of(st.integers(900, 3000), st.just(100000))


def nested_text(command):
    """Lists, objects or a ring descriptor nested about as deep as the
    recursion limit or far past it."""
    return st.one_of(
        st.builds(lambda d: RawText("[" * d + "]" * d), DEPTHS),
        st.builds(lambda d: RawText('{"a": ' * d + "1" + "}" * d), DEPTHS),
        st.builds(lambda d: RawText(RING_PAYLOADS[command][1]
                                    % nested_ring(d)), DEPTHS))


FUZZED = {
    "curve invariants": st.tuples(st.just(["curve", "invariants"]),
                                  st.one_of(CURVES, HUGE_CURVES,
                                            nested_text("curve invariants"))),
    "curve hasse": st.tuples(st.just(["curve", "hasse"]),
                             st.one_of(CURVES, nested_text("curve hasse"))),
    "curve fgl": st.builds(
        lambda n, c: (["curve", "fgl", "--precision", str(n)], c),
        st.integers(-1, 8), st.one_of(CURVES, nested_text("curve fgl"))),
    "modforms qexp": st.builds(
        lambda n, f: (["modforms", "qexp", "--precision", str(n)], f),
        st.integers(-1, 12), st.one_of(FORMS, HUGE_FORMS,
                                       nested_text("modforms qexp"))),
    "landweber": st.tuples(st.just(["landweber", "--config"]),
                           st.one_of(CONFIGS, nested_text("landweber"))),
}


@pytest.mark.parametrize("command", sorted(FUZZED))
@settings(max_examples=100, deadline=5000)
@given(data=st.data())
def test_fuzzed_payloads_exit_zero_or_two(command, data):
    """cli.main, in this process, on random JSON values in the fields of a
    real payload: exit 0 or 2, and no exception escapes."""
    argv, payload = data.draw(FUZZED[command])
    text = payload if isinstance(payload, RawText) else json.dumps(payload)
    with contextlib.redirect_stderr(io.StringIO()):
        code = run_text(argv, text)
    assert code in (0, 2)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        outs = {run_cli(["tmf", "chart", "--window", "-26..26"])[1]
                for _ in range(3)}
        assert len(outs) == 1

    def test_single_line_plus_newline(self):
        _, out = run_cli(["tmf", "pi", "--degree", "8"])
        assert out.endswith("\n") and out.count("\n") == 1


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tmfkit.cli", "ss-poly", "--prime", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"Phi": "j", "degree": 1, "epsilon": 1}\n'

    def test_exit_code_propagates(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tmfkit.cli", "ss-poly", "--prime", "9"],
            capture_output=True, text=True)
        assert proc.returncode == 2
