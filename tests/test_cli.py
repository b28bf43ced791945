"""Command-line front end: pinned outputs, payload plumbing, exit codes,
and byte-for-byte determinism."""

import io
import json
import random
import subprocess
import sys
import time

import pytest

from tmfkit import cli
from tmfkit.algebra import InternalCheckError, SMITH_BITS_CAP


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


class TestDeskScaleCaps:
    """Inputs far past a desk-scale cap are refused at once, not computed."""

    @pytest.mark.parametrize("argv,stdin", [
        (["modforms", "basis", "--weight", "100000000"], None),
        (["modforms", "qexp", "--precision", "10000000"], '{"name": "Delta"}'),
        (["curve", "fgl", "--precision", "100000"], CURVE_J0),
        (["modforms", "qexp", "--precision", "100"],
         '{"ring": {"kind": "Integers"}, '
         '"terms": [{"a": 100000, "b": 0, "c": 0, "coeff": 1}]}'),
    ], ids=["basis-weight", "qexp-precision", "curve-precision",
            "qexp-monomial-weight"])
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
    def test_landweber_explicit_precision(self, law, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"law": law, "p": 3, "n_max": 1,
                                    "precision": 400}))
        start = time.monotonic()
        code, _ = run_cli(["landweber", "--config", str(path)])
        assert code == 2 and time.monotonic() - start < 5
        assert "precision 400 exceeds the desk-scale cap 130" in \
            capsys.readouterr().err
        path.write_text(json.dumps({"law": law, "p": 3, "n_max": 1,
                                    "precision": 12}))
        assert run_cli(["landweber", "--config", str(path)])[0] == 0


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
