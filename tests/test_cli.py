"""CLI: schema validation, output formats, exit codes, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from nullcontrol import cli, grushin_tstar_profile, models, observation_integral, solve_mode
from nullcontrol.cli import main, run
from nullcontrol.errors import RationalRootWarning
from nullcontrol.schemas import (
    CONFIG_SCHEMA,
    DIAGNOSTICS_SCHEMA,
    ERROR_SCHEMA,
    KEYWORDS,
    SchemaViolation,
    validate,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def _write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = {"command": "indices", "sequence": {"rule": "power"}, "bogus": 1}
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("cfg", [
        {"command": "verify", "model": {"name": "pointwise_heat", "x0": 1.5}},
        {"command": "verify", "model": {"name": "two_diffusion_pointwise", "d": 2.0, "x0": 0.0}},
        {"command": "verify", "model": {"name": "cascade_internal_q", "omega": [-0.1, 0.5],
                                        "q_breakpoints": [0.6, 0.9], "q_values": [1.0]}},
        {"command": "grushin", "params": {"a": -0.5, "b": 0.5}},
        {"command": "grushin", "params": {"a": 0.3, "b": 1.5}},
    ], ids=["x0-above", "x0-zero", "omega-below", "grushin-a", "grushin-b"])
    def test_ranges_rejected_by_the_schema(self, tmp_path, capsys, cfg):
        # the ranges the models enforce are stated in the schema: these
        # exit 2 before any model or profile is built
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith("config rejected")

    @pytest.mark.parametrize("key,value", [("precision", "extended"), ("dps", 80)],
                             ids=["precision", "dps"])
    def test_unknown_params_key_rejected(self, tmp_path, capsys, key, value):
        # the dual solve has one working-precision policy: no key selects it
        cfgp = _write_config(tmp_path, {"command": "biortho",
                                        "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
                                        "params": {"N": 2, key: value}})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"].startswith("config rejected: ")
        assert f"'{key}'" in err["message"]

    def test_precision_flag_rejected(self, tmp_path):
        cfgp = _write_config(tmp_path, {"command": "indices", "sequence": {"rule": "power"}})
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfgp), "--out", str(tmp_path / "o"),
                  "--precision", "extended"])
        assert exc.value.code == 2

    def test_unknown_command_rejected(self, tmp_path):
        cfgp = _write_config(tmp_path, {"command": "frobnicate"})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section,desc,field", [
        ("sequence", {"rule": "power", "tau": 1.0}, "tau"),
        ("sequence", {"rule": "appendixB", "d": 2.0}, "d"),
        ("sequence", {"rule": "two_diffusion"}, "d"),
        ("sequence", {"rule": "two_diffusion", "d": 2.0, "tau": 1.0}, "tau"),
        ("sequence", {"rule": "academic_lf"}, "tau"),
        ("sequence", {"rule": "academic_lf", "tau": 0.2, "scale": 2.0}, "scale"),
        ("sequence", {"rule": "explicit"}, "values"),
        ("model", {"name": "pointwise_heat"}, "x0"),
        ("model", {"name": "cascade_internal_q", "q_breakpoints": [0.2, 0.8],
                   "q_values": [1.0]}, "omega"),
        ("model", {"name": "cascade_boundary_q", "q_values": [1.0]}, "q_breakpoints"),
        ("model", {"name": "cascade_boundary_q", "q_breakpoints": [0.2, 0.8]}, "q_values"),
        ("model", {"name": "two_diffusion_boundary"}, "d"),
        ("model", {"name": "two_diffusion_pointwise", "d": 2.0}, "x0"),
        ("model", {"name": "academic_lf"}, "tau"),
    ])
    def test_key_set_checked_per_rule_and_model(self, tmp_path, capsys, section, desc, field):
        command = "indices" if section == "sequence" else "tstar"
        cfgp = _write_config(tmp_path, {"command": command, section: desc,
                                        "params": {"K": 4}})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VALIDATION"
        # rejected by the schema, before any builder runs, with the field named
        assert err["message"].startswith("config rejected: ")
        assert f"'{field}'" in err["message"]

    @pytest.mark.parametrize("cfg,section", [
        ({"command": "indices"}, "sequence"),
        ({"command": "biortho", "params": {"N": 2}}, "sequence"),
        ({"command": "hypotheses", "params": {"K": 4}}, "model"),
        ({"command": "tstar", "params": {"K": 4}}, "model"),
        ({"command": "synthesize", "params": {"N": 2}}, "model"),
        ({"command": "verify", "params": {"N": 2}}, "model"),
        ({"command": "gramian2x2"}, "params"),
        ({"command": "gramian2x2", "params": {"lam2": 2.0}}, "lam1"),
        ({"command": "gramian2x2", "params": {"lam1": 1.0}}, "lam2"),
    ])
    def test_section_checked_per_command(self, tmp_path, capsys, cfg, section):
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VALIDATION"
        assert err["message"].startswith("config rejected: ")
        assert f"'{section}'" in err["message"]


class TestSchemas:
    """The CLI validates against prebuilt validators and never runs
    check_schema itself, so the constant schemas are checked here."""

    @pytest.mark.parametrize("schema", [CONFIG_SCHEMA, DIAGNOSTICS_SCHEMA, ERROR_SCHEMA],
                             ids=["config", "diagnostics", "error"])
    def test_schema_valid_against_metaschema(self, schema):
        validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("cfg", [
        {"command": "indices", "sequence": {"rule": "power", "bogus": 1.0}},
        {"command": "indices", "params": {"K": 4}},
        {"command": "frobnicate"},
    ], ids=["unknown_sequence_key", "missing_required_key", "unknown_command"])
    def test_message_matches_jsonschema_validate(self, tmp_path, capsys, cfg):
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(cfg, CONFIG_SCHEMA)
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["message"] == "config rejected: " + exc.value.message


def test_cold_start_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # a fresh process, as the nullcontrol console script runs one config
    cfgp = _write_config(tmp_path, {"command": "indices",
                                    "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
                                    "params": {"K": 10}})
    script = (
        "import json, sys\n"
        "import nullcontrol\n"
        "import nullcontrol.cli as cli\n"
        f"rc = cli.main(['--config', {str(cfgp)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(json.dumps([rc] + [m in sys.modules for m in ('scipy', 'numpy.ma')]))\n"
    )
    env = dict(os.environ, MPMATH_NOGMPY="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, False]


@pytest.mark.parametrize("cfg,code", [
    ({"command": "indices", "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
      "params": {"K": 10}}, 0),
    ({"command": "indices", "sequence": {"rule": "power", "bogus": 1.0}}, 2),
], ids=["valid", "rejected"])
def test_cold_start_loads_no_jsonschema(tmp_path, cfg, code):
    # configs and diagnostics are checked in-package: jsonschema is the tests' oracle
    cfgp = _write_config(tmp_path, cfg)
    unloaded = ("jsonschema", "referencing", "rpds")
    script = (
        "import json, sys\n"
        "import nullcontrol.cli as cli\n"
        f"rc = cli.main(['--config', {str(cfgp)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        f"print(json.dumps([rc] + [m in sys.modules for m in {unloaded!r}]))\n"
    )
    env = dict(os.environ, MPMATH_NOGMPY="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [code, False, False, False]


def test_cold_start_grushin_loads_no_scipy_linalg(tmp_path):
    # the cross-section solve loads scipy's _flapack extension by itself
    cfgp = _write_config(tmp_path, {"command": "grushin",
                                    "params": {"a": 0.3, "b": 0.5, "n_max": 2, "h": 1e-3}})
    unloaded = ("scipy.linalg", "numpy.f2py", "numpy.testing", "numpy.ma")
    script = (
        "import json, sys\n"
        "import nullcontrol.cli as cli\n"
        f"rc = cli.main(['--config', {str(cfgp)!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        f"print(json.dumps([rc] + [m in sys.modules for m in {unloaded!r}]))\n"
    )
    env = dict(os.environ, MPMATH_NOGMPY="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False, False, False, False]


def test_grushin_csv_independent_of_blas_threads(tmp_path):
    # at h = 1e-4 the h/2 grid's vectors exceed OpenBLAS's threading
    # threshold; the solve's reductions must not round by thread count
    cfgp = _write_config(tmp_path, {"command": "grushin",
                                    "params": {"a": 0.3, "b": 0.5, "n_max": 3, "h": 1e-4}})
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"o{threads}"
        env = dict(os.environ, MPMATH_NOGMPY="1", PYTHONPATH=str(SRC),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "nullcontrol.cli", "--config", str(cfgp),
                               "--out", str(out)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "grushin.csv").read_bytes())
    assert csvs[0] == csvs[1]


class TestIndices:
    def test_two_diffusion_csv_columns(self, tmp_path):
        cfg = {"command": "indices",
               "sequence": {"rule": "two_diffusion", "d": 2.0, "scale": math.pi**2},
               "params": {"K": 30}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        header = (out / "indices.csv").read_text().splitlines()[0]
        assert header == "k,ReLambda,cond_v,cond_runsup,bohr_v,bohr_runsup"
        assert (out / "indices_cond.dat").exists()
        payload = json.loads((out / "indices.json").read_text())
        jsonschema.validate(payload, DIAGNOSTICS_SCHEMA)

    def test_diagnostics_carry_no_precision_field(self, tmp_path):
        cfg = {"command": "biortho", "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
               "params": {"N": 3}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "biortho.json").read_text())
        assert set(payload) == {"command", "seed", "model", "sequence", "data"}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload | {"precision": "extended"}, DIAGNOSTICS_SCHEMA)

    def test_explicit_sequence_keeps_every_entry(self, tmp_path):
        # the profile of a finite sequence at k does not depend on K
        values = [float(k * k) for k in range(1, 21)]
        rows = {}
        for K in (4, 12):
            cfgp = _write_config(tmp_path, {"command": "indices",
                                            "sequence": {"rule": "explicit", "values": values},
                                            "params": {"K": K}}, f"indices{K}.json")
            assert main(["--config", str(cfgp), "--out", str(tmp_path / f"o{K}")]) == 0
            rows[K] = (tmp_path / f"o{K}" / "indices.csv").read_text().splitlines()
        assert rows[4][:5] == rows[12][:5]  # header and k = 1..4
        # 16 entries are enough for check_hypotheses at any K <= 16
        cfgp = _write_config(tmp_path, {"command": "hypotheses",
                                        "sequence": {"rule": "explicit", "values": values[:16]},
                                        "params": {"K": 5}}, "hypotheses.json")
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "h")]) == 0

    def test_determinism_byte_identical(self, tmp_path):
        cfg = {"command": "indices", "sequence": {"rule": "appendixB", "tau": 0.25},
               "params": {"K": 24}}
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out1) == 0 and run(cfg, out2) == 0
        assert (out1 / "indices.csv").read_bytes() == (out2 / "indices.csv").read_bytes()


class TestSynthesize:
    def test_pointwise_heat_end_to_end(self, tmp_path):
        cfg = {"command": "synthesize",
               "model": {"name": "pointwise_heat", "x0": math.sqrt(2.0) - 1.0,
                         "y0": "reciprocal"},
               "params": {"T": 0.4, "N": 10, "samples": 200}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "residuals.json").read_text())
        jsonschema.validate(payload, DIAGNOSTICS_SCHEMA)
        assert payload["data"]["max_abs_residual"] <= 1e-8
        header = (out / "control.csv").read_text().splitlines()[0].split(",")
        assert header[0] == "t" and header[-1] == "u"

    def test_exponent_spread_refused(self, tmp_path, capsys):
        # at T = 1e5 the plan's values spread over e^{-lam T}, about 9e7
        # bits: the exact sums refuse them instead of aligning them
        cfg = {"command": "synthesize",
               "model": {"name": "pointwise_heat", "x0": math.sqrt(2.0) - 1.0, "y0": "one"},
               "params": {"T": 1e5, "N": 8}}
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NUMERICAL"
        assert "spread across 89704627 bits" in err["message"]

    def test_unobservable_exit_code(self, tmp_path, capsys):
        cfg = {"command": "synthesize",
               "model": {"name": "pointwise_heat", "x0": 0.5},
               "params": {"T": 0.4, "N": 4}}
        cfgp = _write_config(tmp_path, cfg)
        code = main(["--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UNOBSERVABLE_MODE"

    def test_no_profile_exit_code(self, tmp_path, capsys):
        # the oscillator has no observation, pair kernel or Jordan chain
        cfg = {"command": "tstar", "model": {"name": "harmonic_oscillator"},
               "params": {"K": 10}}
        cfgp = _write_config(tmp_path, cfg)
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NO_PROFILE_AVAILABLE"


def test_power_rule_past_binary64_runs_without_warnings(tmp_path, capsys):
    # c = 1e300 takes the float view past binary64 from k = 13,417 on, and
    # the far-sum bounds past it already at k = 1: both are inf without a
    # numpy warning
    cfgp = _write_config(tmp_path, {"command": "indices",
                                    "sequence": {"rule": "power", "c": 1e300, "p": 2},
                                    "params": {"K": 5}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


class TestOtherCommands:
    def test_hypotheses_harmonic_oscillator(self, tmp_path):
        cfg = {"command": "hypotheses", "model": {"name": "harmonic_oscillator"},
               "params": {"K": 100}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "hypotheses.json").read_text())
        assert payload["data"]["summable"] is False
        assert "HYP_SUMMABILITY_FAIL" in payload["data"]["warnings"]

    def test_tstar_academic(self, tmp_path):
        cfg = {"command": "tstar", "model": {"name": "academic_lf", "tau": 0.2},
               "params": {"K": 24}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "tstar.json").read_text())
        assert payload["data"]["lower"] == pytest.approx(0.2, rel=0.1)
        assert (out / "tstar_gap.csv").exists()

    def test_tstar_writes_every_component_profile(self, tmp_path, monkeypatch):
        # the coupling vanishes at even k, so the Jordan profile skips those
        # modes: its ReLambda column is read at its own k
        monkeypatch.setattr(models.CascadeBoundaryModel, "coupling",
                            lambda self, k: 0.0 if k % 2 == 0 else self.q.integral_sin2(k))
        cfg = {"command": "tstar",
               "model": {"name": "cascade_boundary_q", "q_breakpoints": [0.2, 0.8],
                         "q_values": [1.3]},
               "params": {"K": 8}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        components = json.loads((out / "tstar.json").read_text())["data"]["components"]
        assert "jordan" in components
        for name in components:
            assert (out / f"tstar_{name}.csv").exists()
            assert (out / f"tstar_{name}.dat").exists()
        re = {m.k: m.lam.real for m in cli.build_model(cfg["model"]).modes(8)}
        rows = [line.split(",") for line in
                (out / "tstar_jordan.csv").read_text().splitlines()[1:]]
        assert [int(k) for k, *_ in rows] == [1, 3, 5, 7]
        assert [float(r) for _, r, *_ in rows] == [re[k] for k in (1, 3, 5, 7)]

    def test_biortho_command(self, tmp_path):
        cfg = {"command": "biortho", "sequence": {"rule": "power", "c": math.pi**2, "p": 2.0},
               "params": {"N": 8, "T": 0.5}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "biortho.json").read_text())
        assert payload["data"]["residual"] <= 1e-8

    def test_biortho_appendix_default_tau(self, tmp_path):
        cfgp = _write_config(tmp_path, {"command": "biortho", "sequence": {"rule": "appendixB"}})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_simple_modes_sharing_a_rate_exit_2(self, tmp_path, capsys, command):
        # d = 4: mode 2 of the first family and mode 1 of the second share
        # the rate 4 pi^2, and no moment control separates two simple
        # modes of one rate; the repeat is refused, not read as a Jordan chain
        cfgp = _write_config(tmp_path, {
            "command": command, "params": {"N": 3},
            "model": {"name": "two_diffusion_pointwise", "d": 4.0, "x0": 0.3}})
        with pytest.warns(RationalRootWarning):
            assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert "duplicated rate" in json.loads(capsys.readouterr().err)["message"]

    def test_biortho_repeated_rate_exits_2(self, tmp_path, capsys):
        # a sequence with two equal rates has no biorthogonal family: the
        # sequence refuses it before any span is built
        cfgp = _write_config(tmp_path, {
            "command": "biortho", "params": {"N": 3},
            "sequence": {"rule": "explicit", "values": [1.0, 1.0, 2.0]}})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DUPLICATE_ENTRY"

    def test_biortho_overflowing_condition_is_strict_json(self, tmp_path):
        # eleven adjacent doubles above 1 pair into five divided differences
        # and one rate that still coalesce: cond = 1e330.2 overflows
        # binary64, the diagnostics spell it "inf" and give its log10, and
        # the family is carried at ceil(log10 cond) + 30 = 361 digits
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        values = [1 + k * 2.0**-52 for k in range(11)]
        cfgp = _write_config(tmp_path, {"command": "biortho",
                                        "sequence": {"rule": "explicit", "values": values},
                                        "params": {"N": 11, "T": 1.0}})
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out)]) == 0
        data = json.loads((out / "biortho.json").read_text(), parse_constant=refuse)["data"]
        assert data["cond_estimate"] == "inf"
        assert data["cond_log10"] == pytest.approx(330.240, abs=1e-3)
        assert data["dps"] == 361 == math.ceil(data["cond_log10"]) + 30
        assert data["residual"] <= 1e-8

    @pytest.mark.parametrize("cfg", [
        {"command": "verify", "model": {"name": "academic_lf", "tau": 0.2},
         "params": {"N": 20, "T": 0.5}},
        {"command": "biortho", "sequence": {"rule": "appendixB", "tau": 1.0},
         "params": {"N": 40, "T": 1.0}},
    ], ids=["academic_lf-verify-N20", "appendixB-biortho-N40"])
    def test_condensed_spans_solve_at_few_digits(self, tmp_path, monkeypatch, cfg):
        # close pairs are divided-difference rows, so these spans solve at
        # no more than 90 digits (301 and 570 digits in the exponential
        # basis), and appendixB's condition estimate stays in binary64
        from nullcontrol import biortho_time

        digits = []
        solve = biortho_time._structured_inverse
        monkeypatch.setattr(biortho_time, "_structured_inverse",
                            lambda *args: digits.append(mp.mp.dps) or solve(*args))
        out = tmp_path / "out"
        assert main(["--config", str(_write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        assert digits and max(digits) <= 90
        if cfg["command"] == "biortho":
            data = json.loads((out / "biortho.json").read_text())["data"]
            assert math.isfinite(data["cond_estimate"])

    def test_json_safe_recurses_into_complex_parts(self, tmp_path):
        path = tmp_path / "d.json"
        cli._write_json(path, {"command": "verify", "data": {
            "z": complex(math.inf, math.nan), "v": np.array([1.0, -math.inf]),
            "k": np.int64(3)}})
        data = json.loads(path.read_text())["data"]
        assert data == {"z": {"re": "inf", "im": None}, "v": [1.0, "-inf"], "k": 3}

    def test_gramian_command(self, tmp_path):
        cfg = {"command": "gramian2x2",
               "params": {"lam1": 1.0, "lam2": 2.0, "bvec": [1.0, 1.0],
                          "y0vec": [1.0, 1.0], "T": 1.0, "samples": 50}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "gramian.json").read_text())
        assert payload["data"]["sigma_bounds_ok"] is True
        assert payload["data"]["terminal_abs"] <= 1e-6

    def test_gramian_step_longer_than_horizon(self, tmp_path):
        # the default rk4_h = 1e-4 exceeds 2T: the integrator still takes one step
        cfgp = _write_config(tmp_path, {"command": "gramian2x2",
                                        "params": {"lam1": 1, "lam2": 2, "T": 1e-9}})
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out)]) == 0
        assert "data" in json.loads((out / "gramian.json").read_text())

    def test_gramian_tiny_horizon_determinant(self, tmp_path):
        # det Q = T^4 (lam2 - lam1)^2 / 12 + O(T^5) is lost to cancellation
        # in binary64
        cfgp = _write_config(tmp_path, {"command": "gramian2x2",
                                        "params": {"lam1": 1, "lam2": 2, "T": 1e-9}})
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out)]) == 0
        data = json.loads((out / "gramian.json").read_text())["data"]
        assert data["det_Q"] == pytest.approx(1e-36 / 12, rel=1e-6)
        assert data["sigma"] > 0
        assert data["sigma_bounds_ok"] is True

    @pytest.mark.parametrize("T", [1e-160, 1e-300])
    def test_gramian_overflowing_control_exits_3(self, tmp_path, capsys, T):
        # the weights of the binary64 control overflow below about T = 1e-155
        cfgp = _write_config(tmp_path, {"command": "gramian2x2",
                                        "params": {"lam1": 1, "lam2": 2, "T": T}})
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out)]) == 3
        err = json.loads(capsys.readouterr().err)
        jsonschema.validate(err, ERROR_SCHEMA)
        assert err["error"] == "NUMERICAL"
        assert not (out / "control2x2.csv").exists()

    def test_verify_command(self, tmp_path):
        cfg = {"command": "verify",
               "model": {"name": "cascade_boundary_q",
                         "q_breakpoints": [0.2, 0.8], "q_values": [1.0],
                         "y0": "reciprocal"},
               "params": {"T": 0.5, "N": 4, "N_check": 6}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "verify.json").read_text())
        assert payload["data"]["max_abs_residual"] <= 1e-6
        assert "5_1" in payload["data"]["leakage"]

    def test_grushin_command(self, tmp_path):
        cfg = {"command": "grushin",
               "params": {"a": 0.3, "b": 0.5, "n_max": 6, "h": 1e-3}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        lines = (out / "grushin.csv").read_text().splitlines()
        assert lines[0] == "n,lambda,integral,T_n"
        assert len(lines) == 7

    @pytest.mark.parametrize("a,b", [(0.29999, 0.30001), (0.30001, 0.30002)])
    def test_grushin_window_below_two_nodes_exits_2(self, tmp_path, capsys, a, b):
        # one grid node (0.3) and none at h = 2e-4: the window has no trapezoid
        cfgp = _write_config(tmp_path, {"command": "grushin", "params": {
            "a": a, "b": b, "n_max": 2, "h": 2e-4}})
        assert main(["--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "VALIDATION"
        assert "fewer than two grid nodes" in err["message"]
        assert not (tmp_path / "o" / "grushin.csv").exists()

    def test_grushin_csv_columns_from_the_profile(self, tmp_path):
        out = tmp_path / "out"
        assert run({"command": "grushin",
                    "params": {"a": 0.3, "b": 0.5, "n_max": 3, "h": 1e-3}}, out) == 0
        rows = [line.split(",") for line in (out / "grushin.csv").read_text().splitlines()[1:]]
        prof = grushin_tstar_profile(0.3, 0.5, 3, 1e-3)
        for n, row in enumerate(rows, start=1):
            mode = solve_mode(n, 1e-3)
            assert [int(row[0])] + [float(x) for x in row[1:]] == [
                n, mode.lam, observation_integral(mode, 0.3, 0.5), prof.values[n - 1]]

    @pytest.mark.parametrize("cap,unbounded", [(1.0, True), (None, False)])
    def test_grushin_cap(self, tmp_path, cap, unbounded):
        # a thin window near the boundary pushes the running sup past 1.0
        params = {"a": 0.97, "b": 0.99, "n_max": 12}
        if cap is not None:
            params["cap"] = cap
        out = tmp_path / "out"
        assert run({"command": "grushin", "params": params}, out) == 0
        data = json.loads((out / "grushin.json").read_text())["data"]
        assert data["unbounded"] is unbounded


def _fmt_per_value(x) -> str:
    """The per-value formatter that the bulk writers replaced."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


class TestWriters:
    """The bulk CSV and .dat writers spell every value as the per-value
    formatter did: integers up to 2^53 (index columns), numpy scalars,
    +-inf, nan, -0.0 and subnormals."""

    ROWS = [(1, 0.1, -math.inf, math.inf),
            (np.int64(12), np.float64(1 / 3), -0.0, 5e-324),
            (2**53, math.nan, 1e300, np.float32(-2.5)),
            (True, 2.0**-1074 * 3, -1e-310, 123456789.0)]

    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(path, ["a", "b", "c", "d"], self.ROWS)
        want = ["a,b,c,d"] + [",".join(_fmt_per_value(v) for v in row) for row in self.ROWS]
        assert path.read_text() == "\n".join(want) + "\n"

    def test_dat(self, tmp_path):
        path = tmp_path / "t.dat"
        xs, ys = np.arange(1, 5), np.array([0.1, -math.inf, math.inf, -1e-310])
        cli._write_dat(path, xs, ys)
        assert path.read_text() == "".join(
            f"{_fmt_per_value(x)} {_fmt_per_value(y)}\n" for x, y in zip(xs, ys))
        cli._write_dat(path, range(1, 3), [0.5, math.nan])
        assert path.read_text() == "1 0.5\n2 nan\n"

    def test_blocks_of_rows(self, tmp_path):
        # a row count that is not a multiple of the block, from an array
        # and from an iterator, gives the bytes of one joined string
        n = 2 * cli._WRITE_ROWS + 3
        table = np.arange(3.0 * n).reshape(n, 3) / 7
        path = tmp_path / "t.csv"
        want = "x,y,z\n" + "".join("%.17g,%.17g,%.17g\n" % tuple(r) for r in table.tolist())
        cli._write_csv(path, ["x", "y", "z"], table)
        assert path.read_text() == want
        cli._write_csv(path, ["x", "y", "z"], iter(table.tolist()))
        assert path.read_text() == want

    def test_control_csv_write_peak(self, tmp_path):
        # a 2000-row control.csv of 14 columns is written a block of rows
        # at a time: joined whole, its lines and text take about 2.4 MB
        rng = np.random.default_rng(0)
        table = rng.standard_normal((2000, 14)) * 10.0 ** rng.integers(-300, 300, (2000, 14))
        header = ["t"] + [f"term_{k}_1" for k in range(12)] + ["u"]
        tracemalloc.start()
        try:
            cli._write_csv(tmp_path / "control.csv", header, table)
            cli._write_dat(tmp_path / "control.dat", table[:, 0], table[:, -1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.8e6


# Schema fuzz: every schema-valid config ends with exit 0, 2 or 3, and exits
# 2 and 3 print one JSON object on stderr.  Sizes stay small (the 150
# examples take about 10 s); values range over the whole binary64 exponent
# range, zero and negatives included, so that the solvers' own checks reject them.
_WIDE = st.integers(-300, 300).map(lambda e: 10.0**e)
_NUM = st.one_of(_WIDE, st.sampled_from([0.0, -1.0, 0.3, 0.5, 1.0, 2.0, math.pi**2]))
_UNIT = st.one_of(st.floats(0.0, 1.0), _NUM)
# the ranges the schema states: x0 in (0, 1), omega and the grushin window in [0, 1]
_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_CLOSED_UNIT = st.floats(0.0, 1.0)
_Y0 = st.sampled_from(["one", "reciprocal", "reciprocal_sq"])


def _keys(required, **optional):
    return st.fixed_dictionaries(required, optional=optional)


_SEQUENCES = st.one_of(
    _keys({"rule": st.just("power")}, c=_NUM, p=st.one_of(st.floats(0.5, 4.0), _NUM)),
    _keys({"rule": st.just("appendixB")}, tau=_NUM),
    _keys({"rule": st.just("two_diffusion"), "d": _NUM}, scale=_NUM),
    _keys({"rule": st.just("academic_lf"), "tau": _NUM}),
    _keys({"rule": st.just("explicit"), "values": st.lists(_NUM, max_size=6)}),
)
_MODELS = st.one_of(
    _keys({"name": st.just("pointwise_heat"), "x0": _OPEN_UNIT}, y0=_Y0),
    _keys({"name": st.just("cascade_internal_q"),
           "omega": st.lists(_CLOSED_UNIT, min_size=2, max_size=2)},
          truncation=st.integers(8, 40), y0=_Y0),
    _keys({"name": st.just("cascade_boundary_q")}, truncation=st.integers(8, 40), y0=_Y0),
    _keys({"name": st.just("two_diffusion_boundary"), "d": _NUM}, y0=_Y0),
    _keys({"name": st.just("two_diffusion_pointwise"), "d": _NUM, "x0": _OPEN_UNIT}, y0=_Y0),
    _keys({"name": st.just("academic_lf"), "tau": _NUM}, y0=_Y0),
    _keys({"name": st.just("harmonic_oscillator")}),
)
# per command: (size keys, always drawn; other keys, drawn or left to their defaults)
_PARAMS = {
    "indices": ({"K": st.integers(1, 12)},
                {"rel_tail_tol": _WIDE, "window": st.integers(1, 12)}),
    "hypotheses": ({"K": st.integers(1, 12)}, {}),
    "tstar": ({"K": st.integers(1, 12)}, {"window": st.integers(1, 12)}),
    "biortho": ({"N": st.integers(1, 5)}, {"T": _WIDE}),
    "synthesize": ({"N": st.integers(1, 5), "samples": st.integers(2, 30)}, {"T": _WIDE}),
    "verify": ({"N": st.integers(1, 5)}, {"N_check": st.integers(1, 5), "T": _WIDE}),
    "grushin": ({"n_max": st.integers(1, 3)},
                {"a": _CLOSED_UNIT, "b": _CLOSED_UNIT, "h": st.sampled_from([1e-3, 5e-4]),
                 "window": st.integers(1, 3), "cap": _NUM}),
    "gramian2x2": ({"samples": st.integers(2, 30)},
                   {"T": _WIDE, "rk4_h": _WIDE, "bvec": st.lists(_NUM, min_size=2, max_size=2),
                    "y0vec": st.lists(_NUM, min_size=2, max_size=2)}),
}


@st.composite
def _couplings(draw):
    """q on breakpoints in [0, 1], mostly with one value per interval."""
    bps = sorted(draw(st.lists(_UNIT, min_size=1, max_size=4)))
    m = len(bps) - 1 if draw(st.integers(0, 4)) else draw(st.integers(0, 3))
    return {"q_breakpoints": bps, "q_values": draw(st.lists(_NUM, min_size=m, max_size=m))}


@st.composite
def _configs(draw):
    command = draw(st.sampled_from(sorted(_PARAMS)))
    sizes, others = _PARAMS[command]
    cfg = {"command": command, "params": draw(_keys(sizes, **others))}
    if command in ("indices", "biortho") or (command == "hypotheses" and draw(st.booleans())):
        cfg["sequence"] = draw(_SEQUENCES)
    elif command not in ("grushin", "gramian2x2"):
        cfg["model"] = draw(_MODELS)
        if cfg["model"]["name"].startswith("cascade"):
            cfg["model"] |= draw(_couplings())
    if command == "gramian2x2":
        lam1 = draw(_NUM)
        cfg["params"] |= {"lam1": lam1,
                          "lam2": draw(st.one_of(_NUM, _WIDE.map(lambda f: lam1 + f)))}
    return cfg


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs())
# pinned: configs that ended in a traceback or never ended, and a window
# too narrow for a trapezoid
@example({"command": "grushin", "params": {"a": 0.29999, "b": 0.30001, "n_max": 1, "h": 2e-4}})
@example({"command": "grushin", "params": {"a": 0.30001, "b": 0.30002, "n_max": 1, "h": 2e-4}})
@example({"command": "grushin", "params": {"n_max": 10**12}})
@example({"command": "grushin", "params": {"n_max": 1, "h": 1e-12}})
@example({"command": "indices", "sequence": {"rule": "power", "c": 1e200, "p": 2},
          "params": {"K": 5}})
@example({"command": "gramian2x2", "params": {"lam1": 1, "lam2": 2, "T": 1e300}})
@example({"command": "gramian2x2", "params": {"lam1": 1e-300, "lam2": 1e300, "T": 3,
                                              "samples": 30}})
@example({"command": "verify", "model": {"name": "pointwise_heat", "x0": 0.3},
          "params": {"T": 1e20, "N": 5}})
@example({"command": "indices", "sequence": {"rule": "academic_lf", "tau": 1e134},
          "params": {"K": 12}})
@example({"command": "biortho", "sequence": {"rule": "power", "c": 1e150, "p": 1e150},
          "params": {"N": 5}})
@example({"command": "verify", "model": {"name": "cascade_internal_q", "omega": [0.0, 1e-79],
                                         "q_breakpoints": [1e-79], "q_values": []},
          "params": {"N": 1}})
@example({"command": "synthesize", "model": {"name": "two_diffusion_pointwise", "d": 4.0,
                                             "x0": 0.3}, "params": {"N": 3}})
def test_schema_valid_configs_exit_0_2_or_3(cfg):
    jsonschema.validate(cfg, CONFIG_SCHEMA)
    with tempfile.TemporaryDirectory() as tmp:
        cfgp = Path(tmp) / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(cfgp), "--out", str(Path(tmp) / "o")])
    assert code in (0, 2, 3), cfg
    if code:
        jsonschema.validate(json.loads(err.getvalue()), ERROR_SCHEMA)


# The in-package validator against jsonschema, its oracle: the same verdict
# and the same best_match message on mutated configs.
# strings, bools, null, arrays, objects, NaN, +-inf, an integral float and
# numbers outside the stated ranges
_ODD_VALUES = st.sampled_from(["x", "power", "indices", True, False, None, [], [0.5, 2.0], {},
                               math.nan, math.inf, -math.inf, 2.0, 0, -1.0, 1.5, 1e300, 10**20])
# unknown keys, and keys known elsewhere in the schema
_ODD_KEYS = st.sampled_from(["bogus", "command", "sequence", "model", "params", "rule", "name",
                             "c", "tau", "d", "values", "x0", "omega", "K", "N", "lam1", "T"])


def _containers(x, path=()):
    """The path of every object and array in x, the root's first."""
    if isinstance(x, (dict, list)):
        yield path
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from _containers(v, path + (k,))


@st.composite
def _mutated_configs(draw):
    """A schema-valid config with 1-3 edits at any level: a key added or
    dropped, an array item added or dropped, or a value replaced."""
    if draw(st.integers(0, 49)) == 0:
        return copy.deepcopy(draw(_ODD_VALUES))  # not an object at all
    cfg = draw(_configs())
    for _ in range(draw(st.integers(1, 3))):
        node = cfg
        for k in draw(st.sampled_from(list(_containers(cfg)))):
            node = node[k]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["add", "drop", "set"] if keys else ["add"]))
        value = copy.deepcopy(draw(_ODD_VALUES))
        if op == "add" and isinstance(node, dict):
            node[draw(_ODD_KEYS)] = value
        elif op == "add":
            node.append(value)
        elif op == "drop":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = value
    return cfg


def _messages(instance, schema):
    """(validate's message, jsonschema's best_match message), None if valid."""
    want = best_match(validator_for(schema)(schema).iter_errors(instance))
    want = None if want is None else want.message
    try:
        validate(instance, schema)
    except SchemaViolation as exc:
        return str(exc), want
    return None, want


class TestValidator:
    @settings(max_examples=2000, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_mutated_configs())
    # pinned: the propertyNames enum error outranks additionalProperties,
    # NaN passes every bound, an integral float is an integer, and one
    # message of each bound, of the array lengths and of the conditionals
    @example({"command": "indices", "sequence": {"rule": "power", "bogus": 1.0}})
    @example({"command": "verify", "model": {"name": "pointwise_heat", "x0": math.nan},
              "params": {"T": math.nan, "N": 2.0}})
    @example({"command": "grushin", "params": {"a": -math.inf, "b": math.inf, "n_max": 1.5}})
    @example({"command": "indices", "sequence": {"rule": "power"}, "params": {"K": 0}})
    @example({"command": "grushin", "params": {"a": 1.5, "h": 0}})
    @example({"command": "verify", "model": {"name": "pointwise_heat", "x0": 1}})
    @example({"command": "verify", "model": {"name": "cascade_internal_q",
                                             "omega": [-0.1, 2.0], "q_breakpoints": [0.5],
                                             "q_values": []}})
    @example({"command": "gramian2x2", "params": {"lam1": 1, "lam2": 2, "bvec": [1.0]}})
    @example({"command": "gramian2x2", "params": {"lam1": 1, "lam2": 2, "y0vec": [1, 2, 3]}})
    @example({"command": "gramian2x2", "params": {"lam1": 1}})
    @example({"command": "hypotheses", "params": {"K": True}})
    @example({"command": "indices", "sequence": {"rule": "explicit", "values": ["x"]},
              "zeta": 1, "alpha": 2})
    def test_matches_jsonschema_best_match(self, cfg):
        got, want = _messages(cfg, CONFIG_SCHEMA)
        assert got == want

    @pytest.mark.parametrize("payload", [
        {"command": "indices", "data": {}},
        {"command": "indices", "seed": 1.0, "model": None, "data": {}},
        {"command": "indices", "seed": "7", "data": {}},
        {"command": "indices", "sequence": [], "data": {}},
        {"command": "indices", "data": None, "extra": 1},
        {"data": {}},
    ])
    def test_diagnostics_match_jsonschema(self, payload):
        got, want = _messages(payload, DIAGNOSTICS_SCHEMA)
        assert got == want

    @staticmethod
    def _keywords(schema):
        """Every keyword of schema and of its subschemas, and every type name."""
        for keyword, value in schema.items():
            yield keyword
            if keyword == "type":
                yield from ([value] if isinstance(value, str) else value)
            elif keyword == "properties":
                for sub in value.values():
                    yield from TestValidator._keywords(sub)
            elif keyword == "allOf":
                for sub in value:
                    yield from TestValidator._keywords(sub)
            elif keyword in ("items", "propertyNames", "if", "then", "not"):
                yield from TestValidator._keywords(value)

    def test_covers_exactly_the_published_keywords(self):
        used = set()
        for schema in (CONFIG_SCHEMA, DIAGNOSTICS_SCHEMA, ERROR_SCHEMA):
            used |= set(self._keywords(schema))
        types = {"object", "array", "number", "integer", "string", "null"}
        assert used == set(KEYWORDS) | types

    @pytest.mark.parametrize("schema", [
        {"pattern": "^a"},
        {"type": "object", "properties": {"a": {"uniqueItems": True}}},
        {"if": {"type": "string"}, "then": {"minItems": 1}, "else": {"type": "array"}},
        {"additionalProperties": {"type": "number"}},
    ], ids=["pattern", "nested", "else", "additionalProperties-schema"])
    def test_unsupported_keyword_raises(self, schema):
        with pytest.raises(NotImplementedError):
            validate({"a": [1, 1]}, schema)

    def test_invalid_diagnostics_is_a_program_fault(self, tmp_path, monkeypatch):
        # a payload outside DIAGNOSTICS_SCHEMA raises; it is not "config rejected"
        monkeypatch.setattr(cli, "_json_safe", lambda payload: payload | {"bogus": 1})
        cfgp = _write_config(tmp_path, {"command": "indices",
                                        "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
                                        "params": {"K": 4}})
        with pytest.raises(SchemaViolation, match="'bogus' was unexpected"):
            main(["--config", str(cfgp), "--out", str(tmp_path / "o")])
