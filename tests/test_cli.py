"""CLI: schema validation, output formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

from nullcontrol import cli
from nullcontrol.cli import main, run
from nullcontrol.schemas import CONFIG_SCHEMA, DIAGNOSTICS_SCHEMA, ERROR_SCHEMA

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

    def test_unobservable_exit_code(self, tmp_path, capsys):
        cfg = {"command": "synthesize",
               "model": {"name": "pointwise_heat", "x0": 0.5},
               "params": {"T": 0.4, "N": 4}}
        cfgp = _write_config(tmp_path, cfg)
        code = main(["--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "UNOBSERVABLE_MODE"


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

    def test_biortho_command(self, tmp_path):
        cfg = {"command": "biortho", "sequence": {"rule": "power", "c": math.pi**2, "p": 2.0},
               "params": {"N": 8, "T": 0.5}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        payload = json.loads((out / "biortho.json").read_text())
        assert payload["data"]["residual"] <= 1e-8

    def test_biortho_overflowing_condition_is_strict_json(self, tmp_path):
        # cond = 1e383.3 overflows binary64: the diagnostics spell it "inf" and
        # give its log10, and the family is carried at ceil(log10 cond) + 30 =
        # 414 of the 570 solve digits
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        cfgp = _write_config(tmp_path, {"command": "biortho",
                                        "sequence": {"rule": "appendixB", "tau": 1.0},
                                        "params": {"N": 40, "T": 1.0}})
        out = tmp_path / "out"
        assert main(["--config", str(cfgp), "--out", str(out)]) == 0
        data = json.loads((out / "biortho.json").read_text(), parse_constant=refuse)["data"]
        assert data["cond_estimate"] == "inf"
        assert data["cond_log10"] == pytest.approx(383.255, abs=1e-3)
        assert data["dps"] == 414 == math.ceil(data["cond_log10"]) + 30
        assert data["residual"] <= 1e-8

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
