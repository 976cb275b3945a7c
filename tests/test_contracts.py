"""Cross-cutting contract checks: complex rates, norm identities, exit codes."""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from nullcontrol import (
    ExponentialSpan,
    build_biortho,
    harmonic_oscillator,
    moment_rhs,
    pointwise_heat,
    synthesize_simple,
    verify_moments,
)
from nullcontrol.cli import main as cli_main
from nullcontrol.errors import SynthesisUnsupported
from nullcontrol.models import ParabolicModel, SpectralMode
from nullcontrol.observations import Scalar
from nullcontrol.precision import to_mp

PI2 = math.pi**2


class TestComplexRates:
    def test_complex_span_biorthogonality(self):
        rates = (1.0 + 1.0j, 2.0 - 0.5j, 3.0)
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        assert fam.residual <= 1e-12
        assert np.all(fam.norms > 0)

    def test_complex_gram_hermitian(self):
        from nullcontrol import exp_gram

        G = exp_gram(ExponentialSpan((1.0 + 1.0j, 2.0), 1.0))
        np.testing.assert_allclose(G, G.conj().T, atol=1e-15)

    def test_complex_moment_rhs(self):
        class OneComplexMode(ParabolicModel):
            def _mode(self, k):
                lam = 1.0 + 1.0j
                return SpectralMode(k, lam, to_mp(lam), "simple",
                                    (Scalar(1.0),), (1.0 + 0.0j,))

        got = moment_rhs(OneComplexMode(), 1.0, 1)
        want = -np.exp(-(1.0 + 1.0j))
        assert got == pytest.approx(want, rel=1e-12)

    def test_complex_synthesis_residual(self):
        class ComplexPair(ParabolicModel):
            observation_available = True

            def _mode(self, k):
                lam = complex(k * k, 0.3 * k)
                return SpectralMode(k, lam, to_mp(lam), "simple",
                                    (Scalar(1.0 + 0.5j),), (1.0 / k,))

        plan = synthesize_simple(ComplexPair(), 0.5, 4)
        assert verify_moments(plan).max_abs <= 1e-12


class TestControlNormIdentities:
    def test_total_norm_below_triangle_bound(self):
        model = pointwise_heat(math.sqrt(2.0) - 1.0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize_simple(model, 0.4, 8)
        assert plan.total_norm <= float(np.sum(plan.per_mode_norm)) + 1e-10

    def test_single_term_norm_equals_per_mode(self):
        model = pointwise_heat(0.3, y0_rule=lambda k, i: 1.0 if k == 1 else 0.0)
        plan = synthesize_simple(model, 0.5, 1)
        assert plan.total_norm == pytest.approx(plan.per_mode_norm[0], rel=1e-10)

    def test_total_norm_quadrature_cross_check(self):
        # double-sum closed form vs sampled trapezoid of the scalar control
        from nullcontrol import sample_plan

        model = pointwise_heat(0.3, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize_simple(model, 0.6, 4)
        ts, _, u = sample_plan(plan, n=40001)
        grid = math.sqrt(np.trapezoid(u * u, ts))
        assert grid == pytest.approx(plan.total_norm, rel=1e-5)


class TestRefusalsAndExitCodes:
    def test_harmonic_oscillator_synthesis_refused(self):
        with pytest.raises(SynthesisUnsupported):
            synthesize_simple(harmonic_oscillator(), 0.5, 4)

    def test_numerical_failure_exit_code_3(self, tmp_path, capsys):
        # N = 20 heat rates at binary64: the pivoted factorization fails
        cfg = {"command": "biortho",
               "sequence": {"rule": "power", "c": PI2, "p": 2.0},
               "params": {"N": 20, "T": 0.5, "precision": "standard"}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = cli_main(["--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ILL_CONDITIONED"

    def test_explicit_sequence_through_cli(self, tmp_path):
        from nullcontrol.cli import run

        cfg = {"command": "indices",
               "sequence": {"rule": "explicit",
                            "values": [float(k * k) for k in range(1, 25)]},
               "params": {"K": 16}}
        out = tmp_path / "out"
        assert run(cfg, out) == 0
        assert (out / "indices.csv").exists()

    def test_unknown_rule_rejected(self, tmp_path):
        from nullcontrol.cli import run
        from nullcontrol.errors import ValidationError

        cfg = {"command": "indices", "sequence": {"rule": "nope"}}
        with pytest.raises(ValidationError):
            run(cfg, tmp_path / "o")


class TestBenchmarkEntryPoints:
    def test_traced_names_resolve(self):
        # the benchmark's tracer wraps these names; a missing one breaks
        # every traced job
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, attr, _ in tracing.ENTRY_POINTS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module, attr)
