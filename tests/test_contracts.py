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
    from_rule,
    harmonic_oscillator,
    make_rule,
    pointwise_heat,
    synthesize,
    verify_moments,
)
from nullcontrol.biortho_time import _pairing_mp
from nullcontrol.cli import main as cli_main
from nullcontrol.errors import SynthesisUnsupported
from nullcontrol.models import ParabolicModel, SpectralMode
from nullcontrol.observations import Scalar
from nullcontrol.precision import DEFAULT_DPS, to_complex, to_mp, workdps
from nullcontrol.synthesis import _moment_rhs_mp


class TestComplexRates:
    def test_complex_span_biorthogonality(self):
        rates = (1.0 + 1.0j, 2.0 - 0.5j, 3.0)
        fam = build_biortho(ExponentialSpan(rates, 1.0))
        assert fam.residual <= 1e-12
        assert np.all(fam.norms > 0)

    def test_complex_gram_hermitian(self):
        with workdps(DEFAULT_DPS):
            G = _pairing_mp(ExponentialSpan((1.0 + 1.0j, 2.0), 1.0), None, True)
        G = np.array(G.tolist(), dtype=complex)
        np.testing.assert_allclose(G, G.conj().T, atol=1e-15)

    def test_complex_moment_rhs(self):
        class OneComplexMode(ParabolicModel):
            def _mode(self, k):
                lam = 1.0 + 1.0j
                return SpectralMode(k, lam, to_mp(lam), "simple",
                                    (Scalar(1.0),), (1.0 + 0.0j,))

        got = to_complex(_moment_rhs_mp(OneComplexMode().modes(1)[0], to_mp(1.0), 1))
        want = -np.exp(-(1.0 + 1.0j))
        assert got == pytest.approx(want, rel=1e-12)

    def test_complex_synthesis_residual(self):
        class ComplexPair(ParabolicModel):
            observation_available = True

            def _mode(self, k):
                lam = complex(k * k, 0.3 * k)
                return SpectralMode(k, lam, to_mp(lam), "simple",
                                    (Scalar(1.0 + 0.5j),), (1.0 / k,))

        plan = synthesize(ComplexPair(), 0.5, 4)
        assert verify_moments(plan).max_abs <= 1e-12


class TestControlNormIdentities:
    def test_total_norm_below_triangle_bound(self):
        model = pointwise_heat(math.sqrt(2.0) - 1.0, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize(model, 0.4, 8)
        assert plan.total_norm <= float(np.sum(plan.per_mode_norm)) + 1e-10

    def test_single_term_norm_equals_per_mode(self):
        model = pointwise_heat(0.3, y0_rule=lambda k, i: 1.0 if k == 1 else 0.0)
        plan = synthesize(model, 0.5, 1)
        assert plan.total_norm == pytest.approx(plan.per_mode_norm[0], rel=1e-10)

    def test_total_norm_quadrature_cross_check(self):
        # double-sum closed form vs sampled trapezoid of the scalar control
        from nullcontrol import sample_plan

        model = pointwise_heat(0.3, y0_rule=lambda k, i: 1.0 / k)
        plan = synthesize(model, 0.6, 4)
        ts, _, u = sample_plan(plan, n=40001)
        grid = math.sqrt(np.trapezoid(u * u, ts))
        assert grid == pytest.approx(plan.total_norm, rel=1e-5)


class TestRefusalsAndExitCodes:
    def test_harmonic_oscillator_synthesis_refused(self):
        with pytest.raises(SynthesisUnsupported):
            synthesize(harmonic_oscillator(), 0.5, 4)

    def test_numerical_failure_exit_code_3(self, tmp_path, capsys):
        # lam_k = k^0.8 is not summable: no far-tail bound of ln|E'| exists
        cfg = {"command": "indices",
               "sequence": {"rule": "power", "c": 1.0, "p": 0.8},
               "params": {"K": 10}}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = cli_main(["--config", str(p), "--out", str(tmp_path / "o")])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "TAIL_BOUND_UNACHIEVABLE"

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


def _load_tracing():
    """The benchmark's ``perfbench/tracing.py``, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkEntryPoints:
    def test_traced_names_resolve(self):
        # the benchmark's tracer wraps these names; a missing one breaks
        # every traced job
        tracing = _load_tracing()
        for module, attr, _ in tracing.ENTRY_POINTS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert callable(owner), (module, attr)

    def test_traced_results_carry_their_attributes(self):
        # the tracer reads .dps, .cond_estimate and .residual of a family
        # and .dps of a spectral sequence; a missing one breaks every traced job
        tracer = _load_tracing().Tracer()
        tracer._observe("biortho_time.build_biortho",
                        build_biortho(ExponentialSpan((1.0, 4.0, 9.0), 1.0)))
        tracer._observe("spectral.from_rule", from_rule(make_rule("appendixB", tau=0.25), 100))
        assert tracer.head_dps == [366]
        assert len(tracer.families) == 1
