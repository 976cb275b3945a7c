"""Fixed job lists of the benchmark, one CLI config per job.

The seed draws only parameters that leave the amount of work unchanged:
the heat observation point x0, the initial-data rule y0, the cascade
coupling value q and the Grushin observation interval (a, a + 0.2).
Every size (N, K, n_max, samples), tau, d and T is fixed, because those
set the cost through the working digits, the Gram condition number and
the sampling branch.
"""

from __future__ import annotations

import math
import random

Y0_RULES = ("one", "reciprocal", "reciprocal_sq")
PI2 = math.pi ** 2


def _heat_x0(rng: random.Random, n: int) -> float:
    """x0 in (0.2, 0.45) whose observations sin(k pi x0), k <= n, all stay
    away from zero, so no drawn point makes a mode nearly unobservable."""
    while True:
        x0 = rng.uniform(0.2, 0.45)
        if min(abs(math.sin(k * math.pi * x0)) for k in range(1, n + 1)) >= 0.05:
            return x0


def _cascade(rng: random.Random, y0: str) -> dict:
    return {"name": "cascade_boundary_q", "q_breakpoints": [0.2, 0.8],
            "q_values": [rng.uniform(0.5, 2.0)], "y0": y0}


def _synthesize(rng: random.Random, y0: str) -> list:
    return [
        {"command": "synthesize",
         "model": {"name": "pointwise_heat", "x0": _heat_x0(rng, 12), "y0": y0},
         "params": {"N": 12, "T": 0.4}},
        {"command": "synthesize",
         "model": {"name": "academic_lf", "tau": 0.2, "y0": y0},
         "params": {"N": 8, "T": 0.5}},
        {"command": "synthesize", "model": _cascade(rng, y0),
         "params": {"N": 6, "T": 0.5}},
        {"command": "synthesize",
         "model": {"name": "pointwise_heat", "x0": _heat_x0(rng, 8), "y0": y0},
         "params": {"N": 8, "T": 0.4}},
    ]


def _verify(rng: random.Random, y0: str) -> list:
    return [
        {"command": "verify",
         "model": {"name": "pointwise_heat", "x0": _heat_x0(rng, 40), "y0": y0},
         "params": {"N": 40, "T": 0.4}},
        {"command": "verify",
         "model": {"name": "academic_lf", "tau": 0.2, "y0": y0},
         "params": {"N": 20, "T": 0.5}},
        {"command": "verify", "model": _cascade(rng, y0),
         "params": {"N": 16, "T": 0.5}},
        {"command": "verify",
         "model": {"name": "two_diffusion_boundary", "d": 2.0, "y0": y0},
         "params": {"N": 24, "T": 0.5}},
        {"command": "biortho",
         "sequence": {"rule": "power", "c": PI2, "p": 2.0},
         "params": {"N": 30, "T": 0.5}},
    ]


def _indices(rng: random.Random, y0: str) -> list:
    return [
        {"command": "indices", "sequence": {"rule": "appendixB", "tau": 0.25},
         "params": {"K": 100}},
        {"command": "indices", "sequence": {"rule": "power", "c": 1.0, "p": 2.0},
         "params": {"K": 100}},
        {"command": "indices", "sequence": {"rule": "two_diffusion", "d": 2.0, "scale": PI2},
         "params": {"K": 100}},
        {"command": "tstar",
         "model": {"name": "two_diffusion_pointwise", "d": 2.0,
                   "x0": _heat_x0(rng, 60), "y0": y0},
         "params": {"K": 60}},
    ]


def _grushin(rng: random.Random) -> list:
    a = round(rng.uniform(0.25, 0.45), 6)
    return [{"command": "grushin",
             "params": {"a": a, "b": round(a + 0.2, 6), "n_max": 40, "h": 2e-4}}]


def _moments(rng: random.Random) -> list:
    y0 = rng.choice(Y0_RULES)
    return _synthesize(rng, y0) + _verify(rng, y0)


def _spectra(rng: random.Random) -> list:
    # grushin first: the longest job then also opens the second pass,
    # so most runs time it twice
    y0 = rng.choice(Y0_RULES)
    return _grushin(rng) + _indices(rng, y0)


WORKLOADS = {
    "moments": _moments,
    "spectra": _spectra,
}


def make_jobs(workload: str, seed: int) -> list:
    """The configs of one pass of ``workload``; the same seed gives the
    same configs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
