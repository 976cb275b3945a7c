"""Finite surrogate for limsup-type quantities.

A ProfileReport holds the per-index values of a sequence v_k, its running
supremum and a tail estimate (sup over the last `window` entries).  The
limsup itself is never claimed computed; the profile is the deliverable.
Whether a profile counts as unbounded against a cap is the caller's call:
the CLI's ``grushin`` command compares the last running supremum with its
configured cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_WINDOW = 10


@dataclass(frozen=True)
class ProfileReport:
    name: str
    ks: np.ndarray            # 1-based indices
    values: np.ndarray        # may contain +/-inf
    running_sup: np.ndarray
    window: int
    tail_estimate: float
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ks)

    def rows(self):
        """(k, v_k, running_sup_k) triples, CSV-ready."""
        return zip(self.ks.tolist(), self.values.tolist(), self.running_sup.tolist())


def make_profile(name, ks, values, window=DEFAULT_WINDOW, extras=None) -> ProfileReport:
    ks = np.asarray(ks, dtype=int)
    values = np.asarray(values, dtype=float)
    if len(ks) != len(values) or len(ks) == 0:
        raise ValueError("profile needs matching, nonempty index/value arrays")
    running = np.maximum.accumulate(values)
    w = max(1, min(int(window), len(values)))
    tail = float(np.max(values[-w:]))
    return ProfileReport(
        name=name,
        ks=ks,
        values=values,
        running_sup=running,
        window=w,
        tail_estimate=tail,
        extras=dict(extras or {}),
    )
