"""Analysis report: the aggregated result of an exact pipeline run."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .constructions import BettiVector
from .exactgeom import BoxDomain, format_rational
from .verify import reconcile

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    architecture: tuple
    fingerprint: str
    box: BoxDomain
    betti: BettiVector
    region_count: int
    serra_bound: int
    binomial_bounds: tuple  # per k, betti_upper_bound
    # per k, #(k+1)-cells labeled positive: β_k ≤ this for k ≥ 1 and β₀ ≤ this + 1,
    # since H̃_k(sublevel set) ≅ H_{k+1}(box, sublevel set) (see verify.reconcile)
    complement_cell_bounds: tuple
    predicted: Optional[BettiVector]
    euler: int
    euler_cells: int  # alternating cell count of the sublevel subcomplex
    oracle_beta0: Optional[int]

    def to_json(self) -> dict:
        rec = reconcile(self)
        return {
            "schema": SCHEMA_VERSION,
            "architecture": list(self.architecture),
            "fingerprint": self.fingerprint,
            "box": {
                "lower": [format_rational(v) for v in self.box.lower],
                "upper": [format_rational(v) for v in self.box.upper],
            },
            "betti": list(self.betti.values),
            "region_count": self.region_count,
            "serra_bound": self.serra_bound,
            "binomial_bounds": list(self.binomial_bounds),
            "complement_cell_bounds": list(self.complement_cell_bounds),
            "predicted": None if self.predicted is None else list(self.predicted.values),
            "euler": self.euler,
            "euler_cells": self.euler_cells,
            "oracle_beta0": self.oracle_beta0,
            "bounds_satisfied": rec.serra_ok and all(rec.binomial_ok),
            "predicted_agrees": None if rec.predicted is None else rec.predicted == rec.betti,
            "oracle_agrees": rec.oracle_agrees,
            # no timings are recorded; the key keeps the schema-1 layout
            "timings": None,
        }
