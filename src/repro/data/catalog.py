"""Surrogates for the paper's evaluation datasets (Table 2 and Section 6).

The paper's public datasets (SUSY, Higgs, Criteo, Epsilon, RCV1, the
Synthesis pair) and the Tencent industrial datasets (Gender, Age, Taste)
are not shippable here, so each is replaced by a synthetic surrogate with
the same *shape* — the N : D : C : density regime that drives every
conclusion of the paper — geometrically scaled down to laptop size.  The
scaling factors are recorded per entry and surfaced in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .dataset import Dataset
from .synthetic import make_classification


@dataclass(frozen=True)
class CatalogEntry:
    """Shape of one surrogate dataset.

    ``paper_shape`` records the original ``(N, D, C)`` for documentation;
    ``kind`` follows Table 2: LD (low-dimensional dense), HS
    (high-dimensional sparse), MC (multi-class) or IND (industrial, §6).
    """

    name: str
    num_instances: int
    num_features: int
    num_classes: int
    density: float
    kind: str
    paper_shape: Tuple[int, int, int]
    seed: int


# Scaled surrogates.  Relative ordering of N and D across entries matches
# Table 2; multi-class widths are reduced (RCV1-multi 53 -> 8 classes,
# Taste 100 -> 10) to keep pure-Python gradients tractable while keeping
# C > 2 so the multi-class effects remain visible.
CATALOG: Dict[str, CatalogEntry] = {
    e.name: e
    for e in (
        CatalogEntry("susy", 40_000, 18, 2, 1.0, "LD",
                     (5_000_000, 18, 2), 101),
        CatalogEntry("higgs", 44_000, 28, 2, 1.0, "LD",
                     (11_000_000, 28, 2), 102),
        CatalogEntry("criteo", 50_000, 39, 2, 1.0, "LD",
                     (45_000_000, 39, 2), 103),
        CatalogEntry("epsilon", 6_000, 400, 2, 1.0, "LD",
                     (500_000, 2_000, 2), 104),
        CatalogEntry("rcv1", 7_000, 4_700, 2, 0.008, "HS",
                     (697_000, 47_000, 2), 105),
        CatalogEntry("synthesis", 40_000, 10_000, 2, 0.002, "HS",
                     (50_000_000, 100_000, 2), 106),
        CatalogEntry("rcv1-multi", 5_500, 4_700, 8, 0.008, "MC",
                     (534_000, 47_000, 53), 107),
        CatalogEntry("synthesis-multi", 25_000, 2_500, 10, 0.008, "MC",
                     (50_000_000, 25_000, 10), 108),
        CatalogEntry("gender", 90_000, 3_300, 2, 0.004, "IND",
                     (122_000_000, 330_000, 2), 109),
        CatalogEntry("age", 36_000, 3_300, 9, 0.004, "IND",
                     (48_000_000, 330_000, 9), 110),
        CatalogEntry("taste", 9_000, 150, 10, 0.15, "IND",
                     (10_000_000, 15_000, 100), 111),
    )
}


def get_entry(name: str) -> CatalogEntry:
    """The catalog entry of a surrogate name (``KeyError`` if unknown)."""
    found = CATALOG.get(name)
    if found is None:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown dataset {name!r}; known: {known}")
    return found


def load(name: str, scale: float = 1.0) -> Dataset:
    """Generate a surrogate dataset by catalog name.

    ``scale`` multiplies the instance count (useful for quick tests:
    ``load("rcv1", scale=0.1)``).
    """
    entry = get_entry(name)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    num_instances = max(int(round(entry.num_instances * scale)), 64)
    # Sparse surrogates concentrate their signal in a handful of frequent
    # features, as real text/behaviour corpora do — otherwise no learner
    # could recover the diffuse linear signal at laptop scale.
    concentrated = entry.density < 0.5
    return make_classification(
        num_instances=num_instances,
        num_features=entry.num_features,
        num_classes=entry.num_classes,
        density=entry.density,
        informative_ratio=0.2,
        num_informative=40 if concentrated else None,
        informative_density=0.25 if concentrated else None,
        noise=0.5,
        seed=entry.seed,
        name=entry.name,
    )


def names(kind: str = None) -> Tuple[str, ...]:
    """Catalog names, optionally filtered by Table 2 kind."""
    if kind is None:
        return tuple(CATALOG)
    return tuple(e.name for e in CATALOG.values() if e.kind == kind)
