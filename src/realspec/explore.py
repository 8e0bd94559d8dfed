"""Randomized check of gluing over semi-real rings that are not real.

Every section over D(f) of Q[x]/(m) comes from the localization (see
`sheaves`). The harness samples semi-real, non-real quotient rings and
random valid sections, glues each one, and checks that the glued
fraction's image agrees with the section; a disagreement is an internal
error.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError, NotASectionError
from .polynomials import Poly
from .rings import (
    Ring,
    RingElem,
    SigmaDenominator,
    SumOfSquares,
)
from .sheaves import (
    LocalFraction,
    Section,
    SigmaFraction,
    glue,
    psi,
    section_eq,
)
from .spectrum import enumerate_primes


# glue always glues, so the other two stay 0; the keys keep the report shape
TALLY_KEYS = ("glued", "certificate-exhausted", "blocked")


@dataclass(frozen=True)
class ExploreConfig:
    rings: int = 50
    trials: int = 4
    deg_min: int = 2
    deg_max: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.rings < 0 or self.trials < 0:
            raise InputError("rings and trials must be nonnegative")
        lo, hi = _MODULUS_DEGREES
        if max(self.deg_min, lo) > min(self.deg_max, hi):
            raise InputError(f"degree window must meet {lo}..{hi}, the degrees sampled")


@dataclass
class RingReport:
    ring: str
    is_semireal: bool
    is_real: bool
    tallies: dict[str, int]


@dataclass
class ExplorationReport:
    config: ExploreConfig
    rings: list[RingReport]

    def totals(self) -> dict[str, int]:
        return {key: sum(r.tallies[key] for r in self.rings) for key in TALLY_KEYS}

    def to_dict(self) -> dict:
        return {
            "config": dataclasses.asdict(self.config),
            "rings": [
                {
                    "ring": r.ring,
                    "semireal": r.is_semireal,
                    "real": r.is_real,
                    "tallies": dict(sorted(r.tallies.items())),
                }
                for r in self.rings
            ],
            "totals": self.totals(),
        }

    def to_text(self) -> str:
        lines = [
            f"exploration over semi-real (non-real) quotient rings",
            f"rings={self.config.rings} trials={self.config.trials} "
            f"seed={self.config.seed} degrees={self.config.deg_min}..{self.config.deg_max}",
        ]
        for r in self.rings:
            tally = " ".join(f"{k}={v}" for k, v in sorted(r.tallies.items()))
            lines.append(f"ring {r.ring}: {tally}")
        lines.append("totals: " + " ".join(f"{k}={v}" for k, v in self.totals().items()))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deterministic sampling


# A sampled modulus is one to three linear factors, times a repeated linear
# factor or a quadratic, and perhaps one more quadratic: degree 2 to 7.
_MODULUS_DEGREES = (2, 7)
_REAL_FACTORS = [Poly([a, 1]) for a in range(-4, 5)]  # x - (-a)
_NONREAL_FACTORS = [
    Poly([1, 0, 1]),  # x^2 + 1
    Poly([2, 0, 1]),  # x^2 + 2
    Poly([1, 1, 1]),  # x^2 + x + 1
]


def sample_semireal_nonreal_ring(rng: random.Random, deg_min: int, deg_max: int) -> Ring:
    """Quotient ring that is semi-real but not real, degree within bounds."""
    for _ in range(200):
        real_parts = rng.sample(_REAL_FACTORS, rng.randint(1, 3))
        modulus = Poly.one()
        for p in real_parts:
            modulus = modulus * p
        if rng.random() < 0.5:
            # repeated real-rooted factor breaks squarefreeness
            modulus = modulus * real_parts[0]
        else:
            modulus = modulus * rng.choice(_NONREAL_FACTORS)
        if rng.random() < 0.3:
            modulus = modulus * rng.choice(_NONREAL_FACTORS)
        ring = Ring.quotient(modulus)
        if deg_min <= modulus.degree <= deg_max and ring.is_semireal and not ring.is_real:
            return ring
    raise InputError(f"no semi-real, non-real ring of degree {deg_min}..{deg_max} in 200 draws")


def _random_elem(rng: random.Random, ring: Ring, max_deg: int = 2) -> RingElem:
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg + 1)]
    return ring.elem(Poly(coeffs))


def _random_nonzero(rng: random.Random, ring: Ring, max_deg: int = 2) -> RingElem:
    for _ in range(50):
        e = _random_elem(rng, ring, max_deg)
        if not e.is_zero():
            return e
    return ring.one()


def sample_section(rng: random.Random, ring: Ring) -> Section:
    """Random valid section: either the image of a random fraction of the
    localization, or piecewise data over a partition of the spectrum into
    disjoint basic opens."""
    primes = enumerate_primes(ring)
    if primes and rng.random() < 0.6:
        f = ring.one()
        groups: dict[int, list[Poly]] = {}
        k = rng.randint(1, min(3, len(primes)))
        for p in primes:
            groups.setdefault(rng.randrange(k), []).append(p.gen)
        patches = []
        for gi in sorted(groups):
            others = Poly.one()
            for gj in sorted(groups):
                if gj == gi:
                    continue
                for q in groups[gj]:
                    others = others * q
            g = ring.elem(others)
            patches.append(LocalFraction(_random_elem(rng, ring), g))
        return Section(ring, f, tuple(patches))
    f = _random_nonzero(rng, ring)
    m = rng.randint(0, 1)
    tail_terms = []
    if rng.random() < 0.5:
        tail_terms.append(_random_elem(rng, ring, 1))
    den = SigmaDenominator(f, m, SumOfSquares(tuple(tail_terms)))
    u = SigmaFraction(_random_elem(rng, ring), den)
    return psi(u)


def explore_question(config: ExploreConfig) -> ExplorationReport:
    """Run the sampling campaign; deterministic for a fixed seed."""
    rng = random.Random(config.seed)
    reports: list[RingReport] = []
    if config.trials <= 0 or config.rings <= 0:
        return ExplorationReport(config, reports)
    for _ in range(config.rings):
        ring = sample_semireal_nonreal_ring(rng, config.deg_min, config.deg_max)
        report = RingReport(
            ring=str(ring), is_semireal=ring.is_semireal, is_real=ring.is_real,
            tallies=dict.fromkeys(TALLY_KEYS, 0),
        )
        for _ in range(config.trials):
            section = sample_section(rng, ring)
            try:
                outcome = glue(section)  # validates the section
            except NotASectionError:
                raise InternalError("sampler produced an invalid section") from None
            report.tallies["glued"] += 1
            # the glued fraction must re-verify against the input section
            if not section_eq(psi(outcome.fraction), section):
                raise InternalError("glued fraction disagrees with its section")
        reports.append(report)
    return ExplorationReport(config, reports)
