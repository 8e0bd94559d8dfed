import hashlib
import random

import pytest

from realspec import InputError, LocalFraction, Section
from realspec.cli import main
from realspec.explore import (
    ExploreConfig,
    explore_question,
    sample_section,
    sample_semireal_nonreal_ring,
)
from realspec.sheaves import section_validate


def test_sampled_rings_are_semireal_not_real():
    rng = random.Random(1)
    for _ in range(25):
        ring = sample_semireal_nonreal_ring(rng, 2, 8)
        assert ring.is_semireal and not ring.is_real
        assert 2 <= ring.modulus.degree <= 8


def test_sampled_sections_are_valid():
    rng = random.Random(2)
    for _ in range(25):
        ring = sample_semireal_nonreal_ring(rng, 2, 8)
        section = sample_section(rng, ring)
        assert section_validate(section).ok


def test_report_shape_and_determinism():
    cfg = ExploreConfig(rings=6, trials=3, seed=11)
    r1 = explore_question(cfg)
    r2 = explore_question(cfg)
    assert r1.to_dict() == r2.to_dict()
    assert len(r1.rings) == 6
    totals = r1.totals()
    assert sum(totals.values()) == 6 * 3
    assert totals == {"glued": 18, "certificate-exhausted": 0, "blocked": 0}
    for ring_report in r1.rings:
        assert ring_report.is_semireal and not ring_report.is_real


def test_empty_config():
    report = explore_question(ExploreConfig(rings=5, trials=0, seed=3))
    assert report.rings == []
    assert sum(report.totals().values()) == 0


@pytest.mark.parametrize(
    "kwargs",
    [dict(rings=-5), dict(trials=-1), dict(deg_max=1), dict(deg_min=8, deg_max=12),
     dict(deg_min=5, deg_max=4)],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InputError):
        ExploreConfig(**kwargs)


def test_sampler_failure_is_typed():
    with pytest.raises(InputError):
        sample_semireal_nonreal_ring(random.Random(0), 9, 12)


# sha256 of the stdout of `realspec explore-question` at its defaults and of
# `realspec explore-question --json --seed 3`, pinned so that speed-ups of the
# glue path cannot change a report
DEFAULT_TEXT_SHA256 = "56a8fdbd22021aa7393c22d072fa93df95b30447535496923af187d6066818fe"
JSON_SEED_3_SHA256 = "124ccba26b5b4a435686eba1a895ee9cc0f0d28c2a8f5027f22031f6de8eb7cc"


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_default_report_is_pinned(capsys):
    out = _stdout(capsys, "explore-question")
    assert out.endswith("totals: glued=200 certificate-exhausted=0 blocked=0\n")
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_TEXT_SHA256


def test_json_report_is_pinned(capsys):
    out = _stdout(capsys, "explore-question", "--json", "--seed", "3")
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_SEED_3_SHA256


def test_invalid_sampled_section_is_caught(monkeypatch):
    def disagreeing(rng, ring):
        # 1/1 and 0/1 over D(1) differ at every real prime, and the ring has one
        one = ring.one()
        return Section(ring, one, (LocalFraction(one, one), LocalFraction(ring.zero(), one)))

    monkeypatch.setattr("realspec.explore.sample_section", disagreeing)
    with pytest.raises(AssertionError, match="sampler produced an invalid section"):
        explore_question(ExploreConfig(rings=1, trials=1, seed=0))
