"""Shared fixtures and samplers for the test suite."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from paracone import norm, testbed_families

settings.register_profile(
    "numeric",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("numeric")

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"

# scoreboard lines recorded by the acceptance tests; printed once, after the
# run, so fd-level capture cannot swallow them
ACCEPTANCE_VERDICTS: list = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_VERDICTS:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def families():
    return testbed_families()


def interior_pairs(f, n, seed):
    """Seeded (x0, unit direction) pairs away from the domain boundary."""
    rng = np.random.default_rng(seed)
    inner = f.domain.shrink(0.05)
    out = []
    while len(out) < n:
        x0 = inner.sample(1, rng)[0]
        h = rng.normal(size=f.domain.dim)
        hn = norm(h, f.domain_norm)
        if hn < 1e-9:
            continue
        h = h / hn
        out.append((x0, h))
    return out
