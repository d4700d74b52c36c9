"""Absolute outputs of the RRAM sweep workloads.

The other workload tests compare two evaluations of the same code
(serial against trial-batched, cold against cached).  These digests pin
the full result dicts themselves, so a change to how a workload builds
or reads its layer cannot move a recorded number unnoticed.  Each digest
is the first 16 hex digits of the SHA-256 of the dict's sorted-key JSON,
with three Monte-Carlo trials per point.
"""

import hashlib
import json

import pytest

from repro.experiments import clear_plan_cache
from repro.experiments.workloads import (lifetime_point,
                                         rram_inference_point,
                                         sharded_robustness_point)

POINTS = [
    ("robustness-sigma0", lambda: rram_inference_point(0.0, trials=3),
     "a834706913b2c6bf"),
    ("robustness-sigma1.5", lambda: rram_inference_point(1.5, trials=3),
     "2ad930924b63af4e"),
    ("sharded-cols8", lambda: sharded_robustness_point(8, trials=3),
     "3abb13278463ddb5"),
    ("sharded-cols64", lambda: sharded_robustness_point(64, trials=3),
     "8ddfd872be8e5ce3"),
    ("lifetime-0y-none",
     lambda: lifetime_point(0.0, ecc="none", trials=3), "b6cd136598c9abed"),
    ("lifetime-0y-secded",
     lambda: lifetime_point(0.0, ecc="secded", trials=3),
     "e5511f57f0ca9ffd"),
    ("lifetime-30y-none",
     lambda: lifetime_point(30.0, ecc="none", trials=3), "3fa44178f93ffd7e"),
    ("lifetime-30y-secded",
     lambda: lifetime_point(30.0, ecc="secded", trials=3),
     "856d6a04758e80e6"),
]


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _digest(result: dict) -> str:
    text = json.dumps(result, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("point, expected",
                         [(p, d) for _, p, d in POINTS],
                         ids=[name for name, _, _ in POINTS])
def test_workload_result_matches_recorded_digest(point, expected):
    assert _digest(point()) == expected
