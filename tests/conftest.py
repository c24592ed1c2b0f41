"""Shared fixtures. Ray is initialised ONCE per pytest session, lazily —
only tests that request the ``ray_session`` fixture pay the startup cost."""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: Seconds to wait, after a test, for Ray to hand back CPUs that actors of
#: its finished Datasets still hold, before the session is restarted.
CPU_RELEASE_WAIT_S = 30

_RAY_INIT_KWARGS = dict(address="local", num_cpus=4, include_dashboard=False,
                        ignore_reinit_error=True, logging_level="ERROR")


def _restart_ray(ray) -> None:
    """Start the shared test session afresh: every actor and task of the
    old one is gone, so the next test gets all of its CPUs."""
    ray.shutdown()
    ray.init(**_RAY_INIT_KWARGS)


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(**_RAY_INIT_KWARGS)
    yield ray
    ray.shutdown()


def _cpus_in_use(ray) -> bool:
    return ray.available_resources().get("CPU", 0) < \
        ray.cluster_resources().get("CPU", 0)


@pytest.fixture(autouse=True)
def _release_actor_handles():
    """Give back the CPUs a test left in use before the next test starts.

    Ray Data releases a finished actor pool by dropping its handles, and
    Ray kills an actor once no handle is left. A Dataset that failed inside
    an actor (a ``pytest.raises`` over an actor-pool stage) leaves those
    handles in the exception's traceback cycle, so the actor keeps its CPU
    until Python's collector next runs, and in the shared 4-CPU session a
    later test's pool can starve the task that feeds it. So after a test
    that leaves a CPU in use, this collects garbage and waits up to
    ``CPU_RELEASE_WAIT_S`` for the killed actors to exit. An actor that
    still holds its CPU then (one Ray killed while it was starting can
    stay) is ended by restarting the session. Only tests that leave a CPU
    in use pay for any of this."""
    yield
    ray = sys.modules.get("ray")
    if ray is None or not ray.is_initialized() or not _cpus_in_use(ray):
        return
    gc.collect()
    deadline = time.monotonic() + CPU_RELEASE_WAIT_S
    while _cpus_in_use(ray):
        if time.monotonic() > deadline:
            _restart_ray(ray)
            return
        time.sleep(0.05)


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return "/root/testdata/sf0.001"


def load_script(modname: str, relpath: str):
    """Import a scripts/*.py file as a module (they are CLIs, not package
    members). One copy here — the generator/harness test modules all load
    scripts through this."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(modname,
                                                  REPO_ROOT / relpath)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def harness():
    """The oracle-sweep harness (driver-equivalent compare helpers)."""
    return load_script("check_oracles_mod", "scripts/check_oracles.py")


@pytest.fixture(scope="session")
def adv_dir(tmp_path_factory) -> str:
    """Adversarial twin of sf0.001 (nulls/unicode/malformed rows)."""
    gen = load_script("gen_adversarial_testdata",
                      "scripts/gen_adversarial_testdata.py")
    out = tmp_path_factory.mktemp("sf_adv")
    gen.generate("/root/testdata/sf0.001", out)
    return str(out)


@pytest.fixture(scope="session")
def skew_dir(tmp_path_factory) -> str:
    """Key-skewed twin of sf0.001 (hot keys, planted identical rows)."""
    gen = load_script("gen_skewed_testdata",
                      "scripts/gen_skewed_testdata.py")
    out = tmp_path_factory.mktemp("sf_skew")
    gen.generate("/root/testdata/sf0.001", out)
    return str(out)


@pytest.fixture(scope="session")
def skew01_dir(tmp_path_factory) -> str:
    """Skewed twin of sf0.01 — the base where the sgemm edge-column 1-ulp
    tie-break artifact actually manifested (data-dependent; the sf0.001
    skew passed even before the fix)."""
    gen = load_script("gen_skewed_testdata",
                      "scripts/gen_skewed_testdata.py")
    out = tmp_path_factory.mktemp("sf_skew01")
    gen.generate("/root/testdata/sf0.01", out)
    return str(out)


@pytest.fixture(scope="session")
def shuffled_dir(tmp_path_factory) -> str:
    """Row-shuffled twin of sf0.001 (input row-order invariance)."""
    gen = load_script("gen_shuffled_testdata",
                      "scripts/gen_shuffled_testdata.py")
    out = tmp_path_factory.mktemp("sf_shuffled")
    gen.generate("/root/testdata/sf0.001", out)
    return str(out)


@pytest.fixture(scope="session")
def int_collapse_cases():
    """``cases(z)`` -> ``[(name, values, takes_bitmap)]``: one integer batch
    per branch of ``Sketch._collapse_ints``, built from a non-negative
    duplicate-heavy base ``z`` with ``0 < max(z) <= 8 * len(z)``. The bitmap
    takes non-negative values with ``max <= 8 * len``; every other batch
    sorts. Each case asserts the branch it is named for."""
    import numpy as np

    def cases(z):
        n = len(z)
        out = [
            ("dense int32", z.astype(np.int32), True),
            ("int64 with negatives", z.astype(np.int64) - n, False),
            ("sparse span int64", z.astype(np.int64) * (8 * n + 1), False),
            ("uint64 above 2^63", z.astype(np.uint64) + np.uint64(1 << 63),
             False),
            ("uint8", (z % 256).astype(np.uint8), True),
            ("int8", ((z % 256) - 128).astype(np.int8), False),
        ]
        for name, vals, bitmap in out:
            assert (int(vals.min()) >= 0
                    and int(vals.max()) <= 8 * n) == bitmap, name
        return out

    return cases
