"""Golden values: the simulated numbers must not drift.

The serial = pool and traced = untraced checks elsewhere compare two runs
of the current code, so they still pass when both sides change.  These
values were recorded before the uarch window loop was fused and pin the
results themselves.  A PR that changes results on purpose re-records them
and says so.
"""

import hashlib
import json

import pytest

from repro.config import SystemConfig
from repro.core.experiment import make_run_key, simulate_run
from repro.experiments.common import QUICK_CPU_NAMES
from repro.uarch import CoreUarchState, measure_steady_state
from repro.workloads import parsec
from repro.workloads.calibration import address_spec_for, branch_spec_for

HORIZON_NS = 2_000_000

#: sha256 of the canonical JSON of ``simulate_run(key).as_dict()``, seed 42.
GOLDEN_RUNS = {
    ("x264", "ubench", True): "eee891d7094f726d4398633426294f3dfc218215b07ac43de58834d03e6c5956",
    ("x264", "ubench", False): "befeb44fa872529354ef3ea5c1258882cc2f3fad62fa95efc87e748874cf68bd",
    (None, "ubench", True): "fab47639edc2dd35d0afa50fb7a4a8985e46765f0501ba68388b049c346f77e9",
}

#: ``measure_steady_state`` (miss rate, mispredict rate) per quick profile.
#: Both are ratios of integer counts, so they are exact on every Python.
GOLDEN_STEADY_STATE = {
    "blackscholes": (0.0, 0.0283203125),
    "facesim": (0.0025634765625, 0.060791015625),
    "fluidanimate": (0.0023193359375, 0.05419921875),
    "raytrace": (0.000732421875, 0.06201171875),
    "streamcluster": (0.0050048828125, 0.051025390625),
    "x264": (0.0037841796875, 0.05859375),
}


def _canonical(value):
    """Floats to 12 significant digits: Python 3.12's ``sum()`` of floats
    is compensated, so metric totals may differ from 3.9/3.11 in the last
    bit.  Everything the simulation decides still shows at 12 digits."""
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def run_digest(cpu, gpu, ssr) -> str:
    metrics = simulate_run(make_run_key(cpu, gpu, ssr, SystemConfig(seed=42), HORIZON_NS))
    text = json.dumps(_canonical(metrics.as_dict()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN_RUNS, key=repr), ids=repr)
def test_run_digest_is_golden(key):
    assert run_digest(*key) == GOLDEN_RUNS[key]


def test_ssr_run_drives_user_and_kernel_windows(monkeypatch):
    # Guard the guard: the pinned SSR run must go through both window kinds.
    calls = {"run_user_window": 0, "run_kernel_window": 0}
    for name in calls:
        method = getattr(CoreUarchState, name)

        def counting(*args, _name=name, _method=method):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(CoreUarchState, name, counting)
    run_digest("x264", "ubench", True)
    assert min(calls.values()) > 100, calls


@pytest.mark.parametrize("name", QUICK_CPU_NAMES)
def test_steady_state_is_golden(name):
    profile = parsec(name)
    uarch = SystemConfig().cpu.uarch
    rates = measure_steady_state(
        address_spec_for(profile, 0, uarch.line_size), branch_spec_for(profile, 0), uarch
    )
    assert rates == GOLDEN_STEADY_STATE[name]
