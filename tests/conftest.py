"""Session fixtures: probed datasets, extracted archives and transient
references take up to a few seconds each, so every test shares one copy."""

import numpy as np
import pytest

from volkit.extraction import extract
from volkit.probing import simulate_dataset, transient
from volkit.sweeps import standard_sweep_plan
from volkit.synthesis import TrapezoidPulse
from volkit.systems import MultiplierCascade, SaturatingAmplifier

PULSE_PERIOD = 28e-9
PULSE_WINDOW = 27e-9  # pulse support plus 20 ns
PULSE_DT = 5e-12


@pytest.fixture(scope="session")
def bench_system():
    return MultiplierCascade()


@pytest.fixture(scope="session")
def amp_system():
    return SaturatingAmplifier()


@pytest.fixture(scope="session")
def bench_plan():
    return standard_sweep_plan(points_per_axis=6, plan_id="bench-ci")


@pytest.fixture(scope="session")
def amp_plan():
    return standard_sweep_plan(points_per_axis=6, levels_dbm=(-30.0, -20.0),
                               amp_limit_v=0.07, plan_id="amp-ci")


@pytest.fixture(scope="session")
def bench_dataset(bench_system, bench_plan):
    return simulate_dataset(bench_system, bench_plan)


@pytest.fixture(scope="session")
def amp_dataset(amp_system, amp_plan):
    return simulate_dataset(amp_system, amp_plan)


@pytest.fixture(scope="session")
def bench_extraction(bench_dataset, bench_plan):
    return extract(bench_dataset, bench_plan)


@pytest.fixture(scope="session")
def bench_archive(bench_extraction):
    return bench_extraction[0]


@pytest.fixture(scope="session")
def amp_extraction(amp_dataset, amp_plan):
    return extract(amp_dataset, amp_plan)


@pytest.fixture(scope="session")
def amp_archive(amp_extraction):
    return amp_extraction[0]


@pytest.fixture(scope="session")
def unit_pulse():
    return TrapezoidPulse(v0=1.0, t_rise=1e-9, t_width=5e-9, t_fall=1e-9)


@pytest.fixture(scope="session")
def bench_pulse_reference(bench_system, unit_pulse):
    return transient(bench_system, unit_pulse, PULSE_WINDOW, PULSE_DT)


@pytest.fixture(scope="session")
def bench_order_references(bench_system, unit_pulse):
    """Order-separated pulse responses via amplitude-scaling regression."""
    scales = (1.0, 0.5, 0.25)
    outs = [
        transient(bench_system,
                  lambda t, a=a: a * unit_pulse(t), PULSE_WINDOW, PULSE_DT)
        for a in scales
    ]
    vand = np.array([[a, a**2, a**3] for a in scales])
    per_order = np.linalg.solve(vand, np.stack([w.samples for w in outs]))
    return {1: per_order[0], 2: per_order[1], 3: per_order[2]}
