"""Analysis utilities: the paper's closed-form expectations and
complexity-trend fitting.  The operation counters live in
:mod:`repro.obs.cost_model`."""

from repro.analysis.complexity import PowerLawFit, doubling_ratios, fit_power_law
from repro.analysis.theory import (
    expected_new_skyband_pairs,
    expected_skyband_size,
    harmonic,
    skyband_membership_probability,
    ta_access_bound,
)

__all__ = [
    "PowerLawFit",
    "doubling_ratios",
    "fit_power_law",
    "expected_new_skyband_pairs",
    "expected_skyband_size",
    "harmonic",
    "skyband_membership_probability",
    "ta_access_bound",
]
