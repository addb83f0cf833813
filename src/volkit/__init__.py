"""Volterra kernel extraction from multi-tone spectral data.

Pipeline: plan a collision-free multi-tone sweep, probe a system (or ingest
measured spectra), separate kernel orders per output frequency by least
squares, store kernels canonically, and synthesize time-domain responses to
arbitrary periodic inputs.
"""

from volkit.extraction import analytic_dataset, extract
from volkit.kernels import KernelArchive, KernelGrid
from volkit.mixing import (
    MixTerm,
    enumerate_kernels_for_order,
    enumerate_output_indices,
    term_multiplicity,
    unknowns_at_index,
)
from volkit.probing import (
    SpectralDataset,
    Waveform,
    simulate_dataset,
    transient,
)
from volkit.sweeps import (
    SweepPlan,
    amplitude_schedule,
    dbm_to_volts,
    standard_sweep_plan,
    validate_plan,
)
from volkit.synthesis import (
    DiscreteSpectrum,
    TrapezoidPulse,
    nrmse,
    spectrum_of,
    synthesize_order,
    synthesize_total,
)
from volkit.systems import (
    LinearBlock,
    MultiplierCascade,
    SaturatingAmplifier,
    kernel_oracle,
    lowpass_ladder,
)

__all__ = [
    "DiscreteSpectrum",
    "KernelArchive",
    "KernelGrid",
    "LinearBlock",
    "MixTerm",
    "MultiplierCascade",
    "SaturatingAmplifier",
    "SpectralDataset",
    "SweepPlan",
    "TrapezoidPulse",
    "Waveform",
    "amplitude_schedule",
    "analytic_dataset",
    "dbm_to_volts",
    "enumerate_kernels_for_order",
    "enumerate_output_indices",
    "extract",
    "kernel_oracle",
    "lowpass_ladder",
    "nrmse",
    "simulate_dataset",
    "spectrum_of",
    "standard_sweep_plan",
    "synthesize_order",
    "synthesize_total",
    "term_multiplicity",
    "transient",
    "unknowns_at_index",
    "validate_plan",
]

__version__ = "0.1.0"
