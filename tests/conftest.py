import math
import os
from dataclasses import replace

import hypothesis
import numpy as np

from amorsim import cli
from amorsim.signal_model import (
    RotationTimeSeries,
    coherent_rotation,
    photon_flux,
)

# Numeric property tests run whole simulations inside hypothesis examples;
# the default 200 ms deadline is too tight for those on shared runners.
hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
)
hypothesis.settings.register_profile(
    "thorough", max_examples=500, deadline=None,
)
# HYPOTHESIS_PROFILE=thorough selects the longer run.
hypothesis.settings.load_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "default"))


def mean_and_sem(values):
    """Mean and standard error of the mean of a Monte-Carlo sample."""
    values = np.asarray(values)
    sem = values.std(ddof=1) / math.sqrt(values.size)
    return float(values.mean()), float(sem)


def pull_stats(estimates, errors, truth):
    """Mean, its standard error and standard deviation of the pulls
    (estimate - truth) / error of a Monte-Carlo sample of fits."""
    pulls = (np.asarray(estimates) - truth) / np.asarray(errors)
    mean, sem = mean_and_sem(pulls)
    return mean, sem, float(pulls.std(ddof=1))


def noiseless_rotation(res, mod_freq, duration, sample_rate, power, *,
                       wavelength=795e-9):
    """The real rotation series synthesize_rotation gives without shot
    noise: coherent_rotation's wave on a zero noise part, which is also
    the samples where the wave is None."""
    n = int(round(duration * sample_rate))
    wave = coherent_rotation(res, mod_freq, sample_rate, n)
    noise = np.zeros(n)
    return RotationTimeSeries(
        samples=noise if wave is None else wave, sample_rate=sample_rate,
        mean_optical_power=power, photon_flux=photon_flux(power, wavelength),
        modulation_freq=mod_freq, noise_samples=noise)


def demod_series(cfg, res, freqs, seed):
    """demod-sweep's row at each carrier of freqs as a series of its own:
    the rows of ``cli._demod_rows``' stacks, each on its own centre."""
    return [replace(stack, samples=row, center_freq=center)
            for stack in cli._demod_rows(cfg, res, freqs, seed)
            for row, center in zip(stack.samples, stack.center_freq)]
