import math
import re

import numpy as np
import pytest

from conftest import make_player
from tactica.games import ConfigurationError, InteractiveSystem, simulate
from tactica.prediction import (FilterSpec, apply_filter, fit_feedback_family,
                                strategic_pipeline, unravel_by_filtering)


def drift_system(eps_of_t):
    """phi' = u0 + eps with a hidden drift process."""
    return InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],
        players=(make_player(
            lambda t: np.zeros(1),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps,
            eps_form=lambda t, u0, phi: np.array([eps_of_t(t)]), eps_dim=1),))


def test_fitted_deviation_matches_gain_gap():
    # Player 2 plays g_true*sin(t) = g_true*phi; a predictor assumed g_assumed*sin(t).
    g_true, g_assumed = 0.5, 0.2
    system = InteractiveSystem(
        dim=1, dynamics=lambda t, phi, u, lam: u[0],  # phi ignores player 2
        players=(make_player(lambda t: np.array([math.cos(t)])),
                 make_player(lambda t: np.array([g_true * math.sin(t)]))))
    run = simulate(system, [0.0], 0.0, 2.0, 0.01, record_tape=False)  # phi = sin t
    deviation = run.u[:, 1] - g_assumed * np.sin(run.t)
    estimate = fit_feedback_family(deviation, ["phi[0]"], {"phi": run.phi})
    assert abs(estimate.coefficients[0, 0] - (g_true - g_assumed)) < 1e-6


@pytest.mark.parametrize("regressor", ["1/(phi[0] - phi[0])", "phi[0]*(0 - 1)^0.5"],
                         ids=["non-finite", "complex"])
def test_a_regressor_that_is_not_finite_and_real_is_named(regressor):
    phi = np.linspace(0.0, 1.0, 5)[:, None]
    with np.errstate(all="ignore"), pytest.raises(
            ValueError, match=rf"^family\[1\] '{re.escape(regressor)}': non-finite or complex"):
        fit_feedback_family(phi[:, 0], ["phi[0]", regressor], {"phi": phi})


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

def test_lowpass_matches_naive_dft_oracle():
    n = 256
    dt = 0.01
    t = np.arange(n) * dt
    u = 1.0 + 0.1 * np.sin(50.0 * t)
    cutoff = 10.0
    filtered = apply_filter(u, dt, FilterSpec(kind="lowpass", cutoff=cutoff))

    # Naive O(N^2) discrete-transform oracle on the same trace.
    k = np.arange(n)
    dft = np.exp(-2j * np.pi * np.outer(k, k) / n)
    spectrum = dft @ u
    freqs = np.fft.fftfreq(n, dt) * 2 * np.pi
    spectrum[np.abs(freqs) > cutoff] = 0.0
    oracle = (dft.conj().T @ spectrum).real / n
    assert np.max(np.abs(filtered - oracle)) < 1e-10


def test_bandlimited_signal_passes_through():
    n = 1024
    dt = 0.01
    t = np.arange(n) * dt
    u = 0.5 + 0.2 * np.sin(2 * np.pi * t / (n * dt) * 4)  # exactly periodic, slow
    filtered = apply_filter(u, dt, FilterSpec(kind="lowpass", cutoff=10.0))
    assert np.max(np.abs(filtered - u)) < 1e-9


def test_filter_linearity():
    rng = np.random.default_rng(3)
    n, dt = 512, 0.02
    u1, u2 = rng.normal(size=n), rng.normal(size=n)
    spec = FilterSpec(kind="lowpass", cutoff=20.0)
    lhs = apply_filter(2.5 * u1 - 1.5 * u2, dt, spec)
    rhs = 2.5 * apply_filter(u1, dt, spec) - 1.5 * apply_filter(u2, dt, spec)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_filter_idempotence_on_power_of_two_trace():
    rng = np.random.default_rng(4)
    n, dt = 1024, 0.01
    u = rng.normal(size=n)
    spec = FilterSpec(kind="lowpass", cutoff=40.0)
    once = apply_filter(u, dt, spec)
    twice = apply_filter(once, dt, spec)
    assert np.max(np.abs(twice - once)) < 1e-9


def test_band_selection_keeps_named_frequency():
    n, dt = 1024, 0.01
    t = np.arange(n) * dt
    omega0 = 2 * np.pi * 8 / (n * dt)  # exactly on a bin
    u = np.sin(omega0 * t) + 0.5 * np.sin(5 * omega0 * t)
    spec = FilterSpec(kind="bands", bands=(omega0,))
    filtered = apply_filter(u, dt, spec)
    assert np.max(np.abs(filtered - np.sin(omega0 * t))) < 1e-9


def test_cutoff_above_nyquist_rejected():
    with pytest.raises(ConfigurationError, match="Nyquist"):
        apply_filter(np.zeros(64), 0.1, FilterSpec(kind="lowpass", cutoff=100.0))


def test_unravel_recovers_planted_coefficient():
    # phi oscillates at 50 rad/s; u = 1 + 0.3*phi[0]; the fast component is
    # removed by the filter and regressed back on phi.
    two_pi_periods = 2 * math.pi * 52 / 50
    dt = two_pi_periods / 8192
    t1 = dt * 8191
    system = InteractiveSystem(
        dim=2,
        dynamics=lambda t, phi, u, lam: [50.0 * phi[1], -50.0 * phi[0]],
        players=(make_player(
            lambda t: np.array([1.0]),
            known_form=lambda t, u0, phi, derivs, eps, lam: u0 + eps * phi[0],
            eps_form=lambda t, u0, phi: np.array([0.3]), eps_dim=1),))
    run = simulate(system, [0.0, 1.0 / 3.0], 0.0, t1, dt, record_tape=False)
    result = unravel_by_filtering(run, FilterSpec(kind="lowpass", cutoff=10.0),
                                  family=["phi[0]"])
    n = len(run.t)
    interior = slice(n // 10, -n // 10)
    assert np.max(np.abs(result.u0[interior, 0] - 1.0)) < 1e-3
    assert abs(result.estimate.coefficients[0, 0] - 0.3) < 5e-2


# ---------------------------------------------------------------------------
# Strategic pipeline
# ---------------------------------------------------------------------------

def test_known_constant_eps_needs_no_correction():
    system = drift_system(lambda t: 0.4)
    report = strategic_pipeline(system, [0.0], 0.0, 2.0, 0.01,
                                assumed_eps=[lambda t: np.array([0.4])],
                                horizon=0.25)
    assert np.max(report.blended_error) < 1e-9
    assert np.max(report.long_error) < 1e-9


def test_drifting_eps_is_corrected_by_short_horizon():
    system = drift_system(lambda t: 0.2 * t)
    report = strategic_pipeline(system, [0.0], 0.0, 2.0, 0.01,
                                assumed_eps=[lambda t: np.array([0.0])],
                                horizon=0.25)
    covered = report.short_mask
    improvement = np.max(report.long_error[covered]) / np.max(report.blended_error[covered])
    assert improvement > 2.0


def test_zero_horizon_degenerates_to_long_term():
    system = drift_system(lambda t: 0.2 * t)
    report = strategic_pipeline(system, [0.0], 0.0, 1.0, 0.01,
                                assumed_eps=[lambda t: np.array([0.0])],
                                horizon=0.0)
    assert not report.short_mask.any()
    assert np.array_equal(report.blended, report.long_term)
