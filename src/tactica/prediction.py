"""A-posteriori analysis of recorded runs.

Covers spectral separation of pure controls from recorded interactive controls,
least-squares fits of a declared feedback family to the separated residual, and
the combined long-term / short-term prognosis pipeline, whose short-term stages
re-anchor at the recorded state and hold the last observed hidden parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import compile_vector
from .games import (ConfigurationError, InteractiveSystem, SlowControl, StateTrajectory,
                    associated_ordinary_game, simulate, whole_steps)


# ---------------------------------------------------------------------------
# Parametric feedback estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeedbackEstimate:
    """Least-squares coefficients of a declared parametric feedback family."""

    family: tuple[str, ...]
    coefficients: np.ndarray  # (n_columns, n_targets)
    residual_norm: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.coefficients)) or not np.isfinite(self.residual_norm):
            raise ConfigurationError("feedback estimate must be finite")


def design_matrix(expressions: Sequence[str], data: Mapping[str, np.ndarray]) -> np.ndarray:
    """Evaluate the regressor expressions, one vector ``family``, sample-wise over named
    data columns.  A column that is not finite and real at every sample is a ValueError
    naming its regressor."""
    arrays = [np.atleast_2d(np.asarray(v, dtype=float)) for v in data.values()]
    family = compile_vector(expressions, (), {name: a.shape[1] for name, a in zip(data, arrays)},
                            path="family")
    values = np.empty((len(arrays[0]) if arrays else 0, family.dim), dtype=complex)
    for k, row in enumerate(zip(*arrays)):
        values[k] = family(*row)
    bad = ~(np.isfinite(values) & (values.imag == 0)).all(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"family[{k}] {expressions[k]!r}: non-finite or complex regressor value")
    return np.ascontiguousarray(values.real)


def fit_feedback_family(targets: np.ndarray, expressions: Sequence[str],
                        data: Mapping[str, np.ndarray]) -> FeedbackEstimate:
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[0] == 1 and targets.shape[1] > 1:
        targets = targets.T
    design = design_matrix(expressions, data)
    if design.shape[1] != len(expressions):
        raise ConfigurationError("family arity does not match the design columns")
    coeff, _, _, _ = np.linalg.lstsq(design, targets, rcond=None)
    residual = float(np.linalg.norm(design @ coeff - targets))
    return FeedbackEstimate(family=tuple(expressions), coefficients=coeff,
                            residual_norm=residual)


# ---------------------------------------------------------------------------
# Filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterSpec:
    """Full-trace spectral filter: low-pass cutoff or band selection (rad/time)."""

    kind: str
    cutoff: float | None = None
    bands: tuple[float, ...] = ()
    band_halfwidth: float | None = None

    def __post_init__(self):
        if self.kind not in ("lowpass", "bands"):
            raise ConfigurationError(f"unknown filter kind {self.kind!r}")
        if self.kind == "lowpass" and (self.cutoff is None or self.cutoff <= 0):
            raise ConfigurationError("low-pass filter needs a positive cutoff")
        if self.kind == "bands" and not self.bands:
            raise ConfigurationError("band filter needs a finite frequency set")


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def apply_filter(values: np.ndarray, dt: float, spec: FilterSpec) -> np.ndarray:
    """Filter one uniformly sampled column; trace is edge-padded to a power of two."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    nyquist = np.pi / dt
    if spec.kind == "lowpass" and spec.cutoff > nyquist:
        raise ConfigurationError(
            f"cutoff {spec.cutoff!r} above the Nyquist rate {nyquist!r}")
    p = _next_pow2(n)
    padded = values if p == n else np.pad(values, (0, p - n), mode="edge")
    omega = 2.0 * np.pi * np.fft.rfftfreq(p, dt)
    if spec.kind == "lowpass":
        mask = omega <= spec.cutoff
    else:
        half = spec.band_halfwidth
        if half is None:
            half = np.pi / (p * dt)  # one bin
        mask = np.zeros_like(omega, dtype=bool)
        for b in spec.bands:
            mask |= np.abs(omega - abs(b)) <= half
    spectrum = np.fft.rfft(padded)
    return np.fft.irfft(spectrum * mask, n=p)[:n]


@dataclass(frozen=True)
class UnravelResult:
    u0: np.ndarray
    residual: np.ndarray
    estimate: FeedbackEstimate | None


def unravel_by_filtering(run: StateTrajectory, spec: FilterSpec,
                         family: Sequence[str] = ()) -> UnravelResult:
    """Split recorded controls into filtered pure controls plus a residual.

    The residual is regressed on the declared family (expressions over
    ``phi[i]`` and ``u0[i]``, where ``u0`` is the filtered control) when a
    family is given.
    """
    dt = run.dt
    if dt <= 0:
        raise ConfigurationError("run must carry at least two samples")
    u = run.u
    u0 = np.column_stack([apply_filter(u[:, j], dt, spec) for j in range(u.shape[1])]) \
        if u.shape[1] else u.copy()
    residual = u - u0
    estimate = None
    if family:
        estimate = fit_feedback_family(residual, family, {"phi": run.phi, "u0": u0})
    return UnravelResult(u0=u0, residual=residual, estimate=estimate)


# ---------------------------------------------------------------------------
# Strategic pipeline
# ---------------------------------------------------------------------------

def _from_step(slow: SlowControl | None, base: int) -> SlowControl | None:
    """``slow`` as a run starting at step ``base`` of the original run sees it: a step
    schedule shifted by ``base`` steps."""
    if slow is None or callable(slow.schedule):
        return slow
    return SlowControl(tuple((step - base, values) for step, values in slow.schedule))


@dataclass(frozen=True)
class PrognosisReport:
    """Long-term prognosis with short-term re-anchored corrections blended in."""

    t: np.ndarray
    long_term: np.ndarray
    short_term: np.ndarray
    short_mask: np.ndarray
    blended: np.ndarray
    long_error: np.ndarray
    blended_error: np.ndarray


def strategic_pipeline(system: InteractiveSystem, initial, t0: float, t1: float,
                       dt: float, assumed_eps: Sequence[Callable],
                       horizon: float, truth: StateTrajectory | None = None,
                       slow: SlowControl | None = None) -> PrognosisReport:
    """Long-term prognosis in the associated ordinary game, corrected window-wise.

    The long-term stage integrates under the assumed hidden-parameter
    policies.  Each short-term stage re-anchors at the recorded state of a
    window start and holds the last observed hidden parameters over one
    horizon.  Short-term values replace long-term values where available.
    All short-term stages run one anchored ordinary game, whose policies read
    the parameters held for the current window.  Every run sees the slow
    parameter ``slow`` of its own steps of the run.
    """
    if truth is None:
        truth = simulate(system, initial, t0, t1, dt, slow=slow, record_tape=False)
    ordinary = associated_ordinary_game(system, eps_policies=list(assumed_eps))
    long_run = simulate(ordinary, initial, t0, t1, dt, slow=slow, record_tape=False)

    n = len(truth.t)
    short = np.full_like(truth.phi, np.nan)
    mask = np.zeros(n, dtype=bool)
    if horizon > 0:
        steps_per_window = whole_steps(0.0, horizon, dt)
        if steps_per_window is None:
            raise ConfigurationError("horizon must be a positive multiple of dt")
        n_slots = len(truth.eps_dims)
        held: list = [None] * n_slots     # the parameters held over the current window
        anchored = associated_ordinary_game(system, eps_policies=[
            (lambda t, j=j: held[j]) for j in range(n_slots)])
        base_idx = 0
        while base_idx + steps_per_window < n:
            base_t = float(truth.t[base_idx])
            end_t = float(truth.t[base_idx + steps_per_window])
            held[:] = [np.array(truth.eps_of(j)[base_idx]) for j in range(n_slots)]
            seg = simulate(anchored, truth.phi[base_idx], base_t, end_t, dt,
                           slow=_from_step(slow, base_idx), record_tape=False)
            sl = slice(base_idx + 1, base_idx + steps_per_window + 1)
            short[sl] = seg.phi[1:]
            mask[sl] = True
            base_idx += steps_per_window

    blended = np.where(mask[:, None], np.nan_to_num(short), long_run.phi)
    long_error = np.linalg.norm(long_run.phi - truth.phi, axis=1)
    blended_error = np.linalg.norm(blended - truth.phi, axis=1)
    return PrognosisReport(t=truth.t.copy(), long_term=long_run.phi,
                           short_term=short, short_mask=mask, blended=blended,
                           long_error=long_error, blended_error=blended_error)
