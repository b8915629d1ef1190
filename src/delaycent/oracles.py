"""Independent verification paths for the closed-form results.

Two routes that share no math with the spectral formulas:

* :func:`mode_integral` evaluates the per-mode frequency integral behind
  the performance measure by adaptive quadrature with an analytic tail.
* :func:`simulate` runs Euler-Maruyama on the stochastic delay equation
  itself, advancing up to d+1 steps at a time by the method of steps (the
  delayed states a block needs are already known), and estimates the
  steady-state dispersion with a standard error across independent
  trajectories.  Its memory is a few noise-chunk arrays of about a MiB (or
  d+1 states, if more) plus the d+1-state history, whatever the horizon.

Both are deliberately dumb and slow relative to the spectral path; their
job is to disagree loudly if a formula is wrong.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .centrality import check_variances
from .graph import GraphMatrices
from .quadrature import integrate_adaptive
from .secondorder import critical_delay
from .spectral import StabilityError, check_delay, check_positive, require_stable

# Steps of pre-generated noise held in memory at a time (see _chunk_steps).
_NOISE_CHUNK = 4096
_CHUNK_BYTES = 1 << 20
# State magnitude beyond which a run is declared numerically unstable.
_DIVERGENCE_LIMIT = 1e8


class SimulationError(RuntimeError):
    """Monte Carlo run failed (divergence or invalid configuration)."""


def mode_integral(lam: float, tau: float, eps_q: float = 1e-8) -> float:
    """H2 contribution of one Laplacian mode, by quadrature.

    Integrates ``1 / |j w + lam e^(-j tau w)|^2`` over the whole real line
    (the integrand is even, so the half line is doubled) and normalizes by
    ``1 / 2 pi``.  Beyond the truncation frequency the integrand is
    ``1/w^2`` plus an oscillating remainder, so the tail is taken
    analytically: its principal part integrates to ``1/w_max`` and the
    remainder is bounded below ``eps_q / 2``.  Diverges at
    ``tau * lam >= pi / 2``, which is rejected.
    """
    check_positive(lam, "eigenvalue")
    check_delay(tau)
    check_positive(eps_q, "tolerance eps_q")
    if tau * lam >= math.pi / 2:
        raise StabilityError(tau, math.pi / (2 * lam))

    def integrand(omega: np.ndarray) -> np.ndarray:
        re = lam * np.cos(tau * omega)
        im = omega - lam * np.sin(tau * omega)
        return 1.0 / (re * re + im * im)

    # Remainder after subtracting 1/w^2, valid for w >= 4 lam:
    # a crude O(1/w^2) bound and a sharper O(1/w^3) one that exploits the
    # oscillation of the sin(tau w)/w^3 term (useless as tau -> 0).
    budget = 0.5 * eps_q * math.pi
    omega_crude = math.sqrt(2.5 * lam / budget)
    omega_max = omega_crude
    if tau > 0:
        omega_osc = ((4.0 * lam / tau + 4.0 * lam**2) / budget) ** (1.0 / 3.0)
        omega_max = min(omega_crude, omega_osc)
    omega_max = max(4.0 * lam, 10.0, omega_max)
    body = integrate_adaptive(integrand, 0.0, omega_max, abs_tol=budget)
    return (body + 1.0 / omega_max) / math.pi


@dataclass(frozen=True)
class SimConfig:
    """Euler-Maruyama run parameters.

    The delay must land on the step grid to within 0.5% (it is snapped to
    the nearest multiple of ``dt``), and ``dt`` may not exceed ``tau / 20``
    for a delayed run, and the horizon must be longer than half a step.
    Trajectory ``t`` draws from a counter-based generator keyed by the pair
    ``(t, seed)``, so results are independent of trajectory scheduling and
    distinct seeds give independent streams.  ``n_traj`` and ``seed`` must be
    integers (kept as ``int``), the seed in [0, 2**64).
    """

    tau: float
    dt: float = 1e-3
    burn_in: float = 50.0
    horizon: float = 500.0
    n_traj: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        check_delay(self.tau)
        for name in ("dt", "burn_in", "horizon"):
            check_positive(getattr(self, name), name)
        if self.tau > 0 and self.dt > self.tau / 20 * (1 + 1e-12):
            raise ValueError(
                f"dt={self.dt:.6g} too coarse for tau={self.tau:.6g}; need dt <= tau/20"
            )
        if round(self.horizon / self.dt) < 1:
            raise ValueError(
                f"horizon={self.horizon:.6g} measures no step of dt={self.dt:.6g};"
                " need horizon > dt/2"
            )
        for name in ("n_traj", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        snapped = self.tau_snapped
        if self.tau > 0 and abs(snapped - self.tau) > 0.005 * self.tau:
            raise ValueError(
                f"tau={self.tau:.6g} is {abs(snapped - self.tau):.3g} away from the"
                f" nearest dt multiple {snapped:.6g}; exceeds 0.5% of tau"
            )

    @property
    def delay_steps(self) -> int:
        return int(round(self.tau / self.dt)) if self.tau > 0 else 0

    @property
    def tau_snapped(self) -> float:
        return self.delay_steps * self.dt

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class SimResult:
    """Steady-state dispersion estimate from one Monte Carlo run.

    ``rho_hat`` is exactly the sum of ``per_node_var``; ``std_err`` is the
    standard error of the per-trajectory means (NaN for a single
    trajectory).  ``per_traj_mean`` holds the trajectories' own
    dispersions, from which ``std_err`` comes; it is not serialized.
    """

    rho_hat: float
    std_err: float
    per_node_var: np.ndarray
    effective_samples: int
    tau_snapped: float
    config: SimConfig
    per_traj_mean: np.ndarray

    def to_dict(self) -> dict[str, Any]:
        return {
            "rho_hat": self.rho_hat,
            "std_err": self.std_err,
            "per_node_var": [float(v) for v in self.per_node_var],
            "effective_samples": self.effective_samples,
            "tau_snapped": self.tau_snapped,
            "config": self.config.to_dict(),
        }


def _trajectory_generators(seed: int, n_traj: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.Philox(key=(t << 64) | seed))
        for t in range(n_traj)
    ]


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.isfinite(x).all() or np.max(np.abs(x)) > _DIVERGENCE_LIMIT:
        raise SimulationError(f"numerically unstable run: state blew up at step {step}")


def _finish(sum_sq: np.ndarray, meas_steps: int, cfg: SimConfig) -> SimResult:
    """Per-node variances and per-trajectory means from the ``_measure`` table."""
    n_traj = cfg.n_traj
    per_node_var = sum_sq.sum(axis=1) / (meas_steps * n_traj)
    per_traj_mean = sum_sq.sum(axis=0) / meas_steps
    rho_hat = float(per_node_var.sum())
    return SimResult(
        rho_hat=rho_hat,
        std_err=float(np.std(per_traj_mean, ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else math.nan,
        per_node_var=per_node_var,
        effective_samples=meas_steps * n_traj,
        tau_snapped=cfg.tau_snapped,
        config=cfg,
        per_traj_mean=per_traj_mean,
    )


def _measure(y: np.ndarray, sum_sq: np.ndarray, centres: np.ndarray, scratch: np.ndarray) -> None:
    """Add the squared deviations of states ``y`` (steps, n, traj) from their
    node mean, summed over steps, to the ``(n, traj)`` table ``sum_sq``, one
    contiguous (n, traj) slab per step.  ``centres`` (steps, traj) and
    ``scratch`` (steps, n, traj) are buffers of at least ``len(y)`` steps."""
    k = y.shape[0]
    centre = np.einsum("knt->kt", y, out=centres[:k])
    centre /= y.shape[1]
    dev = np.subtract(y, centre[:, None], out=scratch[:k])
    dev *= dev
    sum_sq += dev.sum(axis=0)


def simulate(
    gm: GraphMatrices,
    b: np.ndarray,
    variances: np.ndarray,
    cfg: SimConfig,
) -> SimResult:
    """Euler-Maruyama on ``dx = -L x(t - tau) dt + B diag(sigma) dW``.

    Zero pre-history on [-tau, 0); output ``y = x - mean(x)``; the
    dispersion estimate averages ``|y|^2`` over the horizon after burn-in
    and across trajectories (accumulated in fixed trajectory order).  The
    run uses the delay snapped to the step grid, so both the requested and
    the snapped delay must lie inside the stability region.
    """
    lap = gm.laplacian
    n = gm.n
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != n:
        raise ValueError(f"input matrix must be 2-D with {n} rows, got shape {b.shape}")
    variances = check_variances(variances, b.shape[1])
    require_stable(gm.eigenvalue_spectrum, max(cfg.tau, cfg.tau_snapped))

    b_sigma = b * np.sqrt(variances)[None, :]
    # (steps, channels, traj) white increments -> per-state forcing
    return _run_euler_maruyama(cfg, lap, b.shape[1], lambda z, out: np.matmul(b_sigma, z, out=out))


def simulate_second_order(
    gm: GraphMatrices,
    b_gain: float,
    variances: np.ndarray,
    cfg: SimConfig,
) -> SimResult:
    """Euler-Maruyama on the position/velocity consensus model.

    Positions integrate velocities; velocities see delayed Laplacian
    feedback on both states (velocity gain ``b_gain``) plus per-agent white
    noise.  The observed dispersion is that of the centered positions.
    Both the requested and the snapped delay must lie below ``tau_c(lambda_max)``.
    """
    check_positive(b_gain, "velocity gain")
    lap = gm.laplacian
    n = gm.n
    variances = check_variances(variances, n)
    lam_max = gm.eigenvalue_spectrum.lambda_max
    tau_c = critical_delay(lam_max, b_gain) if lam_max > 0 else math.inf
    tau = max(cfg.tau, cfg.tau_snapped)
    if tau >= tau_c:
        raise StabilityError(tau, tau_c)
    sigma = np.sqrt(variances)[None, :, None]
    return _run_euler_maruyama(cfg, lap, n, lambda z, out: np.multiply(sigma, z, out=out), b_gain)


def _chunk_steps(n_rows: int, n_traj: int, d: int) -> int:
    """Steps per chunk: as many as fit ``n_rows`` doubles per trajectory in ``_CHUNK_BYTES``,
    at most ``_NOISE_CHUNK``, at least one d+1-step block (shorter ones cost time)."""
    return min(_NOISE_CHUNK, max(d + 1, _CHUNK_BYTES // (8 * n_rows * n_traj)))


def _run_euler_maruyama(cfg: SimConfig, lap, n_channels, mix_noise, b_gain=None) -> SimResult:
    """Shared stepping loop: method of steps over a linear history, chunked noise.

    The state is ``x`` (first order) or positions stacked over velocities
    (second order, ``b_gain`` given); the delayed feedback and the noise
    drive its last ``n`` rows.  ``hist`` holds the d+1 states before the
    current noise chunk, oldest first, followed by the chunk's new states,
    so chunk step ``i`` reads its delayed state at ``hist[i]`` and writes
    ``hist[d+1+i]``; at the chunk end the last d+1 states move to the front.
    Chunks are :func:`_chunk_steps` long, in draw, noise and forcing buffers
    allocated once per run; ``mix_noise(z, out)`` writes forcing into ``out``,
    which :func:`_measure` then reuses as scratch once the chunk is stepped.
    Each trajectory draws from its own stream in order, so no state depends
    on the chunk length.
    """
    dt = cfg.dt
    d = cfg.delay_steps
    burn_steps = int(round(cfg.burn_in / dt))
    meas_steps = int(round(cfg.horizon / dt))
    total_steps = burn_steps + meas_steps
    n_traj = cfg.n_traj
    gens = _trajectory_generators(cfg.seed, n_traj)
    n = lap.shape[0]
    n_state = n if b_gain is None else 2 * n
    chunk = min(_chunk_steps(max(n_state, n_channels), n_traj, d), total_steps)

    hist = np.zeros((d + 1 + chunk, n_state, n_traj))
    draws = np.empty((n_traj, chunk, n_channels))
    noise = np.empty((chunk, n_channels, n_traj))
    forcing = np.empty((chunk, n, n_traj))
    work = np.empty((2 * min(d + 1, chunk) + 1, n, n_traj))
    centres = np.empty((chunk, n_traj))
    sum_sq = np.zeros((n, n_traj))

    step = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while step < total_steps:
            k = min(chunk, total_steps - step)
            for gen, out in zip(gens, draws):
                gen.standard_normal(out=out[:k])
            np.multiply(draws[:, :k].transpose(1, 2, 0), math.sqrt(dt), out=noise[:k])
            mix_noise(noise[:k], forcing[:k])
            if d == 0:
                _step_in_place(hist, forcing[:k], lap, dt, b_gain)
            else:
                _advance_blocks(hist, forcing[:k], lap, dt, d, b_gain, work)
            step += k
            _check_finite(hist[d + k], step)
            first_measured = max(0, burn_steps - (step - k))
            if first_measured < k:
                _measure(hist[d + 1 + first_measured : d + 1 + k, :n], sum_sq, centres, forcing)
            hist[: d + 1] = hist[k : k + d + 1]
    return _finish(sum_sq, meas_steps, cfg)


def _advance_blocks(hist, forcing, lap, dt, d, b_gain, work) -> None:
    """Method of steps for d >= 1 over one chunk of ``forcing``, with
    ``work`` holding at least ``2 min(d+1, len(forcing)) + 1`` states.

    Steps ``s .. s+d`` read only delayed states that are already known, so
    a block of up to d+1 steps takes one stacked matmul for all its drifts
    and one ``cumsum`` over the rows ``[x, -dt L x_0, f_0, -dt L x_1, f_1,
    ...]`` for all its states.  The accumulation is sequential, so it
    reproduces the stepwise ``(x - dt (L x_del)) + f`` bit for bit.
    Second-order positions are then a ``cumsum`` of ``[p, dt v_0, dt v_1,
    ...]``.
    """
    n = lap.shape[0]
    driven = slice(hist.shape[1] - n, None)
    for s in range(0, forcing.shape[0], d + 1):
        nb = min(d + 1, forcing.shape[0] - s)
        delayed = hist[s : s + nb]
        rows = work[: 2 * nb + 1]
        drifts = rows[1::2]
        np.matmul(lap, delayed[:, :n], out=drifts)
        if b_gain is not None:
            feedback = lap @ delayed[:, n:]
            feedback *= b_gain
            drifts += feedback
        drifts *= -dt
        rows[0] = hist[d + s, driven]
        rows[2::2] = forcing[s : s + nb]
        np.cumsum(rows, axis=0, out=rows)
        hist[d + s + 1 : d + s + nb + 1, driven] = rows[2::2]
        if b_gain is not None:
            rows = work[: nb + 1]
            rows[0] = hist[d + s, :n]
            np.multiply(hist[d + s : d + s + nb, n:], dt, out=rows[1:])
            np.cumsum(rows, axis=0, out=rows)
            hist[d + s + 1 : d + s + nb + 1, :n] = rows[1:]


def _step_in_place(hist, forcing, lap, dt, b_gain) -> None:
    """d = 0: each step needs the state just before it, so a block would
    hold one step and cost two to three times as much per step as this
    in-place loop.  It keeps the stepwise order ``(x - dt (L x)) + f``;
    ``np.dot`` with a positional output is the cheapest call here and
    gives the same bits as ``@``."""
    n = lap.shape[0]
    drift = np.empty(forcing.shape[1:])
    feedback = np.empty_like(drift)
    for x, new, f in zip(hist, hist[1:], forcing):
        p, v, vel = x[:n], x[-n:], new[-n:]
        np.dot(lap, p, drift)
        if b_gain is not None:
            np.dot(lap, v, feedback)
            feedback *= b_gain
            drift += feedback
        drift *= dt
        np.subtract(v, drift, vel)
        vel += f
        if b_gain is not None:
            np.multiply(v, dt, feedback)
            np.add(p, feedback, new[:n])
