"""Independent output checker.

Shares no code with ``delaycent``: indices come from this module's own
dense ``eigh`` and modal sums, second-order mode integrals from
``scipy.integrate.quad``, flips from a vectorized pairwise comparison, and
Monte Carlo estimates must fall within five standard errors of the exact
mean of the Euler-Maruyama estimator, both computed from the modes.
``Checker.check`` returns None for a correct output and a one-line reason
otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate

from workloads import Graph, laplacian

# Values agree when within this fraction of the largest reference magnitude.
# Reports carry 12 significant digits; the eigensolvers differ in the last
# few bits.
RTOL = 1e-9
# The tie tolerance the program documents for rankings and rank flips.
TIE_FACTOR = 1e-9
MC_STANDARD_ERRORS = 5.0


class _Spectrum:
    def __init__(self, g: Graph):
        self.g = g
        lam, q = np.linalg.eigh(laplacian(g.n, g.i, g.j, g.w))
        self.lam = lam[1:]  # the ring makes the graph connected: one zero mode
        self.q2 = q[:, 1:] ** 2
        self.dq2 = (q[g.i, 1:] - q[g.j, 1:]) ** 2  # (Q_ik - Q_jk)^2 per edge
        self.degree = np.bincount(g.i, g.w, g.n) + np.bincount(g.j, g.w, g.n)
        self.tau_max = math.pi / (2.0 * lam[-1])

    def kernel(self, tau: float, alpha: float = 1.0) -> np.ndarray:
        lam = alpha * self.lam
        return np.cos(tau * lam) / (lam * (1.0 - np.sin(tau * lam)))

    def indices(self, structure: str, tau: float, alpha: float = 1.0) -> np.ndarray:
        g = self.kernel(tau, alpha)
        lam = alpha * self.lam
        d = alpha * self.degree
        if structure == "dynamics":
            return 0.5 * self.q2 @ g
        if structure == "sensor":
            return 0.5 * self.q2 @ (lam**2 * g)
        if structure == "receiver":
            return 0.5 * d**2 * (self.q2 @ g)
        if structure == "emitter":
            # B = A = D - L, so (Q^T B)_ki = Q_ik (d_i - lam_k).
            return 0.5 * (d**2 * (self.q2 @ g) - 2.0 * d * (self.q2 @ (lam * g)) + self.q2 @ (lam**2 * g))
        if structure == "measurement":
            return 0.5 * self.dq2 @ g
        if structure == "comm-channel":
            return 0.5 * (alpha * self.g.w) ** 2 * (self.dq2 @ g)
        raise ValueError(f"no reference for structure {structure!r}")

    def sensitivity(self, structure: str, tau: float) -> np.ndarray:
        x = tau * self.lam
        if structure == "dynamics":
            g = (x - np.cos(x)) / (self.lam**2 * (1.0 - np.sin(x)))
        else:
            g = (x + np.cos(x)) / (1.0 - np.sin(x))
        return 0.5 * self.dq2 @ g


def _close(got, want, what: str) -> str | None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 1.0
    if not err <= RTOL * scale:
        return f"{what}: max error {err:.3e} exceeds {RTOL:.0e} x {scale:.3e}"
    return None


def _ranking_consistent(ranking, tie_groups, values: np.ndarray, what: str) -> str | None:
    """The ranking must be a permutation that is non-increasing in ``values``
    beyond the tie tolerance; tie groups list ascending ids."""
    if sorted(ranking) != list(range(values.size)):
        return f"{what}: ranking is not a permutation of {values.size} ids"
    tol = TIE_FACTOR * float(np.max(np.abs(values)))
    ordered = values[np.asarray(ranking)]
    if np.any(np.diff(ordered) > tol):
        return f"{what}: ranking is not descending in the reference indices"
    if any(list(grp) != sorted(grp) for grp in tie_groups):
        return f"{what}: tie group ids are not ascending"
    return None


def _order_signs(x: np.ndarray) -> np.ndarray:
    tol = TIE_FACTOR * float(np.max(np.abs(x)))
    diff = x[:, None] - x[None, :]
    return (diff > tol).astype(np.int8) - (diff < -tol).astype(np.int8)


def reference_flips(series: list[np.ndarray]) -> list[tuple[int, int, int]]:
    """Pairs whose strict order reverses between neighbouring grid points, as
    ``(k, winner_at_k, winner_at_k+1)``, ordered like the program's log."""
    flips = []
    signs = [_order_signs(x) for x in series]
    for k in range(len(series) - 1):
        i, j = np.nonzero(np.triu(signs[k] * signs[k + 1] == -1, 1))
        ahead = signs[k][i, j] > 0
        for a, b, up in zip(i.tolist(), j.tolist(), ahead.tolist()):
            flips.append((k, a, b) if up else (k, b, a))
    return flips


def _report_check(report: dict, want: np.ndarray, what: str) -> str | None:
    return _close(report["indices"], want, what) or _ranking_consistent(
        report["ranking"], report["tie_groups"], np.asarray(want), what
    )


def second_order_mode(lam: float, tau: float, b: float) -> float:
    """``(1/pi) int_0^inf dw / h(w)`` by QUADPACK, split at the crossing frequency."""
    def inv_h(w: float) -> float:
        return 1.0 / ((lam - w * w * math.cos(w * tau)) ** 2 + w * w * (b * lam - w * math.sin(w * tau)) ** 2)

    omega_c = math.sqrt((b * b * lam * lam + math.sqrt(b**4 * lam**4 + 4.0 * lam * lam)) / 2.0)
    cut = 50.0 * max(omega_c, 1.0 / tau) if tau > 0 else 50.0 * omega_c
    body, _ = integrate.quad(inv_h, 0.0, cut, points=[omega_c], limit=2000, epsabs=1e-15, epsrel=1e-13)
    tail, _ = integrate.quad(inv_h, cut, math.inf, limit=200, epsabs=1e-15, epsrel=1e-12)
    return (body + tail) / math.pi


def mode_closed_form(lam: np.ndarray, tau: float) -> np.ndarray:
    return np.cos(tau * lam) / (2.0 * lam * (1.0 - np.sin(tau * lam)))


def euler_maruyama_moments(lam: np.ndarray, dt: float, delay: int, burn: int, meas: int) -> tuple[float, float]:
    """Mean and standard deviation of one trajectory's dispersion estimate
    under ``x[k+1] = x[k] - dt L x[k-delay] + sqrt(dt) xi[k]`` from a zero
    state and zero pre-history, averaged over steps ``burn+1 .. burn+meas``.

    Each nonzero mode evolves on its own, driven by unit white noise: with
    impulse response ``h``, ``Var x[k] = dt sum_{j<k} h[j]^2``.  The time
    average of ``y^2`` has variance ``(2/M^2) sum_{k,l} gamma(k-l)^2`` with
    the stationary autocovariance ``gamma(l) = dt sum_j h[j] h[j+l]``.  At a
    step of tau/20 this mean lies a few per cent above the continuous closed
    form, which is as far as several standard errors.
    """
    total = burn + meas
    a = lam * dt
    h = np.ones((total, lam.size))
    for k in range(delay, total - 1):
        h[k + 1] = h[k] - a * h[k - delay]
    mean = float((dt * np.cumsum(h * h, axis=0))[burn:].sum(axis=1).mean())
    nfft = 1 << (2 * total - 1).bit_length()
    spectrum = np.fft.rfft(h, nfft, axis=0)
    gamma = dt * np.fft.irfft(spectrum * spectrum.conj(), nfft, axis=0)[:meas]
    lags = np.arange(meas)
    pairs = (meas - lags) * np.where(lags == 0, 1.0, 2.0)
    return mean, math.sqrt(2.0 * float(pairs @ (gamma**2).sum(axis=1))) / meas


class Checker:
    """Validates op outputs; reference spectra and integrals are computed once."""

    def __init__(self):
        self._spectra: dict[int, _Spectrum] = {}
        self._so_cache: dict[tuple, np.ndarray] = {}

    def spectrum(self, g: Graph) -> _Spectrum:
        if id(g) not in self._spectra:
            self._spectra[id(g)] = _Spectrum(g)
        return self._spectra[id(g)]

    def check(self, spec: dict, text: str) -> str | None:
        try:
            out = json.loads(text)
            return getattr(self, "_" + spec["kind"].replace("-", "_"))(spec, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{spec['kind']}: malformed output ({type(exc).__name__}: {exc})"

    def _links(self, g: Graph, out: dict) -> str | None:
        if out["links"] != np.column_stack([g.i, g.j]).tolist():
            return "link list differs from the canonical edge order"
        return None

    def _centrality(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        want = sp.indices(spec["structure"], spec["tau"])
        err = _report_check(out, want, f"centrality {spec['structure']}")
        if err is None and spec["structure"] in ("measurement", "comm-channel"):
            err = self._links(spec["graph"], out)
        return err or _close(out["tau_max"], sp.tau_max, "tau_max")

    def _rank(self, spec: dict, out: dict) -> str | None:
        want = self.spectrum(spec["graph"]).indices(spec["structure"], spec["tau"])
        return _ranking_consistent(out["ranking"], out["tie_groups"], want, "rank")

    def _sensitivity(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        want = sp.sensitivity(spec["structure"], spec["tau"])
        return _close(out["kappa"], want, f"kappa {spec['structure']}") or self._links(spec["graph"], out)

    def _perf(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        return _close(out["rho_ss"], mode_closed_form(sp.lam, spec["tau"]).sum(), "rho_ss")

    def _stability(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        g = spec["graph"]
        if (out["stable"], out["n"], out["num_edges"]) != (True, g.n, g.m):
            return "stability verdict or graph size differs"
        return _close(out["tau_max"], sp.tau_max, "tau_max") or _close(
            out["margin"], sp.tau_max - spec["tau"], "margin"
        )

    def _sweep_tau(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        series = [sp.indices(spec["structure"], float(t)) for t in spec["taus"]]
        if len(out["reports"]) != len(series):
            return "sweep-tau: wrong number of reports"
        for k, (report, want) in enumerate(zip(out["reports"], series)):
            err = _report_check(report, want, f"sweep-tau point {k}")
            if err:
                return err
        got = [tuple(f) for f in out["rank_changes"]]
        want_flips = reference_flips(series)
        if got != want_flips:
            extra = sorted(set(got) - set(want_flips))[:3]
            missing = sorted(set(want_flips) - set(got))[:3]
            return (f"sweep-tau: flip log differs ({len(got)} vs {len(want_flips)} reference;"
                    f" extra {extra}, missing {missing})")
        return None

    def _sweep_scale(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        if len(out["reports"]) != len(spec["alphas"]):
            return "sweep-scale: wrong number of reports"
        for k, (report, alpha) in enumerate(zip(out["reports"], spec["alphas"])):
            err = _report_check(report, sp.indices(spec["structure"], spec["tau"], float(alpha)),
                                f"sweep-scale alpha {k}")
            if err:
                return err
        baseline = out["baseline"]
        err = _report_check(baseline, sp.indices(spec["structure"], 0.0), "sweep-scale baseline")
        if err:
            return err
        if out["matches_baseline"] != [r["ranking"] == baseline["ranking"] for r in out["reports"]]:
            return "sweep-scale: matches_baseline disagrees with the reported rankings"
        return None

    def _second_order(self, spec: dict, out: dict) -> str | None:
        sp = self.spectrum(spec["graph"])
        key = (id(spec["graph"]), spec["tau"], spec["b"])
        if key not in self._so_cache:
            f = np.array([second_order_mode(float(lam), spec["tau"], spec["b"]) for lam in sp.lam])
            self._so_cache[key] = sp.q2 @ f
        return _report_check(out, self._so_cache[key], "second-order")

    def _simulate(self, spec: dict, out: dict) -> str | None:
        dt = spec["dt"]
        mean, sd = euler_maruyama_moments(self.spectrum(spec["graph"]).lam, dt, round(spec["tau"] / dt),
                                          round(spec["burn_in"] / dt), round(spec["horizon"] / dt))
        se = sd / math.sqrt(spec["traj"])
        got = out["std_err"]
        if not (isinstance(got, float) and se / 10.0 < got < 10.0 * se):
            return f"standard error {got!r} is not within a factor 10 of the estimator's {se:.6g}"
        if abs(out["rho_hat"] - mean) > MC_STANDARD_ERRORS * se:
            return (f"rho_hat {out['rho_hat']:.6g} is {abs(out['rho_hat'] - mean) / se:.1f}"
                    f" standard errors from {mean:.6g}")
        if out["effective_samples"] != round(spec["horizon"] / dt) * spec["traj"]:
            return "effective sample count differs from horizon/dt x trajectories"
        return _close(sum(out["per_node_var"]), out["rho_hat"], "sum of per-node variances")
