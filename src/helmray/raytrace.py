"""Hamiltonian ray flow with billiard reflections and the longest-ray functional.

The flow is generated by H(x, xi) = (xi . A(x) xi) / nu(x) - 1 on the
characteristic set {H = 0}; in the Euclidean exterior this moves at speed 2.
Rays reflect specularly (in the metric sense) off star-shaped obstacles and are
integrated with fixed-step RK4 plus bisection event location.  The longest-ray
length of a ball B(0, R) is the supremum over sampled phase-space starting
points of the last time the ray is inside the ball.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import CoefficientField, Obstacle, TruncationGeometry, boundary_normal, signed_distance


class Termination(enum.Enum):
    ESCAPED = "escaped"
    TRAPPED_BUDGET_EXCEEDED = "trapped_budget_exceeded"
    GLANCING_FLAGGED = "glancing_flagged"


class GlancingImpact(Exception):
    """Raised when a boundary impact is too tangential to reflect reliably."""


class TrappedTrajectoryError(Exception):
    """A quantity is undefined because the trajectory never escaped."""


class TrappingSuspectedError(Exception):
    """Sampled rays exhausted the time budget; the flow may be trapping."""


@dataclass(frozen=True)
class PhasePoint:
    x: np.ndarray
    xi: np.ndarray

    def state(self):
        return np.concatenate([np.asarray(self.x, float), np.asarray(self.xi, float)])


@dataclass
class ReflectionEvent:
    time: float
    point: np.ndarray
    xi_in: np.ndarray
    xi_out: np.ndarray


@dataclass
class Trajectory:
    times: np.ndarray          # (n,)
    states: np.ndarray         # (n, 4) rows (x1, x2, xi1, xi2)
    reflections: list
    termination: Termination

    @property
    def samples(self):
        return [(float(t), PhasePoint(s[:2].copy(), s[2:].copy()))
                for t, s in zip(self.times, self.states)]


@dataclass(frozen=True)
class RayConfig:
    step_size: float = 2e-3
    max_time_budget: float = 25.0
    glancing_threshold: float = 1e-3
    grid_pos_r: int = 10
    grid_pos_theta: int = 16
    grid_dir: int = 64
    refinement_rounds: int = 2
    refine_points: int = 13
    frame_rotation: float = 0.0

    def __post_init__(self):
        for name in ("step_size", "max_time_budget", "glancing_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("grid_pos_r", "grid_pos_theta", "grid_dir", "refine_points"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


# ---------------------------------------------------------------------------
# Hamiltonian and vector field


def _ham(coeffs, states):
    x, xi = states[..., :2], states[..., 2:]
    A = coeffs.eval_A(x)
    nu = coeffs.eval_nu(x)
    q = np.einsum("...i,...ij,...j->...", xi, A, xi)
    return q / nu - 1.0


def _rhs(coeffs, states):
    x, xi = states[..., :2], states[..., 2:]
    A = coeffs.eval_A(x)
    nu = coeffs.eval_nu(x)
    gA = coeffs.eval_grad_A(x)       # (..., 2, 2, 2)
    gnu = coeffs.eval_grad_nu(x)     # (..., 2)
    q = np.einsum("...i,...ij,...j->...", xi, A, xi)
    dx = 2.0 * np.einsum("...ij,...j->...i", A, xi) / nu[..., None]
    # -dH/dx_m = -(xi.dA_m.xi)/nu + q dnu_m / nu^2
    dq = np.einsum("...i,...ijm,...j->...m", xi, gA, xi)
    dxi = -dq / nu[..., None] + (q / nu**2)[..., None] * gnu
    return np.concatenate([dx, dxi], axis=-1)


def hamiltonian(coeffs: CoefficientField, p: PhasePoint) -> float:
    """(xi . A(x) xi)/nu(x) - 1; zero on the characteristic set."""
    return float(_ham(coeffs, p.state()[None, :])[0])


def hamiltonian_vector_field(coeffs: CoefficientField, p: PhasePoint):
    """Return (dx/ds, dxi/ds) evaluated from the analytic coefficient gradients."""
    out = _rhs(coeffs, p.state()[None, :])[0]
    return out[:2].copy(), out[2:].copy()


def unit_covector(coeffs: CoefficientField, x, direction):
    """Scale a Euclidean direction onto the characteristic set: xi.A xi = nu."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    A = coeffs.eval_A(x)
    nu = coeffs.eval_nu(x)
    q = np.einsum("...i,...ij,...j->...", d, A, d)
    return d * np.sqrt(nu / q)[..., None]


# ---------------------------------------------------------------------------
# reflection


def _reflect_state(coeffs, obstacle, x, xi, glancing_threshold):
    n = boundary_normal(obstacle, x, tol=1e-6)
    A = coeffs.eval_A(x)
    xiAn = float(xi @ A @ n)
    nAn = float(n @ A @ n)
    xiAxi = float(xi @ A @ xi)
    cosang = xiAn / np.sqrt(max(nAn * xiAxi, 1e-300))
    if abs(cosang) <= glancing_threshold:
        raise GlancingImpact(f"|metric cosine| = {abs(cosang):.2e} at impact")
    return xi - 2.0 * (xiAn / nAn) * n


def reflect(coeffs: CoefficientField, obstacle: Obstacle, p: PhasePoint,
            glancing_threshold: float = 0.0) -> PhasePoint:
    """Metric-specular reflection off the obstacle boundary.

    The outgoing covector is xi - 2 (<xi,n>_G / <n,n>_G) n with n the Euclidean
    unit conormal and <a,b>_G = a.A(x) b / nu(x).  This is the unique involution
    conserving the Hamiltonian and the Euclidean tangential momentum.
    """
    xi_out = _reflect_state(coeffs, obstacle, np.asarray(p.x, float),
                            np.asarray(p.xi, float), glancing_threshold)
    return PhasePoint(np.asarray(p.x, float).copy(), xi_out)


# ---------------------------------------------------------------------------
# integration engine


def _rk4_step(coeffs, states, dt):
    k1 = _rhs(coeffs, states)
    k2 = _rhs(coeffs, states + 0.5 * dt * k1)
    k3 = _rhs(coeffs, states + 0.5 * dt * k2)
    k4 = _rhs(coeffs, states + dt * k3)
    return states + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _min_sdf(obstacles, x):
    vals = [signed_distance(ob, x) for ob in obstacles]
    if len(vals) == 1:
        return vals[0], np.zeros(x.shape[:-1], dtype=int)
    stack = np.stack(vals, axis=0)
    which = np.argmin(stack, axis=0)
    return np.min(stack, axis=0), which


def _locate_impacts(coeffs, obstacles, states0, dt, hit_idx, n_bisect=48):
    """Bisect the step fraction at which each flagged ray meets its obstacle."""
    sub = states0[hit_idx]
    lo = np.zeros(len(hit_idx))
    hi = np.ones(len(hit_idx))
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        trial = _rk4_varstep(coeffs, sub, mid * dt)
        d, _ = _min_sdf(obstacles, trial[:, :2])
        inside = d <= 0.0
        hi = np.where(inside, mid, hi)
        lo = np.where(inside, lo, mid)
    frac = 0.5 * (lo + hi)
    final = _rk4_varstep(coeffs, sub, frac * dt)
    d, which = _min_sdf(obstacles, final[:, :2])
    return frac, final, which


def _rk4_varstep(coeffs, states, dts):
    dts = np.asarray(dts)[:, None]
    k1 = _rhs(coeffs, states)
    k2 = _rhs(coeffs, states + 0.5 * dts * k1)
    k3 = _rhs(coeffs, states + 0.5 * dts * k2)
    k4 = _rhs(coeffs, states + dts * k3)
    return states + (dts / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _segment_ball_exit(x0, x1, R):
    """Crossing fraction of the straight segment x0 -> x1 with |x| = R (exit)."""
    d = x1 - x0
    a = np.sum(d * d, axis=-1)
    b = 2.0 * np.sum(x0 * d, axis=-1)
    c = np.sum(x0 * x0, axis=-1) - R * R
    disc = np.sqrt(np.maximum(b * b - 4 * a * c, 0.0))
    # exit root: larger of the two
    tau = (-b + disc) / (2.0 * np.maximum(a, 1e-300))
    return np.clip(tau, 0.0, 1.0)


class _BatchResult:
    __slots__ = ("t_exit", "termination", "t_final", "state_final")

    def __init__(self, n):
        self.t_exit = np.zeros(n)
        self.termination = np.full(n, -1, dtype=int)  # 0 escaped, 1 budget, 2 glancing
        self.t_final = np.zeros(n)
        self.state_final = np.zeros((n, 4))


def _integrate_batch(coeffs, obstacles, states, cfg: RayConfig, R_track,
                     escape_radius, record=None):
    """March a batch of rays to termination, tracking last exit from B(0, R_track).

    ``record``: optional list collecting (t, state) rows for single-ray use.
    Ball-crossing times are refined on straight segments, which is exact because
    crossings of |x| = R_track happen where the coefficients are Euclidean.
    """
    n = len(states)
    res = _BatchResult(n)
    eps_event = 1e-9
    t = np.zeros(n)
    active = np.arange(n)
    states = states.copy()
    dt = cfg.step_size

    # event latch: armed once clear of the boundary, disarmed only by a
    # reflection, so crossings that land numerically on the curve still fire
    if obstacles:
        d0, _ = _min_sdf(obstacles, states[:, :2])
        armed = d0 > eps_event
    else:
        armed = np.ones(n, dtype=bool)

    while len(active):
        sub = states[active]
        new = _rk4_step(coeffs, sub, dt)
        t_new = t[active] + dt

        if obstacles:
            d_new, _ = _min_sdf(obstacles, new[:, :2])
            hit = armed[active] & (d_new <= 0.0)
        else:
            d_new = np.full(len(active), np.inf)
            hit = np.zeros(len(active), dtype=bool)

        glanced = np.zeros(len(active), dtype=bool)
        if np.any(hit):
            hit_local = np.nonzero(hit)[0]
            frac, impact_states, which = _locate_impacts(coeffs, obstacles, sub, dt, hit_local)
            for j, (loc, st, w) in enumerate(zip(hit_local, impact_states, which)):
                x_b, xi_b = st[:2], st[2:]
                t_b = t[active[loc]] + frac[j] * dt
                armed[active[loc]] = False
                try:
                    xi_out = _reflect_state(coeffs, obstacles[w], x_b, xi_b,
                                            cfg.glancing_threshold)
                except GlancingImpact:
                    glanced[loc] = True
                    new[loc] = st
                    t_new[loc] = t_b
                    continue
                if record is not None:
                    record["reflections"].append(
                        ReflectionEvent(t_b, x_b.copy(), xi_b.copy(), xi_out.copy()))
                new[loc, :2] = x_b
                new[loc, 2:] = xi_out
                t_new[loc] = t_b
                d_new[loc] = 0.0

        # ball-exit tracking on non-event segments
        x_old, x_new = sub[:, :2], new[:, :2]
        r_old = np.hypot(x_old[:, 0], x_old[:, 1])
        r_new = np.hypot(x_new[:, 0], x_new[:, 1])
        crossed_out = (r_old <= R_track) & (r_new > R_track) & ~hit
        if np.any(crossed_out):
            idx = np.nonzero(crossed_out)[0]
            tau = _segment_ball_exit(x_old[idx], x_new[idx], R_track)
            res.t_exit[active[idx]] = t[active[idx]] + tau * (t_new[idx] - t[active[idx]])

        states[active] = new
        t[active] = t_new
        armed[active] |= d_new > eps_event

        if record is not None:
            record["times"].append(t_new[0])
            record["states"].append(new[0].copy())

        # terminations
        vel_out = np.sum(x_new * _rhs(coeffs, new)[:, :2], axis=1) > 0.0
        escaped = (r_new > escape_radius) & vel_out
        budget = t_new > cfg.max_time_budget
        done = escaped | budget | glanced
        if np.any(done):
            gsel = active[glanced]
            esel = active[escaped & ~glanced]
            bsel = active[budget & ~escaped & ~glanced]
            res.termination[esel] = 0
            res.termination[bsel] = 1
            res.termination[gsel] = 2
            for sel in (esel, bsel, gsel):
                res.t_final[sel] = t[sel]
                res.state_final[sel] = states[sel]
            active = active[~done]

    return res


def integrate_ray(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                  p0: PhasePoint, cfg: RayConfig) -> Trajectory:
    """Integrate a single ray to escape, budget exhaustion, or a glancing impact."""
    if abs(hamiltonian(coeffs, p0)) > 1e-6:
        raise ValueError("initial point is not on the characteristic set")
    obstacles = _as_obstacles(obstacle)
    rec = {"times": [0.0], "states": [p0.state()], "reflections": []}
    res = _integrate_batch(coeffs, obstacles, p0.state()[None, :], cfg,
                           R_track=geom.R, escape_radius=geom.R_ray, record=rec)
    term = [Termination.ESCAPED, Termination.TRAPPED_BUDGET_EXCEEDED,
            Termination.GLANCING_FLAGGED][res.termination[0]]
    return Trajectory(np.array(rec["times"]), np.array(rec["states"]),
                      rec["reflections"], term)


def time_in_ball(traj: Trajectory, R: float) -> float:
    """Last time the trajectory is inside the closed ball B(0, R); 0 if never.

    The crossing instant in the bracketing sample pair is refined assuming a
    straight segment, exact when the coefficients are Euclidean for |x| >= R.
    """
    if traj.termination is not Termination.ESCAPED:
        raise TrappedTrajectoryError(
            f"time in ball undefined for termination {traj.termination.value}")
    x = traj.states[:, :2]
    r = np.hypot(x[:, 0], x[:, 1])
    inside = r <= R
    if not np.any(inside):
        return 0.0
    last = int(np.max(np.nonzero(inside)[0]))
    if last == len(r) - 1:
        return float(traj.times[-1])
    tau = float(_segment_ball_exit(x[last][None, :], x[last + 1][None, :], R)[0])
    return float(traj.times[last] + tau * (traj.times[last + 1] - traj.times[last]))


def _as_obstacles(obstacle):
    if obstacle is None:
        return ()
    if isinstance(obstacle, Obstacle):
        return () if obstacle.empty else (obstacle,)
    return tuple(ob for ob in obstacle if not ob.empty)


# ---------------------------------------------------------------------------
# longest-ray sampling


@dataclass
class RayDiagnostics:
    n_samples: int = 0
    n_glancing: int = 0
    n_budget: int = 0
    refinement_history: list = field(default_factory=list)

    @property
    def censored_fraction(self):
        if self.n_samples == 0:
            return 0.0
        return (self.n_glancing + self.n_budget) / self.n_samples


@dataclass
class LongestRayResult:
    L: float
    maximizer: PhasePoint
    diagnostics: RayDiagnostics


def _build_states(coeffs, obstacles, radii, pos_angles, dir_angles):
    """Tensor grid of characteristic-set states, excluding obstacle interiors."""
    rr, tt, pp = np.meshgrid(radii, pos_angles, dir_angles, indexing="ij")
    rr, tt, pp = rr.ravel(), tt.ravel(), pp.ravel()
    pos = np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=-1)
    if obstacles:
        d, _ = _min_sdf(obstacles, pos)
        keep = d > 1e-9
        pos, pp = pos[keep], pp[keep]
        rr, tt = rr[keep], tt[keep]
    d_euc = np.stack([np.cos(pp), np.sin(pp)], axis=-1)
    xi = unit_covector(coeffs, pos, d_euc)
    states = np.concatenate([pos, xi], axis=-1)
    params = np.stack([rr, tt, pp], axis=-1)
    return states, params


def _eval_rays(coeffs, obstacles, states, cfg, R):
    # a ray is straight and free only outside the perturbation and every obstacle
    escape = max(R, coeffs.support_radius, *(ob.outer_reach for ob in obstacles)) + 0.25
    return _integrate_batch(coeffs, obstacles, states, cfg, R_track=R,
                            escape_radius=escape)


def longest_ray_length(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                       R: float, cfg: RayConfig, allow_censored: bool = False):
    """Sampled maximum of the last-exit time over the ball's phase space.

    A polar position grid times a uniform direction grid seeds the search; the
    maximizer neighborhood is refined ``cfg.refinement_rounds`` times, keeping
    the incumbent so the estimate is monotone nondecreasing.  Glancing and
    budget-exhausted rays are censored: excluded from the maximum and reported.
    """
    if R < coeffs.support_radius:
        raise ValueError("ray ball must contain the coefficient perturbation")
    obstacles = _as_obstacles(obstacle)
    diag = RayDiagnostics()

    a = cfg.frame_rotation
    radii = np.linspace(R / cfg.grid_pos_r, R, cfg.grid_pos_r)
    pos_angles = a + np.linspace(0.0, 2 * np.pi, cfg.grid_pos_theta, endpoint=False)
    dir_angles = a + np.linspace(0.0, 2 * np.pi, cfg.grid_dir, endpoint=False)

    def run(states, params):
        res = _eval_rays(coeffs, obstacles, states, cfg, R)
        ok = res.termination == 0
        diag.n_samples += len(states)
        diag.n_glancing += int(np.sum(res.termination == 2))
        diag.n_budget += int(np.sum(res.termination == 1))
        if not np.any(ok):
            return -np.inf, None, None
        i = int(np.argmax(np.where(ok, res.t_exit, -np.inf)))
        return float(res.t_exit[i]), states[i], params[i]

    best, best_state, best_param = run(*_build_states(coeffs, obstacles, radii,
                                                      pos_angles, dir_angles))
    spacings = np.array([radii[1] - radii[0] if len(radii) > 1 else R,
                         2 * np.pi / cfg.grid_pos_theta,
                         2 * np.pi / cfg.grid_dir])
    for _ in range(cfg.refinement_rounds):
        if best_param is None:
            break
        m = cfg.refine_points
        rs = np.clip(np.linspace(best_param[0] - spacings[0],
                                 best_param[0] + spacings[0], m), 1e-9, R)
        ts = np.linspace(best_param[1] - spacings[1], best_param[1] + spacings[1], m)
        ps = np.linspace(best_param[2] - spacings[2], best_param[2] + spacings[2], m)
        cand, cand_state, cand_param = run(*_build_states(coeffs, obstacles, rs, ts, ps))
        if cand > best:
            best, best_state, best_param = cand, cand_state, cand_param
        spacings = 2.0 * spacings / (m - 1)
        diag.refinement_history.append(best)

    if diag.n_budget and not allow_censored:
        raise TrappingSuspectedError(
            f"{diag.n_budget} of {diag.n_samples} sampled rays exceeded the time "
            "budget; the flow may be trapping (pass allow_censored to proceed)")
    if best_state is None:
        raise TrappingSuspectedError("all sampled rays were censored")
    maximizer = PhasePoint(best_state[:2].copy(), best_state[2:].copy())
    return LongestRayResult(L=best, maximizer=maximizer, diagnostics=diag)


@dataclass
class TrappingReport:
    nontrapping: bool
    n_samples: int
    n_budget: int
    n_glancing: int
    budget: float
    censored_initial_conditions: list  # up to 100 phase points that hit the budget


def classify_trapping(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                      cfg: RayConfig) -> TrappingReport:
    """Sampled nontrapping verdict at the configured budget; censored rays listed."""
    obstacles = _as_obstacles(obstacle)
    R = geom.R
    radii = np.linspace(R / cfg.grid_pos_r, R, cfg.grid_pos_r)
    pos_angles = cfg.frame_rotation + np.linspace(0, 2 * np.pi, cfg.grid_pos_theta,
                                                  endpoint=False)
    dir_angles = cfg.frame_rotation + np.linspace(0, 2 * np.pi, cfg.grid_dir,
                                                  endpoint=False)
    states, _ = _build_states(coeffs, obstacles, radii, pos_angles, dir_angles)
    res = _eval_rays(coeffs, obstacles, states, cfg, R)
    budget_idx = np.nonzero(res.termination == 1)[0]
    censored = [PhasePoint(states[i, :2].copy(), states[i, 2:].copy())
                for i in budget_idx[:100]]
    return TrappingReport(
        nontrapping=len(budget_idx) == 0,
        n_samples=len(states),
        n_budget=len(budget_idx),
        n_glancing=int(np.sum(res.termination == 2)),
        budget=cfg.max_time_budget,
        censored_initial_conditions=censored,
    )
