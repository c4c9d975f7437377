"""Hamiltonian ray flow with billiard reflections and the longest-ray functional.

The flow is generated by H(x, xi) = (xi . A(x) xi) / nu(x) - 1 on the
characteristic set {H = 0}; in the Euclidean exterior this moves at speed 2.
Rays reflect specularly (in the metric sense) off star-shaped obstacles.

The tracer is event driven.  Outside the perturbation disk
|x| < support_radius the flow is a straight line at speed 2, and a ray flies
along it exactly to its next event: entering the disk (a line-circle root),
the first obstacle impact, or escape, when no event is left.  Only rays
inside the disk take fixed-step RK4 steps.  Each stage makes one gradient
call for nu that also writes nu, and one for A that also writes A; where the
coefficient bounds pin A = I (A_min == A_max == 1) it skips the A call.  A
step combines its stages in place, and when its cubic Hermite interpolant is
searched for an impact, the interpolant's start slope is the first stage's.
The stepping rays are held as compact arrays from step to step; only a step
on which a ray leaves the disk or the ball, meets an obstacle or runs over
the time budget writes rays back to the batch and recompacts the rest.
One impact locator serves both.  It samples the obstacle's level function
along the path (the line, or the step's cubic Hermite interpolant) and
bisects the first interval from a positive sample to a non-positive one.  A
short chord can hide between two positive samples, so an interval is first
searched for its level minimum by golden section when both its ends are
positive, one of them is a local minimum of the ray's samples and the lower
is below twice the interval's chord; a minimum at or below -1e-9 brackets
an impact.  The impacts of a flight or a step are reflected in one array
update per obstacle, and an impact whose metric cosine is at or below the
glancing threshold ends its ray there instead (censored).
The longest-ray length of a ball B(0, R) is the supremum over sampled
phase-space starting points of the last time the ray is inside the ball.  A
refinement grid's radii are clipped to [1e-9, R] and kept once each, so no
grid repeats a starting state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np

from .geometry import CoefficientField, Obstacle, TruncationGeometry, boundary_normal, signed_distance
from .util import require_positive


class Termination(enum.Enum):
    ESCAPED = "escaped"
    TRAPPED_BUDGET_EXCEEDED = "trapped_budget_exceeded"
    GLANCING_FLAGGED = "glancing_flagged"


class TrappingSuspectedError(Exception):
    """Sampled rays exhausted the time budget; the flow may be trapping."""


@dataclass(frozen=True)
class PhasePoint:
    x: np.ndarray
    xi: np.ndarray

    def state(self):
        return np.concatenate([np.asarray(self.x, float), np.asarray(self.xi, float)])


@dataclass
class Trajectory:
    times: np.ndarray          # (n,)
    states: np.ndarray         # (n, 4) rows (x1, x2, xi1, xi2)
    reflections: list          # impact points, each (x1, x2)
    termination: Termination


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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} = {getattr(self, f.name)} is not finite")
        for name in ("step_size", "max_time_budget", "glancing_threshold"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("grid_pos_r", "grid_pos_theta", "grid_dir"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if self.refine_points < 2:
            raise ValueError("refine_points must be >= 2: a refined grid spans the old spacing")


# ---------------------------------------------------------------------------
# Hamiltonian and vector field


def _quad(A, xi):
    """xi . A xi for symmetric A, from its components a11, a12, a22."""
    p, q = xi[..., 0], xi[..., 1]
    return A[..., 0, 0] * p * p + 2.0 * A[..., 0, 1] * p * q + A[..., 1, 1] * q * q


def _ham(coeffs, states):
    x, xi = states[..., :2], states[..., 2:]
    return _quad(coeffs.eval_A(x), xi) / coeffs.eval_nu(x) - 1.0


def _rhs(coeffs, states):
    x, p, q = states[..., :2], states[..., 2], states[..., 3]
    nu = np.empty(states.shape[:-1])
    gnu = coeffs.eval_grad_nu(x, nu)     # (..., 2), and nu(x) written into nu
    if coeffs.A_min == coeffs.A_max == 1.0:
        # A = I: the general formula below with Ap = p, Aq = q and dq = 0,
        # written one column at a time (a broadcast over the last axis costs
        # several times more)
        out = np.empty(states.shape)
        for j, v in enumerate((p, q)):
            np.divide(np.multiply(2.0, v, out=out[..., j]), nu, out=out[..., j])
        s = p * p
        s += q * q
        s /= nu
        s /= nu
        np.multiply(s, gnu[..., 0], out=out[..., 2])
        np.multiply(s, gnu[..., 1], out=out[..., 3])
        return out
    A = np.empty(states.shape[:-1] + (2, 2))
    gA = coeffs.eval_grad_A(x, A)        # (..., 2, 2, 2), and A(x) written into A
    Ap = A[..., 0, 0] * p + A[..., 0, 1] * q
    Aq = A[..., 0, 1] * p + A[..., 1, 1] * q
    out = np.empty(states.shape)
    out[..., 0] = 2.0 * Ap / nu
    out[..., 1] = 2.0 * Aq / nu
    # -dH/dx_m = -(xi.dA_m.xi)/nu + q dnu_m / nu^2, with q = xi.A.xi
    pp, pq, qq = (p * p)[..., None], (2.0 * p * q)[..., None], (q * q)[..., None]
    dq = gA[..., 0, 0, :] * pp + gA[..., 0, 1, :] * pq + gA[..., 1, 1, :] * qq
    out[..., 2:] = (((p * Ap + q * Aq) / nu) / nu)[..., None] * gnu - dq / nu[..., None]
    return out


def hamiltonian(coeffs: CoefficientField, p: PhasePoint) -> float:
    """(xi . A(x) xi)/nu(x) - 1; zero on the characteristic set."""
    return float(_ham(coeffs, p.state()[None, :])[0])


def unit_covector(coeffs: CoefficientField, x, direction):
    """Scale a Euclidean direction onto the characteristic set: xi.A xi = nu."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    q = _quad(coeffs.eval_A(x), d)
    return d * np.sqrt(coeffs.eval_nu(x) / q)[..., None]


# ---------------------------------------------------------------------------
# reflection


def _reflect_state(coeffs, obstacle, x, xi):
    """Metric-specular reflection of the covectors xi (..., 2) at the boundary
    points x (..., 2), and the metric cosine of each impact.

    The outgoing covector is xi - 2 (<xi,n>_G / <n,n>_G) n with n the Euclidean
    unit conormal and <a,b>_G = a.A(x) b / nu(x).  This is the unique involution
    conserving the Hamiltonian and the Euclidean tangential momentum.  The
    cosine is <xi,n>_G / (|xi|_G |n|_G).
    """
    n = boundary_normal(obstacle, x)
    A = coeffs.eval_A(x)
    # stacked matmuls make per point the BLAS calls a single point makes, so
    # a batch reflects bit for bit as its points one at a time
    xiA, nA = xi[..., None, :] @ A, n[..., None, :] @ A
    xiAn, nAn, xiAxi = ((u @ v[..., None])[..., 0, 0] for u, v in ((xiA, n), (nA, n), (xiA, xi)))
    cosang = xiAn / np.sqrt(np.maximum(nAn * xiAxi, 1e-300))
    return xi - (2.0 * (xiAn / nAn))[..., None] * n, cosang


# ---------------------------------------------------------------------------
# integration engine: RK4 inside the perturbation


_EPS_EVENT = 1e-9     # level-function value that arms a ray after a reflection
_N_BISECT = 48        # bisection passes per located impact
_SAMPLE_CHUNK = 2**18  # level samples held in memory at once, give or take a ray's
_INV_PHI = 0.5 * (np.sqrt(5.0) - 1.0)


def _rk4_step(coeffs, states, dt, k1=None):
    """One classical RK4 step of the rows ``states``, which it leaves as they
    are; ``k1`` is the first stage's slope _rhs(coeffs, states) if the caller
    has it.  The stages are combined in place, in the order of
    states + (dt/6) (k1 + 2 k2 + 2 k3 + k4), so the step keeps its bits."""
    if k1 is None:
        k1 = _rhs(coeffs, states)
    y = np.multiply(0.5 * dt, k1)
    y += states
    k2 = _rhs(coeffs, y)
    np.multiply(0.5 * dt, k2, out=y)
    y += states
    k3 = _rhs(coeffs, y)
    np.multiply(dt, k3, out=y)
    y += states
    k4 = _rhs(coeffs, y)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += states
    return k2


def _min_sdf(obstacles, x):
    return np.min([signed_distance(ob, x) for ob in obstacles], axis=0)


def _line_circle(x, v, r):
    """Roots tau_in <= tau_out of |x + tau v| = r; NaN where the line misses."""
    a = np.sum(v * v, axis=-1)
    b = np.sum(x * v, axis=-1)
    disc = b * b - a * (np.sum(x * x, axis=-1) - r * r)
    s = np.sqrt(np.where(disc > 0.0, disc, np.nan))
    return (-b - s) / a, (-b + s) / a


def _segment_ball_exit(x0, x1, R):
    """Crossing fraction of the straight segment x0 -> x1 with |x| = R (exit)."""
    _, tau = _line_circle(x0, x1 - x0, R)
    return np.clip(np.nan_to_num(tau), 0.0, 1.0)


# ---------------------------------------------------------------------------
# impact location: an obstacle's level function along a path, one tau per ray


def _level(ob, path):
    return lambda tau: signed_distance(ob, path(tau))


def _level_min(level, a, b):
    """(tau, level) at the minimum of ``level`` on each [a, b], by golden section;
    the interior point a pass keeps is reused, so each pass evaluates once."""
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = level(c), level(d)
    for _ in range(_N_BISECT - 1):
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx = level(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    left = fc < fd
    tau = 0.5 * (np.where(left, a, c) + np.where(left, d, b))
    return tau, level(tau)


def _bisect(level, a, b):
    """Crossing of ``level`` from positive at a to non-positive at b."""
    for _ in range(_N_BISECT):
        m = 0.5 * (a + b)
        inside = level(m) <= 0.0
        a, b = np.where(inside, a, m), np.where(inside, m, b)
    return 0.5 * (a + b)


def _hermite(s0, s1, f0, f1, dt):
    """The cubic Hermite interpolant of the RK4 steps s0 -> s1 with end slopes
    f0, f1 (Hairer, Norsett & Wanner, Solving ODEs I, II.6): ``path(idx, cols)``
    maps one time in [0, dt] per step of ``idx`` to those state columns."""
    def path(idx, cols=slice(0, 2)):
        a, g0, g1 = s0[idx, cols], dt * f0[idx, cols], dt * f1[idx, cols]
        d = s1[idx, cols] - a
        c2, c3 = 3.0 * d - 2.0 * g0 - g1, g0 + g1 - 2.0 * d

        def at(tau):
            u = (tau / dt)[:, None]
            return a + u * (g0 + u * (c2 + u * c3))
        return at
    return path


def _impacts(obstacles, path, windows, armed, dt):
    """First impact time of each ray on its path and the obstacle hit; inf
    where there is none.

    ``path(idx)`` maps one time per ray of ``idx`` to positions, and obstacle
    j can be met only at times in ``windows[j] = (lo, hi)``.  Its level
    function is sampled at the times ``k * dt`` (k integer) from the ray's
    start that the window needs, the last clipped to hi: on a line, where an
    RK4 march from the start would stand, and on an RK4 step its two ends.
    The grid is anchored at the ray, not at the window, so that it does not
    land on the closest approach of every line and catch exactly tangent
    rays.  The first interval from a positive sample to a non-positive one
    after the ray is armed (a sample above _EPS_EVENT, or ``armed`` on entry)
    is bisected.  A chord shorter than the spacing can fall between samples,
    so an armed interval is searched for its level minimum by golden section
    first when both its ends are positive, one of them is a local minimum of
    the ray's samples (a missing neighbour counts as +inf) and the lower is
    below twice the interval's chord: a minimum at or below -_EPS_EVENT
    brackets an impact, shallower (tangent) dips miss.
    """
    tau_hit, which = np.full(len(armed), np.inf), np.zeros(len(armed), dtype=int)
    for j, (ob, (lo, hi)) in enumerate(zip(obstacles, windows)):
        rays = np.nonzero(lo < hi)[0]
        if not len(rays):
            continue
        n = np.ceil(hi[rays] / dt) - np.floor(lo[rays] / dt) + 1
        part = (np.cumsum(n) - n) // _SAMPLE_CHUNK   # rays whose samples start in one chunk
        brackets = []
        for sel in np.split(rays, np.flatnonzero(np.diff(part)) + 1):
            k0 = np.floor(lo[sel] / dt)
            n = (np.ceil(hi[sel] / dt) - k0).astype(int) + 1
            start = np.cumsum(n) - n
            owner = np.repeat(np.arange(len(sel)), n)
            k = np.arange(n.sum()) - start[owner]
            tau = np.minimum((k0[owner] + k) * dt, hi[sel][owner])
            pos = path(sel[owner])(tau)
            f = signed_distance(ob, pos)
            idx = np.arange(len(f))
            arm_at = np.minimum.reduceat(np.where(f > _EPS_EVENT, idx, len(f)), start)
            arm_at[armed[sel]] = -1
            # sample i > 0 of a ray stands for its interval (i - 1, i)
            live = (k >= 1) & (idx > arm_at[owner])
            f_prev = np.where(k >= 1, np.roll(f, 1), np.inf)
            f_next = np.where(k < n[owner] - 1, np.roll(f, -1), np.inf)
            low = (f <= f_prev) & (f <= f_next)
            lower = np.minimum(f_prev, f)
            chord = np.hypot(*(pos - np.roll(pos, 1, axis=0)).T)
            event = live & (f_prev > 0.0) & (f <= 0.0)
            end = tau.copy()     # bracket [tau[i - 1], end[i]] of an event at i
            dip = np.nonzero(live & (lower > 0.0) & (low | np.roll(low, 1))
                             & (lower < 2.0 * chord))[0]
            if len(dip):
                level = _level(ob, path(sel[owner[dip]]))
                end[dip], f_min = _level_min(level, tau[dip - 1], tau[dip])
                event[dip] = f_min <= -_EPS_EVENT
            first = np.minimum.reduceat(np.where(event, idx, len(f)), start)
            hit = first < len(f)
            if np.any(hit):
                brackets.append((sel[hit], tau[first[hit] - 1], end[first[hit]]))
        if not brackets:
            continue
        sel, a, b = (np.concatenate(z) for z in zip(*brackets))
        tau = _bisect(_level(ob, path(sel)), a, b)
        first = tau < tau_hit[sel]
        tau_hit[sel[first]] = tau[first]
        which[sel[first]] = j
    return tau_hit, which


class _Batch:
    """The rays of one ``_integrate_batch`` call, which are also its result:
    per ray ``termination`` (-1 running, 0 escaped, 1 budget, 2 glancing),
    ``t_exit`` (last exit from B(0, R_track), 0 if none), and ``t`` and
    ``states``, final once the ray ends: an ended ray is never moved again."""

    def __init__(self, coeffs, obstacles, states, cfg, R_track, escape_radius, record):
        self.coeffs, self.obstacles, self.cfg = coeffs, obstacles, cfg
        self.R_track, self.escape_radius, self.record = R_track, escape_radius, record
        # the 720-sample max of rho is within 1e-5 relative of the true max
        # for the smooth curves accepted here, well inside the 1 % margin
        self.reach = [(np.asarray(ob.center, float), 1.01 * ob.max_radius)
                      for ob in obstacles]
        n = len(states)
        self.t_exit = np.zeros(n)
        self.termination = np.full(n, -1, dtype=int)
        self.states = states.copy()
        self.t = np.zeros(n)
        self.inside = np.hypot(states[:, 0], states[:, 1]) < coeffs.support_radius
        # event latch: armed once clear of the boundary, disarmed only by a
        # reflection, so crossings that land numerically on the curve still fire
        self.armed = (_min_sdf(obstacles, states[:, :2]) > _EPS_EVENT if obstacles
                      else np.ones(n, dtype=bool))

    def _reflect(self, ids, which):
        """Reflect and disarm the rays ``ids`` at their impacts on the
        obstacles ``which``; a glancing impact (|metric cosine| at or
        below the threshold) ends its ray there instead (censored)."""
        self.armed[ids] = False
        for j, ob in enumerate(self.obstacles):
            at = which == j
            if not at.any():
                continue
            i = ids[at]
            xi, cosang = _reflect_state(self.coeffs, ob, self.states[i, :2], self.states[i, 2:])
            ok = np.abs(cosang) > self.cfg.glancing_threshold
            self.termination[i[~ok]] = 2
            self.states[i[ok], 2:] = xi[ok]
            if self.record is not None:
                self.record["reflections"].extend(self.states[i[ok], :2])

    def fly(self, ids):
        """Move each ray of ``ids`` along its straight line to its next event.

        Events: entering the support disk, the first obstacle impact, and
        escape when neither lies ahead, which ends the ray on the circle
        |x| = escape_radius moving outward.  An event later than the time
        budget ends the ray at the budget instead.  The last exit from
        B(0, R_track) on the way is recorded.
        """
        if not len(ids):
            return
        cfg, S = self.cfg, self.coeffs.support_radius
        x, xi = self.states[ids, :2], self.states[ids, 2:]
        v, t0 = 2.0 * xi, self.t[ids]
        tau_entry = np.full(len(ids), np.inf)
        if S > 0.0:
            t_in, t_out = _line_circle(x, v, S)
            ahead = t_out > 0.0
            tau_entry[ahead] = np.maximum(t_in[ahead], 0.0)
        def line(idx):
            xs, vs = x[idx], v[idx]
            return lambda tau: xs + tau[:, None] * vs

        windows = [(np.maximum(lo, 0.0), np.minimum(hi, tau_entry))
                   for lo, hi in (_line_circle(x - c, v, r) for c, r in self.reach)]
        tau_hit, which = _impacts(self.obstacles, line, windows, self.armed[ids], cfg.step_size)
        tau_event = np.minimum(tau_entry, tau_hit)
        _, t_esc = _line_circle(x, v, self.escape_radius)
        t_esc = np.where(t_esc > 0.0, t_esc, 0.0)
        tau = np.where(np.isfinite(tau_event), tau_event, t_esc)
        budget = tau > cfg.max_time_budget - t0
        tau = np.where(budget, cfg.max_time_budget - t0, tau)
        _, t_ball = _line_circle(x, v, self.R_track)
        exits = (t_ball >= 0.0) & (t_ball <= tau)
        self.t_exit[ids[exits]] = t0[exits] + t_ball[exits]

        self.states[ids, :2] = x + tau[:, None] * v
        self.t[ids] = t0 + tau
        self.termination[ids[budget]] = 1
        self.termination[ids[~budget & np.isinf(tau_event)]] = 0
        entry = ~budget & np.isfinite(tau_entry) & (tau_entry <= tau_hit)
        self.inside[ids[entry]] = True
        if self.obstacles and entry.any():
            d = _min_sdf(self.obstacles, self.states[ids[entry], :2])
            self.armed[ids[entry]] |= d > _EPS_EVENT
        hit = np.nonzero(~budget & (tau_hit < tau_entry))[0]
        self._reflect(ids[hit], which[hit])
        if self.record is not None and tau[0] > 0.0:
            m = int(np.ceil(tau[0] / cfg.step_size))
            s = tau[0] * np.arange(1, m) / m
            self.record["times"].extend(t0[0] + s)
            self.record["states"].extend(np.concatenate(
                [x[0] + s[:, None] * v[0], np.tile(xi[0], (len(s), 1))], axis=1))
            self.record["times"].append(self.t[ids[0]])
            self.record["states"].append(self.states[ids[0]].copy())

    def march(self, ids):
        """RK4 steps for the rays ``ids``, all inside the support, until each
        has left it or ended; impacts are located on a step's Hermite
        interpolant and the ball exit is refined on its straight chord.

        The stepping rays' states and times are held as compact arrays that
        each step replaces.  Only a step on which a ray leaves the support,
        meets an obstacle, leaves B(0, R_track) or runs over the time budget
        takes the slow path: it records exits and budget endings, writes the
        rays that leave back to the batch and recompacts the rest."""
        coeffs, obstacles, cfg = self.coeffs, self.obstacles, self.cfg
        dt, S, R, budget = cfg.step_size, coeffs.support_radius, self.R_track, cfg.max_time_budget
        y, t = self.states[ids], self.t[ids]
        # rounding is monotone, so the latest ray's time advances as its own does
        t_top = float(t.max(initial=-np.inf))
        while len(ids):
            k1 = _rhs(coeffs, y)
            new = _rk4_step(coeffs, y, dt, k1)
            t_new = t + dt
            t_top += dt

            hit = []
            if obstacles:
                d_new = _min_sdf(obstacles, new[:, :2])
                # a step ending farther than twice its length from every curve has
                # not met one: the level changes by about the arc length at most
                chord = np.hypot(*(new[:, :2] - y[:, :2]).T)
                near = np.nonzero(self.armed[ids] & (d_new < 2.0 * chord))[0]
                if len(near):
                    # _rhs works row by row, so k1[near] is _rhs(coeffs, s0) bit for bit
                    s0, s1 = y[near], new[near]
                    path = _hermite(s0, s1, k1[near], _rhs(coeffs, s1), dt)
                    window = (np.zeros(len(near)), np.full(len(near), dt))
                    tau, which = _impacts(obstacles, path, [window] * len(obstacles),
                                          self.armed[ids[near]], dt)
                    found = np.nonzero(np.isfinite(tau))[0]
                    hit, i = near[found], ids[near[found]]
                    d_new[hit] = 0.0
                    t_new[hit] = t[hit] + tau[found]
                    self.states[i] = path(found, slice(None))(tau[found])
                    self._reflect(i, which[found])
                    new[hit] = self.states[i]
                self.armed[ids] |= d_new > _EPS_EVENT

            r_new = np.hypot(new[:, 0], new[:, 1])
            if self.record is not None:
                self.record["times"].append(t_new[0])
                self.record["states"].append(new[0].copy())
            r_top = r_new.max()
            if r_top < S and r_top <= R and t_top <= budget and not len(hit):
                y, t = new, t_new
                continue

            out = r_new > R
            if len(hit):
                out[hit] = False
            out = out.nonzero()[0]
            if len(out):
                out = out[np.hypot(y[out, 0], y[out, 1]) <= R]
                tau = _segment_ball_exit(y[out, :2], new[out, :2], R)
                self.t_exit[ids[out]] = t[out] + tau * dt
            over = t_new > budget
            # a ray that glanced on this step keeps its ending at the impact
            self.termination[ids[over & (self.termination[ids] < 0)]] = 1
            stay = (r_new < S) & (self.termination[ids] < 0)
            if not stay.all():
                leave = ids[~stay]
                self.states[leave], self.t[leave] = new[~stay], t_new[~stay]
                self.inside[leave] = r_new[~stay] < S
                ids, new, t_new = ids[stay], new[stay], t_new[stay]
            y, t = new, t_new
            t_top = float(t.max(initial=-np.inf))


def _integrate_batch(coeffs, obstacles, states, cfg: RayConfig, R_track,
                     escape_radius, record=None):
    """Advance a batch of rays to termination, tracking last exit from
    B(0, R_track); the returned ``_Batch`` is the result.

    Rays inside the perturbation disk |x| < coeffs.support_radius take fixed
    RK4 steps (see ``_Batch.march``); every other ray flies analytically along
    its straight line to its next event (see ``_Batch.fly``), so a ray that
    has no event left has escaped whatever ``escape_radius`` is: the radius
    only places its final state.  ``record``: optional dict collecting (t,
    state) rows and reflections for single-ray use; straight flights are
    sampled at spacing ``cfg.step_size`` in time.
    """
    batch = _Batch(coeffs, obstacles, states, cfg, R_track, escape_radius, record)
    active = np.arange(len(states))
    while len(active):
        batch.fly(active[~batch.inside[active]])
        active = active[batch.termination[active] < 0]
        batch.march(active[batch.inside[active]])
        active = active[batch.termination[active] < 0]
    return batch


def integrate_ray(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                  p0: PhasePoint, cfg: RayConfig) -> Trajectory:
    """Integrate a single ray to escape, budget exhaustion, or a glancing impact.

    The trajectory holds every RK4 step inside the perturbation and samples
    each straight flight at spacing ``cfg.step_size`` in time, ending at its
    event.  An escaped ray ends on the circle the longest-ray search ends it on.
    """
    if abs(hamiltonian(coeffs, p0)) > 1e-6:
        raise ValueError("initial point is not on the characteristic set")
    obstacles = _as_obstacles(obstacle)
    rec = {"times": [0.0], "states": [p0.state()], "reflections": []}
    batch = _integrate_batch(coeffs, obstacles, p0.state()[None, :], cfg, R_track=geom.R,
                             escape_radius=_escape_radius(coeffs, obstacles, geom.R), record=rec)
    return Trajectory(np.array(rec["times"]), np.array(rec["states"]),
                      rec["reflections"], list(Termination)[batch.termination[0]])


def _as_obstacles(obstacle):
    if obstacle is None:
        return ()
    return (obstacle,) if isinstance(obstacle, Obstacle) else tuple(obstacle)


# ---------------------------------------------------------------------------
# longest-ray sampling


@dataclass
class RayDiagnostics:
    n_samples: int = 0
    n_glancing: int = 0
    n_budget: int = 0
    refinement_history: list = field(default_factory=list)
    censored: list = field(default_factory=list)   # first 100 starting points that hit the budget

    @property
    def censored_fraction(self):
        return (self.n_glancing + self.n_budget) / max(self.n_samples, 1)

    @property
    def nontrapping(self):
        """The sampled verdict: no ray exhausted the time budget."""
        return self.n_budget == 0


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
        keep = _min_sdf(obstacles, pos) > 1e-9
        pos, pp = pos[keep], pp[keep]
        rr, tt = rr[keep], tt[keep]
    d_euc = np.stack([np.cos(pp), np.sin(pp)], axis=-1)
    xi = unit_covector(coeffs, pos, d_euc)
    states = np.concatenate([pos, xi], axis=-1)
    params = np.stack([rr, tt, pp], axis=-1)
    return states, params


def _seed_grid(R, cfg):
    """Radii, position angles and direction angles of the seed grid."""
    a = cfg.frame_rotation
    return (np.linspace(R / cfg.grid_pos_r, R, cfg.grid_pos_r),
            a + np.linspace(0.0, 2 * np.pi, cfg.grid_pos_theta, endpoint=False),
            a + np.linspace(0.0, 2 * np.pi, cfg.grid_dir, endpoint=False))


def _escape_radius(coeffs, obstacles, R):
    """The circle escaped rays end on: clear of B(0, R), the perturbation and
    every obstacle."""
    return max(R, coeffs.support_radius, *(ob.outer_reach for ob in obstacles)) + 0.25


def _eval_rays(coeffs, obstacles, states, cfg, R):
    return _integrate_batch(coeffs, obstacles, states, cfg, R_track=R,
                            escape_radius=_escape_radius(coeffs, obstacles, R))


def _sweep(coeffs, obstacles, cfg, R, grid, diag):
    """Trace the rays of the tensor grid ``grid`` (radii, position angles,
    direction angles) and count them into ``diag``.  Returns the longest
    escape as ``(t_exit, state, grid point)``, or ``(-inf, None, None)`` when
    every ray was censored.  A grid with no starting point outside the
    obstacles is an error."""
    states, params = _build_states(coeffs, obstacles, *grid)
    if not len(states):
        raise ValueError(f"R = {R}: no starting point of the ray grid lies outside the obstacles")
    res = _eval_rays(coeffs, obstacles, states, cfg, R)
    ok = res.termination == 0
    budget = np.nonzero(res.termination == 1)[0]
    diag.n_samples += len(states)
    diag.n_glancing += int(np.sum(res.termination == 2))
    diag.n_budget += len(budget)
    diag.censored += [PhasePoint(states[i, :2].copy(), states[i, 2:].copy())
                      for i in budget[:100 - len(diag.censored)]]
    if not np.any(ok):
        return -np.inf, None, None
    i = int(np.argmax(np.where(ok, res.t_exit, -np.inf)))
    return float(res.t_exit[i]), states[i], params[i]


def longest_ray_length(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                       R: float, cfg: RayConfig, allow_censored: bool = False):
    """Sampled maximum of the last-exit time over the ball's phase space.

    A polar position grid times a uniform direction grid seeds the search; the
    maximizer neighborhood is refined ``cfg.refinement_rounds`` times, keeping
    the incumbent so the estimate is monotone nondecreasing.  Glancing and
    budget-exhausted rays are censored: excluded from the maximum and reported.
    """
    require_positive("R", R)
    if R < coeffs.support_radius:
        raise ValueError("ray ball must contain the coefficient perturbation")
    obstacles = _as_obstacles(obstacle)
    diag = RayDiagnostics()
    grid = _seed_grid(R, cfg)
    best, best_state, best_param = _sweep(coeffs, obstacles, cfg, R, grid, diag)
    spacings = np.array([grid[0][1] - grid[0][0] if cfg.grid_pos_r > 1 else R,
                         2 * np.pi / cfg.grid_pos_theta,
                         2 * np.pi / cfg.grid_dir])
    for _ in range(cfg.refinement_rounds):
        if best_param is None:
            break
        m = cfg.refine_points
        rs = np.unique(np.clip(np.linspace(best_param[0] - spacings[0],
                                           best_param[0] + spacings[0], m), 1e-9, R))
        ts = np.linspace(best_param[1] - spacings[1], best_param[1] + spacings[1], m)
        ps = np.linspace(best_param[2] - spacings[2], best_param[2] + spacings[2], m)
        cand, cand_state, cand_param = _sweep(coeffs, obstacles, cfg, R, (rs, ts, ps), diag)
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


def classify_trapping(coeffs: CoefficientField, obstacle, geom: TruncationGeometry,
                      cfg: RayConfig) -> RayDiagnostics:
    """Sampled nontrapping verdict at the configured budget: the seed sweep of
    :func:`longest_ray_length` at R = ``geom.R``, its censored rays listed."""
    diag = RayDiagnostics()
    _sweep(coeffs, _as_obstacles(obstacle), cfg, geom.R, _seed_grid(geom.R, cfg), diag)
    return diag
