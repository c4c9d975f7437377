"""Explicit constants, the mesh-size admissibility threshold, and reference norms.

Collects every constant entering the quasioptimality theory (interpolation,
radiation-pairing continuity in closed form, H^2 regularity, coefficient bounds,
longest-ray length), evaluates the admissibility inequality

    1 >= h k^2 sqrt(1 + (hk)^2) L C_int C_H2 (1 + C_DtN)
         (nu_max/nu_min)^{1/2} (4 sqrt2/pi)
         (nu_max^{1/2} + (1 + nu_min^{1/2})/k0 + 1/(k0^2 nu_min^{1/2})),

and provides the cutoff-resolvent reference values 2^{s/2+1} L k^{s-1}/pi and
the cumulative-integration operator norm 2L/pi.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.special import ive

from .dtn import build_dtn
from .fem import (assemble, assemble_load_source, build_space, errors_vs_exact,
                  l2_norm_exact, nodal_interpolant, recovered_hessian_h2_norm, solve)
from .geometry import TruncationGeometry, identity_coefficients
from .mesh import generate_mesh
from .util import make_rng, require_positive


def compute_C_int(C_int_tilde, A_max, nu_max):
    """Weighted interpolation constant: C~ max(sqrt(A_max), sqrt(nu_max))."""
    if min(C_int_tilde, A_max, nu_max) <= 0:
        raise ValueError("inputs must be positive")
    return C_int_tilde * max(np.sqrt(A_max), np.sqrt(nu_max))


def compute_C_DtN(C_DtN_tilde, A_min, nu_min):
    """Weighted pairing constant: C~ max(1/sqrt(A_min), 1/sqrt(nu_min))."""
    if C_DtN_tilde < 0 or min(A_min, nu_min) <= 0:
        raise ValueError("need nonnegative constant and positive bounds")
    return C_DtN_tilde * max(1.0 / np.sqrt(A_min), 1.0 / np.sqrt(nu_min))


def exact_C_DtN_tilde(R, k_values):
    """Unweighted pairing constant: max over k and n of |t_n| / g_n, the norm of
    2 pi R sum t_n u_n conj(v_n) in k-norms, g_n = k I_n'(kR) / I_n(kR) (the
    H^1_k(B_R)-minimal extension of mode n, I_n(kr) e^{i n theta}, has energy
    2 pi R g_n |u_n|^2).  A lower estimate of the sup over k >= min(k_values)."""
    worst = 0.0
    for k in k_values:
        dtn, z = build_dtn(k, R), k * R
        n = np.arange(dtn.n_max + 1)
        ratio = np.abs(dtn.coefficients[dtn.n_max:]) / (k * (ive(n + 1, z) / ive(n, z) + n / z))
        if not np.all(np.isfinite(ratio)):
            raise ValueError(f"non-finite pairing ratio at kR = {z}")
        worst = max(worst, float(ratio.max()))
    return worst


@dataclass
class ConstantsLedger:
    """Every explicit constant of the error theory, with per-constant provenance.

    Provenance values: 'supplied', 'empirical' (lower estimate), or 'default'.
    The threshold needs upper bounds; empirical entries make the admissibility
    verdict heuristic, which reports carry explicitly.
    """

    C_int_tilde: float
    C_DtN_tilde: float
    C_H2: float
    A_min: float
    A_max: float
    nu_min: float
    nu_max: float
    k0: float
    L_ray: float
    provenance: dict = field(default_factory=dict)

    @property
    def C_int(self):
        return compute_C_int(self.C_int_tilde, self.A_max, self.nu_max)

    @property
    def C_DtN(self):
        return compute_C_DtN(self.C_DtN_tilde, self.A_min, self.nu_min)

    @property
    def C_cont(self):
        """Continuity constant of the sesquilinear form, bounded by 1 + C_DtN."""
        return 1.0 + self.C_DtN

    def validate(self):
        """Reject constants the theory does not admit; a ledger may be read
        from a file, so every numeric field is checked."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "provenance" and not np.isfinite(value):
                raise ValueError(f"{f.name} = {value} is not finite")
        for name, ok in (("C_int_tilde", self.C_int_tilde > 0), ("C_H2", self.C_H2 > 0),
                         ("C_DtN_tilde", self.C_DtN_tilde >= 0)):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} is out of range")
        if not 0 < self.A_min <= self.A_max:
            raise ValueError(f"need 0 < A_min <= A_max, got A_min = {self.A_min}, "
                             f"A_max = {self.A_max}")
        if not 0 < self.nu_min <= self.nu_max:
            raise ValueError(f"need 0 < nu_min <= nu_max, got nu_min = {self.nu_min}, "
                             f"nu_max = {self.nu_max}")
        if self.L_ray < 2.0:
            raise ValueError(
                f"L_ray = {self.L_ray} < 2: a ray must cross the padding annulus "
                "twice, so the enlarged-ball ray length is at least 2")
        if self.k0 <= 0:
            raise ValueError("k0 must be positive")

    @classmethod
    def from_json(cls, path):
        """Read a ledger file; a missing, unknown or non-numeric entry raises a
        ValueError naming its key."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a ledger file holds one JSON object")
        unknown = sorted(data.keys() - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown ledger key {unknown[0]!r}")
        for f in fields(cls):
            if f.name == "provenance":    # free-form, may be left out
                continue
            value = data.get(f.name, f.default)
            if value is MISSING:
                raise ValueError(f"ledger key {f.name!r} is missing")
            if type(value) not in (int, float):
                raise ValueError(f"ledger key {f.name!r} = {value!r} is not a number")
        return cls(**data)


# ---------------------------------------------------------------------------
# threshold


def _bracket_term(ledger: ConstantsLedger):
    return (np.sqrt(ledger.nu_max)
            + (1.0 + np.sqrt(ledger.nu_min)) / ledger.k0
            + 1.0 / (ledger.k0**2 * np.sqrt(ledger.nu_min)))


def threshold_rhs(ledger: ConstantsLedger, k, h):
    """Right-hand side of the admissibility inequality; admissible iff <= 1."""
    return (h * k**2 * np.sqrt(1.0 + (h * k) ** 2)
            * ledger.L_ray * ledger.C_int * ledger.C_H2 * (1.0 + ledger.C_DtN)
            * np.sqrt(ledger.nu_max / ledger.nu_min)
            * (4.0 * np.sqrt(2.0) / np.pi)
            * _bracket_term(ledger))


@dataclass
class ThresholdReport:
    k: float
    h_query: Optional[float]
    rhs_at_query: Optional[float]
    admissible: Optional[bool]
    h_max: float
    quasioptimality_constant: float
    caveat: str = ""

    def to_dict(self):
        return asdict(self)


def mesh_threshold(ledger: ConstantsLedger, k, h_query=None) -> ThresholdReport:
    """Evaluate admissibility at ``h_query`` and solve RHS(h) = 1 in closed form.

    RHS(h) = a h sqrt(1 + h^2 k^2) with a = c k^2, so h^2 solves the quadratic
    a^2 k^2 h^4 + a^2 h^2 = 1, whose positive root is
    h^2 = 2 / (a^2 + sqrt(a^4 + 4 a^2 k^2)) = 2 / (a (a + hypot(a, 2k))).
    The reported h_max is stepped down to the admissible side, RHS(h_max) <= 1,
    and lies within a few ulps of the root.
    """
    ledger.validate()
    require_positive("k", k)
    if h_query is not None:
        require_positive("h_query", h_query)
    a = threshold_rhs(ledger, k, 1.0) / np.sqrt(1.0 + k**2)
    h_max = np.sqrt(2.0 / (a * (a + np.hypot(a, 2.0 * k))))
    while threshold_rhs(ledger, k, h_max) > 1.0:
        h_max = np.nextafter(h_max, 0.0)
    rhs_q = float(threshold_rhs(ledger, k, h_query)) if h_query is not None else None
    caveats = [name for name, prov in ledger.provenance.items() if prov == "empirical"]
    caveat = ("admissibility is heuristic: empirical lower estimates for "
              + ", ".join(sorted(caveats))) if caveats else ""
    return ThresholdReport(
        k=float(k),
        h_query=None if h_query is None else float(h_query),
        rhs_at_query=rhs_q,
        admissible=None if rhs_q is None else bool(rhs_q <= 1.0),
        h_max=float(h_max),
        quasioptimality_constant=float(2.0 * (1.0 + ledger.C_DtN)),
        caveat=caveat,
    )


def schatz_condition(ledger: ConstantsLedger, k, eta) -> bool:
    """Adjoint-approximation smallness sufficient for quasioptimality:
    eta <= 1 / (2 C_cont sqrt(nu_max) k)."""
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return bool(eta <= 1.0 / (2.0 * ledger.C_cont * np.sqrt(ledger.nu_max) * k))


def h2_bound_rhs(ledger: ConstantsLedger, k):
    """Coefficient of |f| in the H^2 bound of the outgoing solution: linear in k."""
    ledger.validate()
    return (k * ledger.C_H2 * (2.0 * np.sqrt(2.0) / (np.pi * np.sqrt(ledger.nu_min)))
            * ledger.L_ray * _bracket_term(ledger))


# ---------------------------------------------------------------------------
# reference norms


def resolvent_upper_bound(L_ray, k, s):
    """Cutoff-resolvent reference value 2^{s/2+1} L k^{s-1} / pi, 0 <= s <= 2."""
    if not (0.0 <= s <= 2.0):
        raise ValueError(f"Sobolev index s={s} outside [0, 2]")
    if k <= 0 or L_ray <= 0:
        raise ValueError("need positive k and L")
    return 2.0 ** (0.5 * s + 1.0) * L_ray / np.pi * k ** (s - 1.0)


def volterra_norm(L):
    """Operator norm of cumulative integration on L^2([0, L]): 2 L / pi."""
    if L <= 0:
        raise ValueError("interval length must be positive")
    return 2.0 * L / np.pi


def volterra_discrete_norm(L, n=2000):
    """Largest singular value of the discretized cumulative-integration operator.

    Midpoint collocation: row i integrates up to t_i with trapezoid-style half
    weight on the diagonal.  Converges to 2L/pi as n grows.
    """
    dt = L / n
    V = np.tril(np.full((n, n), dt), -1) + np.eye(n) * (dt / 2.0)
    return float(scipy.linalg.svdvals(V)[0])


# ---------------------------------------------------------------------------
# empirical estimators


def estimate_C_int_tilde(h_values=(0.2, 0.1, 0.05)):
    """Empirical unweighted interpolation constant from a smooth-function battery
    on the unit disk: the worst (|v - I_h v|_{L2} + h |grad(v - I_h v)|_{L2}) /
    (h^2 |v|_{H2}), with the full H^2 norm counting the mixed derivative once."""
    battery = [
        (lambda x: x[:, 0] ** 2,
         lambda x: np.stack([2 * x[:, 0], np.zeros(len(x))], 1),
         lambda x: np.tile(np.array([[2.0, 0.0], [0.0, 0.0]]), (len(x), 1, 1))),
        (lambda x: np.sin(2 * x[:, 0]) * np.cos(x[:, 1]),
         lambda x: np.stack([2 * np.cos(2 * x[:, 0]) * np.cos(x[:, 1]),
                             -np.sin(2 * x[:, 0]) * np.sin(x[:, 1])], 1),
         lambda x: np.stack([
             np.stack([-4 * np.sin(2 * x[:, 0]) * np.cos(x[:, 1]),
                       -2 * np.cos(2 * x[:, 0]) * np.sin(x[:, 1])], 1),
             np.stack([-2 * np.cos(2 * x[:, 0]) * np.sin(x[:, 1]),
                       -np.sin(2 * x[:, 0]) * np.cos(x[:, 1])], 1)], 1)),
        (lambda x: np.exp(x[:, 0] - x[:, 1]),
         lambda x: np.stack([np.exp(x[:, 0] - x[:, 1]),
                             -np.exp(x[:, 0] - x[:, 1])], 1),
         lambda x: np.stack([
             np.stack([np.exp(x[:, 0] - x[:, 1]), -np.exp(x[:, 0] - x[:, 1])], 1),
             np.stack([-np.exp(x[:, 0] - x[:, 1]), np.exp(x[:, 0] - x[:, 1])], 1)], 1)),
    ]
    geom = TruncationGeometry(R1=0.9, R=1.0)
    ident = identity_coefficients()
    worst = 0.0
    for h in h_values:
        mesh = generate_mesh(None, geom, h)
        space = build_space(mesh)
        for v, gv, hv in battery:
            [(grad, l2)] = errors_vs_exact(ident, space, [nodal_interpolant(space, v)],
                                           lambda x: (v(x), gv(x)), 0.0)
            h2 = l2_norm_exact(space, lambda x: np.column_stack(
                [v(x), gv(x), hv(x)[:, 0, 0], hv(x)[:, 0, 1], hv(x)[:, 1, 1]]))
            worst = max(worst, (l2 + mesh.h_fem * grad) / (mesh.h_fem**2 * h2))
    return worst


@dataclass
class CH2Estimate:
    value: float


def estimate_C_H2(coeffs, obstacle, geom, h=0.04, samples=8, seed=0) -> CH2Estimate:
    """Empirical lower estimate of the interior-regularity constant.

    Random smooth sources drive the A-divergence problem on the padded domain
    (outer radius R + 1, Dirichlet outer boundary; each solve carries its
    residual certificate), the second-order norm on the inner domain is
    measured by gradient recovery, and the bound's ratio is maximized over
    samples.  A lower estimate by construction.
    """
    if samples < 1:
        raise ValueError(f"samples = {samples}: the estimate needs at least one sample")
    rng = make_rng(seed)
    R_pad = geom.R + 1.0
    mesh = generate_mesh(obstacle, geom, h, outer_radius=R_pad)
    space = build_space(mesh, dirichlet_outer=True)
    system = assemble(coeffs, space, None, 0.0)

    ratios = []
    for _ in range(samples):
        centers = rng.uniform(-0.6 * R_pad, 0.6 * R_pad, size=(3, 2))
        widths = rng.uniform(0.25 * R_pad, 0.6 * R_pad, size=3)
        amps = rng.standard_normal(3)

        def f(x, centers=centers, widths=widths, amps=amps):
            x = np.atleast_2d(x)
            out = np.zeros(len(x))
            for c, w, a in zip(centers, widths, amps):
                out += a * np.exp(-np.sum((x - c) ** 2, axis=1) / (2 * w**2))
            return out

        load = assemble_load_source(space, f)
        v = solve(system, -load).dofs
        h2 = recovered_hessian_h2_norm(space, v, within_radius=geom.R)
        grad = float(np.sqrt(max(np.real(np.vdot(v, system.stiffness @ v)), 0.0)))
        l2v = float(np.sqrt(max(np.real(np.vdot(v, system.mass_plain @ v)), 0.0)))
        l2f = l2_norm_exact(space, f)
        ratios.append(h2 / (grad + l2v + l2f))
    return CH2Estimate(value=float(np.max(ratios)))
