"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``install`` replaces public
functions under the names their callers look up (module globals and class
attributes) with timing wrappers, and ``wrap_coefficients`` does the same for
the coefficient callables the benchmark passes in.  Nothing is written until
the run ends.  The untraced run never imports this module's wrappers, so
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter


class _ModuleView:
    """A module with some attributes replaced; the rest resolve lazily."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Nested spans (name, start, end, parent, op label) plus per-op counters.

    ``op`` names the benchmark operation currently running; spans and counters
    are keyed by it so that per-configuration metrics (``.disk``,
    ``.nu_bump``) can be read off one traced pass.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, op]
        self.counters = defaultdict(float)   # (op, name) -> value
        self.op = None
        self.enabled = True      # off while untimed correctness checks run
        self._stack = []

    # -- recording -------------------------------------------------------

    def span(self, fn, name, on_return=None):
        """Return ``fn`` wrapped in a span; ``on_return(out, args)`` sets counters."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(out, args)
            return out

        return wrapper

    def count(self, name, value):
        self.counters[(self.op, name)] += value

    def note(self, name, value):
        """Record a size or state (last value wins) rather than a running count."""
        self.counters[(self.op, name)] = value

    def note_first(self, name, value):
        self.counters.setdefault((self.op, name), value)

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr, name, on_return=None):
        setattr(owner, attr, self.span(getattr(owner, attr), name, on_return))

    def install(self, hr):
        """Wrap every layer boundary the four workloads cross, for this process.

        ``hr`` is a namespace holding the imported helmray modules.  Each
        function is patched in the namespace its caller resolves it from; a
        function imported into two modules is patched in both.
        """
        rt, mesh, fem, dtn, ex, radial = hr.raytrace, hr.mesh, hr.fem, hr.dtn, hr.experiments, hr.radial

        def on_rays(res, args):
            self.note("raytrace.n_samples", res.diagnostics.n_samples)

        def on_batch(res, args):
            ok = res.termination == 0
            self.note_first("raytrace.seed_grid_L", float(res.t_exit[ok].max()) if ok.any() else 0.0)

        def on_step(out, args):
            self.count("raytrace.steps", len(args[1]))

        def on_mesh(m, args):
            self.note("mesh.n_vertices", m.n_vertices)
            self.note("mesh.n_triangles", m.n_triangles)

        def on_space(space, args):
            self.note("fem.n_dofs", space.n_dofs)

        def on_assemble(system, args):
            if system.dtn_block is not None:
                self.note("fem.radiation_nnz", system.dtn_block.nnz)

        def on_factorize(lu, args):
            self.note("fem.nnz", args[0].matrix.nnz)
            # entries the factorization stores; lu.L and lu.U would copy them
            self.note("fem.lu_fill", lu.nnz)

        def on_dtn(op, args):
            self.note("dtn.n_modes", len(op.coefficients))

        def on_power(out, args):
            self.count("experiments.power_iters", out[1])

        def on_modal(res, args):
            self.count("radial.n_modes", len(res.per_mode))
            self.count("radial.power_iters", sum(it for _, _, it, _ in res.per_mode))
            self.count("radial.unconverged_modes", sum(1 for *_, conv in res.per_mode if not conv))
            self.note("radial.n_r", res.n_r)

        self.patch(rt, "longest_ray_length", "raytrace.longest_ray_length", on_rays)
        # private names: the step count and the seed-grid maximum have no
        # public boundary, and these are the names _integrate_batch and
        # longest_ray_length resolve
        self.patch(rt, "_eval_rays", "raytrace.eval_rays", on_batch)
        self.patch(rt, "_rk4_step", "raytrace.rk4_step", on_step)
        self.patch(rt, "signed_distance", "raytrace.signed_distance")
        self.patch(rt, "boundary_normal", "raytrace.boundary_normal")

        for owner in (mesh, ex):
            self.patch(owner, "generate_mesh", "mesh.generate_mesh", on_mesh)
        for owner in (fem, ex):
            self.patch(owner, "build_space", "fem.build_space", on_space)
            self.patch(owner, "assemble", "fem.assemble", on_assemble)
        for owner in (dtn, ex):
            self.patch(owner, "build_dtn", "dtn.build_dtn", on_dtn)
        for owner in (dtn, radial):
            self.patch(owner, "hankel_ratio", "dtn.hankel_ratio")
        self.patch(fem, "assemble_load_scattering", "fem.assemble_load_scattering")
        self.patch(fem, "solve", "fem.solve")
        self.patch(fem.GalerkinSystem, "factorize", "fem.factorize", on_factorize)

        self.patch(ex, "resolvent_scan", "experiments.resolvent_scan")
        self.patch(ex, "estimate_resolvent_norm", "experiments.estimate_resolvent_norm")
        self.patch(ex, "radial_profiles", "experiments.radial_profiles")
        self.patch(ex, "power_sigma", "experiments.power_sigma", on_power)
        # estimate_resolvent_norm factors the mass matrix with spla.splu
        ex.spla = _ModuleView(ex.spla, splu=self.span(ex.spla.splu, "experiments.mass_lu"))

        self.patch(ex, "radial_cutoff_resolvent_norm", "radial.radial_cutoff_resolvent_norm", on_modal)
        self.patch(radial, "assemble_radial_mode", "radial.assemble_radial_mode")
        self.patch(radial, "mode_cutoff_norm", "radial.mode_cutoff_norm")
        self.patch(radial.RadialMode, "lu", "radial.lu")
        self.patch(radial.RadialMode, "lu_mass", "radial.lu_mass")

    def wrap_coefficients(self, coeffs):
        """Coefficient field whose four callables record spans.

        The grad-nu wrapper also counts the points it is given (RK4 stage
        evaluations) and how many of them lie inside the perturbation,
        read off the returned gradient so that no extra geometry is computed.
        """
        def on_grad_nu(out, args):
            self.count("raytrace.stage_evals", out.size // 2)
            self.count("raytrace.in_support", int((out != 0.0).any(axis=-1).sum()))

        return dataclasses.replace(
            coeffs,
            eval_A=self.span(coeffs.eval_A, "geometry.eval_A"),
            eval_nu=self.span(coeffs.eval_nu, "geometry.eval_nu"),
            eval_grad_A=self.span(coeffs.eval_grad_A, "geometry.eval_grad_A"),
            eval_grad_nu=self.span(coeffs.eval_grad_nu, "geometry.eval_grad_nu", on_grad_nu))

    # -- reduction -------------------------------------------------------

    def summary(self):
        """Per (op, name): [calls, inclusive seconds, self seconds].

        Self time is a span's duration minus the time its child spans cover;
        calls are strictly nested on one thread, so children never overlap.
        Also returns the seconds covered by the direct children of spans
        named ``op`` (the layer calls each benchmark operation makes) and the
        number of spans whose children add up to more than the span itself,
        which is 0 for a correct recorder.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        violations = 0
        op_children_s = 0.0
        for (name, t0, t1, parent, op), c in zip(self.spans, child):
            dur = t1 - t0
            if c > dur:
                violations += 1
            if parent >= 0 and self.spans[parent][0] == "op":
                op_children_s += dur
            s = stats[(op, name)]
            s[0] += 1
            s[1] += dur
            s[2] += dur - c
        return stats, op_children_s, violations
