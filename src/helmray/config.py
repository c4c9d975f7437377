"""Structured run configuration: INI sections for coefficients, obstacle,
geometry, wave, ray sampling, discretization, and experiment parameters.

Parsing round-trips: parse -> serialize -> parse is the identity.  The key
reference lives in the repository documentation (docs/config.md).
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from .geometry import (COEFFICIENT_PRESETS, EMPTY_OBSTACLE, Obstacle,
                       TruncationGeometry, WaveContext, fourier_obstacle)
from .raytrace import RayConfig
from .util import sha256_text


_DEFAULTS = {
    "coefficients": {"preset": "identity"},
    "obstacle": {"empty": "true"},
    "geometry": {"r1": "1.0", "r": "2.0", "r_ray": "4.0"},
    "wave": {"k": "5.0", "k0": "1.0"},
    "ray": {
        "step_size": "0.002",
        "max_time_budget": "25.0",
        "glancing_threshold": "0.001",
        "grid_pos_r": "10",
        "grid_pos_theta": "16",
        "grid_dir": "64",
        "refinement_rounds": "2",
        "frame_rotation": "0.0",
    },
    "fem": {"h": "0.05"},
    "experiment": {"seed": "0", "cutoff_inner": "0.8", "cutoff_outer": "0.97"},
}

_FLOAT_KEYS = {
    ("coefficients", "amplitude"), ("coefficients", "width"),
    ("coefficients", "support_radius"), ("coefficients", "a1"),
    ("coefficients", "a2"), ("coefficients", "angle"),
    ("geometry", "r1"), ("geometry", "r"), ("geometry", "r_ray"),
    ("wave", "k"), ("wave", "k0"),
    ("ray", "step_size"), ("ray", "max_time_budget"),
    ("ray", "glancing_threshold"), ("ray", "frame_rotation"),
    ("fem", "h"),
    ("experiment", "cutoff_inner"), ("experiment", "cutoff_outer"),
}
_INT_KEYS = {
    ("ray", "grid_pos_r"), ("ray", "grid_pos_theta"), ("ray", "grid_dir"),
    ("ray", "refinement_rounds"), ("experiment", "seed"),
}
_LIST_KEYS = {("obstacle", "rho_fourier_coefficients"), ("obstacle", "rho_fourier_sin")}


@dataclass
class RunConfig:
    sections: dict = field(default_factory=dict)  # section -> {key: str}

    # -- parsing / serialization -------------------------------------------

    @classmethod
    def from_text(cls, text):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        sections = {}
        for sec, defaults in _DEFAULTS.items():
            sections[sec] = dict(defaults)
        for sec in cp.sections():
            if sec not in sections:
                raise ValueError(f"unknown config section [{sec}]")
            for key, val in cp.items(sec):
                sections[sec][key] = val.strip()
        return cls(sections=sections)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    @classmethod
    def default(cls):
        return cls.from_text("")

    def to_text(self):
        out = io.StringIO()
        for sec in sorted(self.sections):
            out.write(f"[{sec}]\n")
            for key in sorted(self.sections[sec]):
                out.write(f"{key} = {self.sections[sec][key]}\n")
            out.write("\n")
        return out.getvalue()

    def sha256(self):
        return sha256_text(self.to_text())

    # -- typed access --------------------------------------------------------

    def get(self, sec, key, default=None):
        key = key.lower()  # option names are case-insensitive, like the parser
        val = self.sections.get(sec, {}).get(key)
        if val is None:
            return default
        if (sec, key) in _FLOAT_KEYS:
            return float(val)
        if (sec, key) in _INT_KEYS:
            return int(val)
        if (sec, key) in _LIST_KEYS:
            return [float(tok) for tok in val.replace(",", " ").split()]
        if val.lower() in ("true", "false"):
            return val.lower() == "true"
        return val

    def set(self, sec, key, value):
        self.sections.setdefault(sec, {})[key.lower()] = (
            repr(float(value)) if isinstance(value, float) else str(value))

    # -- builders -------------------------------------------------------------

    def coefficients(self):
        name = self.get("coefficients", "preset")
        if name not in COEFFICIENT_PRESETS:
            raise ValueError(f"unknown coefficient preset {name!r}")
        kwargs = {}
        for key in ("amplitude", "width", "support_radius", "a1", "a2", "angle"):
            val = self.get("coefficients", key)
            if val is not None:
                kwargs[key] = val
        return COEFFICIENT_PRESETS[name](**kwargs)

    def obstacle(self) -> Obstacle:
        if self.get("obstacle", "empty", True):
            return EMPTY_OBSTACLE
        cos_c = self.get("obstacle", "rho_fourier_coefficients")
        if not cos_c:
            raise ValueError("non-empty obstacle needs rho_fourier_coefficients")
        sin_c = self.get("obstacle", "rho_fourier_sin") or ()
        return fourier_obstacle(cos_c, sin_c)

    def geometry(self) -> TruncationGeometry:
        return TruncationGeometry(R1=self.get("geometry", "R1"),
                                  R=self.get("geometry", "R"),
                                  R_ray=self.get("geometry", "R_ray"))

    def problem(self):
        """The (coefficients, obstacle, geometry) triple most runs start from."""
        return self.coefficients(), self.obstacle(), self.geometry()

    def wave(self) -> WaveContext:
        return WaveContext(k=self.get("wave", "k"), k0=self.get("wave", "k0"))

    def ray_config(self, **overrides) -> RayConfig:
        kw = dict(
            step_size=self.get("ray", "step_size"),
            max_time_budget=self.get("ray", "max_time_budget"),
            glancing_threshold=self.get("ray", "glancing_threshold"),
            grid_pos_r=self.get("ray", "grid_pos_r"),
            grid_pos_theta=self.get("ray", "grid_pos_theta"),
            grid_dir=self.get("ray", "grid_dir"),
            refinement_rounds=self.get("ray", "refinement_rounds"),
            frame_rotation=self.get("ray", "frame_rotation"),
        )
        kw.update({k: v for k, v in overrides.items() if v is not None})
        return RayConfig(**kw)

    def seed(self):
        return self.get("experiment", "seed", 0)
