"""Structured run configuration: INI sections for coefficients, obstacle,
geometry, wave, ray sampling, discretization, and experiment parameters.

One table types every key and holds its default; unknown sections and keys,
values that do not parse as their key's type, and numbers that are not
finite are rejected.  Parsing round-trips: parse -> serialize -> parse is the
identity.  The key reference lives in the repository documentation
(docs/config.md).
"""

from __future__ import annotations

import configparser
import inspect
import io
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .geometry import COEFFICIENT_PRESETS, Obstacle, TruncationGeometry, fourier_obstacle
from .raytrace import RayConfig
from .util import sha256_text


# section -> key -> (type, default).  A default of None leaves the key unset
# unless the file sets it; every other default is the text a file would hold.
_KEYS = {
    "coefficients": {
        "preset": (str, "identity"),
        "amplitude": (float, None), "width": (float, None), "a1": (float, None),
        "a2": (float, None), "angle": (float, None),
    },
    "obstacle": {"rho_fourier_coefficients": (list, None), "rho_fourier_sin": (list, None)},
    "geometry": {"r1": (float, "1.0"), "r": (float, "2.0")},
    "wave": {"k": (float, "5.0"), "k0": (float, "1.0")},
    # the keyword arguments of RayConfig but the code-only refine_points
    "ray": {f.name: (type(f.default), str(f.default)) for f in fields(RayConfig)
            if f.name != "refine_points"},
    "fem": {"h": (float, "0.05")},
    "experiment": {"seed": (int, "0"), "cutoff_inner": (float, "0.8"),
                   "cutoff_outer": (float, "0.97")},
}


def _check_keys(sec, keys):
    if sec not in _KEYS:
        raise ValueError(f"unknown config section [{sec}]")
    for key in keys:
        if key not in _KEYS[sec]:
            raise ValueError(f"unknown config key {key!r} in section [{sec}]")


def _cast(sec, key, text):
    """``text`` as the type the table gives ``[sec] key``; a number must be finite."""
    kind = _KEYS[sec][key][0]
    try:
        value = ([float(tok) for tok in text.replace(",", " ").split()] if kind is list
                 else kind(text))
    except ValueError:
        raise ValueError(f"[{sec}] {key} = {text!r} is not a {kind.__name__}") from None
    if kind is not str and not np.all(np.isfinite(value)):
        raise ValueError(f"[{sec}] {key} = {text!r} is not finite")
    return value


@dataclass
class RunConfig:
    sections: dict = field(default_factory=dict)  # section -> {key: str}

    # -- parsing / serialization -------------------------------------------

    @classmethod
    def from_text(cls, text):
        cp = configparser.ConfigParser()
        cp.read_string(text)
        sections = {sec: {key: default for key, (_, default) in keys.items()
                          if default is not None}
                    for sec, keys in _KEYS.items()}
        for sec in cp.sections():
            items = {key: val.strip() for key, val in cp.items(sec)}
            _check_keys(sec, items)
            for key, val in items.items():
                _cast(sec, key, val)    # raises on a value of the wrong type
                sections[sec][key] = val
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
        """The value of ``key`` cast to its type, or ``default`` when unset."""
        key = key.lower()  # option names are case-insensitive, like the parser
        val = self.sections.get(sec, {}).get(key)
        return default if val is None else _cast(sec, key, val)

    def set(self, sec, key, value):
        key = key.lower()
        _check_keys(sec, [key])
        self.sections.setdefault(sec, {})[key] = (
            repr(float(value)) if isinstance(value, float) else str(value))

    # -- builders -------------------------------------------------------------

    def coefficients(self):
        name = self.get("coefficients", "preset")
        if name not in COEFFICIENT_PRESETS:
            raise ValueError(f"unknown coefficient preset {name!r}")
        preset = COEFFICIENT_PRESETS[name]
        keys = [key for key in self.sections["coefficients"] if key != "preset"]
        taken = inspect.signature(preset).parameters
        for key in keys:
            if key not in taken:
                raise ValueError(f"[coefficients] {key} does not apply to preset {name!r}")
        return preset(**{key: self.get("coefficients", key) for key in keys})

    def obstacle(self) -> Optional[Obstacle]:
        """The obstacle ``rho_fourier_coefficients`` describes, None when unset."""
        cos_c = self.get("obstacle", "rho_fourier_coefficients")
        sin_c = self.get("obstacle", "rho_fourier_sin")
        if cos_c is None and sin_c is None:
            return None
        if not cos_c:
            raise ValueError("an obstacle needs rho_fourier_coefficients")
        return fourier_obstacle(cos_c, sin_c or ())

    def geometry(self) -> TruncationGeometry:
        return TruncationGeometry(R1=self.get("geometry", "R1"), R=self.get("geometry", "R"))

    def problem(self):
        """The (coefficients, obstacle, geometry) triple most runs start from."""
        return self.coefficients(), self.obstacle(), self.geometry()

    def ray_config(self) -> RayConfig:
        return RayConfig(**{key: self.get("ray", key) for key in _KEYS["ray"]})

    def seed(self):
        return self.get("experiment", "seed")
