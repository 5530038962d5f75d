"""Physical constants, unit conversions, model parameters, body geometry,
and the CSV text every table and dataset is written as.

Everything internal is CGS (cm, g, s, K, erg).  Convenience units used at
API boundaries (Torr, picoTorr, days, the 1e-5 cm length often written
"dmu") are converted here and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError, _in_float_range, _positive

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "AMU_GRAMS",
    "N2_MOLECULAR_MASS",
    "ERG_PER_EV",
    "convert_unit",
    "constants_summary",
    "CslParams",
    "Sphere",
    "Disc",
    "Body",
    "Environment",
    "body_derived",
]


def _csv(header, rows) -> str:
    """CSV text with CR LF line ends from a header and rows of cell strings."""
    return "".join(",".join(cells) + "\r\n" for cells in [header, *rows])


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA constants in CGS units, plus the room-temperature convention.

    All attributes are strictly positive and the instance is immutable.
    Every formula in the package reads the one instance CONSTANTS, which
    `cslwalk --constants` prints; no function takes another set.
    """

    hbar: float = 1.0546e-27          # erg s
    k_boltzmann: float = 1.3807e-16   # erg / K
    m_nucleon: float = 1.6726e-24     # g (proton and neutron masses taken equal)
    G: float = 6.674e-8               # cm^3 / (g s^2)
    c: float = 2.9979e10              # cm / s
    room_temperature_T0: float = 293.15  # K

    def __post_init__(self):
        _positive(**vars(self))


CONSTANTS = PhysicalConstants()

AMU_GRAMS = 1.6605e-24
N2_MOLECULAR_MASS = 28.0 * AMU_GRAMS   # default gas: molecular nitrogen
ERG_PER_EV = 1.60218e-12

# Unit registry: canonical base unit per dimension, linear factors to base.
_UNIT_ALIASES = {
    "dyn/cm^2": "dyn/cm2",
    "dyn_cm2": "dyn/cm2",
    "torr": "Torr",
    "pt": "pT",
    "days": "day",
    "sec": "s",
    "dmu": "du",
    "dμ": "du",   # Greek mu spelling
    "k": "K",
}

_UNIT_TABLE = {
    # unit: (dimension, factor to base unit)
    "dyn/cm2": ("pressure", 1.0),
    "Torr": ("pressure", 1333.22),
    "pT": ("pressure", 1333.22e-12),
    "s": ("time", 1.0),
    "day": ("time", 86400.0),
    "cm": ("length", 1.0),
    "du": ("length", 1.0e-5),
    "K": ("temperature", 1.0),
}


def _canonical_unit(unit: str) -> str:
    u = unit.strip()
    u = _UNIT_ALIASES.get(u, _UNIT_ALIASES.get(u.lower(), u))
    if u not in _UNIT_TABLE:
        raise ValidationError(f"unsupported unit {unit!r}")
    return u


def convert_unit(value: float, from_unit: str, to_unit: str) -> float:
    """Exact linear conversion between supported units.

    Supported: Torr / pT / dyn/cm2 (pressure), day / s (time),
    du / cm (length, 1 du = 1e-5 cm), K (identity).  Conversions across
    dimensions are rejected by name, and so are values that are not finite
    before or after conversion.
    """
    src = _canonical_unit(from_unit)
    dst = _canonical_unit(to_unit)
    dim_src, f_src = _UNIT_TABLE[src]
    dim_dst, f_dst = _UNIT_TABLE[dst]
    if dim_src != dim_dst:
        raise ValidationError(
            f"cannot convert {from_unit!r} ({dim_src}) to {to_unit!r} ({dim_dst})")
    out = value * (f_src / f_dst)
    if not math.isfinite(out):
        raise ValidationError(f"{value!r} {from_unit} is not a finite {to_unit} value")
    return out


def constants_summary() -> dict:
    """Every constant and convention in use, for diagnostics output."""
    return {
        "unit_system": "CGS (cm, g, s, K, erg)",
        "hbar_erg_s": CONSTANTS.hbar,
        "k_boltzmann_erg_per_K": CONSTANTS.k_boltzmann,
        "m_nucleon_g": CONSTANTS.m_nucleon,
        "G_cgs": CONSTANTS.G,
        "c_cm_per_s": CONSTANTS.c,
        "room_temperature_T0_K": CONSTANTS.room_temperature_T0,
        "amu_g": AMU_GRAMS,
        "n2_molecular_mass_g": N2_MOLECULAR_MASS,
        "erg_per_eV": ERG_PER_EV,
        "torr_in_dyn_per_cm2": 1333.22,
        "du_in_cm": 1.0e-5,
        "day_in_s": 86400.0,
        "grw_lambda_per_s": 1.0e-16,
        "grw_a_cm": 1.0e-5,
    }


@dataclass(frozen=True)
class CslParams:
    """Collapse-rate / collapse-length pair (lam in 1/s, a in cm).

    ``lam`` is the localization rate of a single isolated nucleon; ``a`` the
    localization length below which superpositions are effectively untouched.
    """

    lam: float
    a: float

    def __post_init__(self):
        _positive(lam=self.lam, a=self.a)

    @classmethod
    def grw(cls) -> "CslParams":
        """The canonical parameter choice lam = 1e-16 /s, a = 1e-5 cm."""
        return cls(lam=1.0e-16, a=1.0e-5)


def _check_nucleon_count(body) -> None:
    """Reject a body with less than one nucleon, or one so large that its
    volume, mass or nucleon count leaves the floating-point range."""
    try:
        n = body.nucleon_count()
    except OverflowError:       # a power of the size in volume()
        n = math.inf
    if n == math.inf:
        raise ValidationError(f"{type(body).__name__} is too large: its volume "
                              "or mass leaves the floating-point range")
    if n < 1.0:
        raise ValidationError("body holds less than one nucleon")


@dataclass(frozen=True)
class Sphere:
    """Uniform sphere: radius (cm) and mass density (g/cm^3)."""

    radius: float
    density: float

    def __post_init__(self):
        _positive(radius=self.radius, density=self.density)
        _check_nucleon_count(self)

    def volume(self) -> float:
        return (4.0 / 3.0) * math.pi * self.radius ** 3

    def mass(self) -> float:
        return self.density * self.volume()

    def nucleon_count(self) -> float:
        return self.mass() / CONSTANTS.m_nucleon

    def moment_of_inertia(self) -> float:
        """About any axis through the center: (2/5) M R^2."""
        return 0.4 * self.mass() * self.radius ** 2


@dataclass(frozen=True)
class Disc:
    """Uniform disc: radius L (cm), thickness b (cm), density (g/cm^3).

    The moment of inertia is about an in-plane diameter axis (the rotation
    mode of interest), not the symmetry axis.
    """

    radius: float
    thickness: float
    density: float

    def __post_init__(self):
        _positive(radius=self.radius, thickness=self.thickness,
                  density=self.density)
        if self.thickness > 2.0 * self.radius:
            raise ValidationError("Disc thickness exceeds its diameter")
        _check_nucleon_count(self)

    def volume(self) -> float:
        return math.pi * self.radius ** 2 * self.thickness

    def mass(self) -> float:
        return self.density * self.volume()

    def nucleon_count(self) -> float:
        return self.mass() / CONSTANTS.m_nucleon

    def moment_of_inertia(self) -> float:
        """About an in-plane diameter axis: (M L^2 / 4)(1 + b^2 / 3 L^2)."""
        L, b = self.radius, self.thickness
        return 0.25 * self.mass() * L ** 2 * (1.0 + b ** 2 / (3.0 * L ** 2))


Body = Sphere | Disc


def body_derived(body: Body) -> dict:
    """Derived quantities of a body: volume, mass, nucleon count, inertia."""
    return {
        "V": body.volume(),
        "M": body.mass(),
        "N": body.nucleon_count(),
        "I": body.moment_of_inertia(),
    }


@dataclass(frozen=True)
class Environment:
    """Gas state and/or radiation bath surrounding the body.

    ``pressure`` is in dyn/cm^2 (use :func:`convert_unit` or
    :meth:`from_torr` at the boundary).  ``gas_viscosity`` is optional and
    only needed in the hydrodynamic regime.
    """

    temperature: float
    pressure: float | None = None
    gas_molecular_mass: float = N2_MOLECULAR_MASS
    gas_viscosity: float | None = None

    def __post_init__(self):
        _positive(**{name: value for name, value in vars(self).items()
                     if value is not None})

    @classmethod
    def from_torr(cls, temperature: float, pressure_torr: float, **kwargs) -> "Environment":
        return cls(temperature=temperature,
                   pressure=convert_unit(pressure_torr, "Torr", "dyn/cm2"),
                   **kwargs)

    @property
    def kT(self) -> float:
        return CONSTANTS.k_boltzmann * self.temperature

    def number_density(self) -> float:
        """Gas molecules per cm^3, n = p/(kT)."""
        if self.pressure is None:
            raise ValidationError("number density needs a pressure")
        return _in_float_range("gas number density",
                               lambda: self.pressure / self.kT)

    def mean_speed(self) -> float:
        """Mean molecular speed, sqrt(8 kT / (pi m_g))."""
        return _in_float_range("mean molecular speed", lambda: math.sqrt(
            8.0 * self.kT / (math.pi * self.gas_molecular_mass)))

    def mean_free_path(self) -> float:
        """l_m = 3 eta / (n m_g u_bar), inverted from the kinetic viscosity."""
        if self.gas_viscosity is None:
            raise ValidationError("mean free path needs a gas viscosity")
        n = self.number_density()
        return _in_float_range("mean free path", lambda: 3.0 * self.gas_viscosity
                               / (n * self.gas_molecular_mass * self.mean_speed()))
