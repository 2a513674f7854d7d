"""Line-of-sight optical channel model for a single LiFi attocell.

The access point points straight down and every device points straight up,
so the emission and incidence angles coincide and the LOS gain depends only
on the vertical and horizontal distances of a device, never on its polar
angle. Under the shared front-end assumption the visible-light downlink and
the infrared uplink have identical gains for the same geometry. Non-LOS
reflections are neglected.

All powers derived from this model stay in relative electrical units
(noise power in A^2, gains dimensionless); nothing is converted to watts.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

__all__ = [
    "OpticalFrontEnd",
    "UserPosition",
    "NoiseModel",
    "channel_gain",
    "los_gain",
]


def _plain_reals(owner, scalars, lists=()) -> list[str]:
    """Store named fields of a frozen dataclass as Python numbers; list those not real.

    ``scalars`` hold one real each, ``lists`` a list or tuple of them, or None. A NumPy
    real becomes the int or float the CSV and JSON write; a bool is not a real here. A
    tuple of Python numbers is kept as it is: ``simulation._rate_table`` holds its table
    by identity.
    """
    problems = []
    for name in (*scalars, *lists):
        value = getattr(owner, name)
        if name not in lists:  # a plain number first, without the ABC test below
            if type(value) in (int, float):
                continue
            if isinstance(value, float):  # a float subclass, NumPy's float64 among them
                object.__setattr__(owner, name, float(value))
                continue
        values = (value or ()) if name in lists else (value,)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values):
            problems.append(f"{name} must be real (a number, not a bool), got {value!r}")
        elif type(values) is not tuple or not all(type(v) in (int, float) for v in values):
            plain = tuple(int(v) if isinstance(v, numbers.Integral) else float(v) for v in values)
            object.__setattr__(owner, name, plain if name in lists else plain[0])
    return problems


def _plain_int(name: str, value, least: int) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class OpticalFrontEnd:
    """LED/photodiode parameters shared by one link of the attocell.

    Defaults are the reference desk setup: a 70-degree LED and a 1 cm^2
    photodiode with a 70-degree FOV behind a 0.9-gain filter and an n = 1.5
    concentrator lens.

    Attributes:
        semi_angle_deg: LED half-power semi-angle, degrees, in (0, 90).
        responsivity: photodiode responsivity, A/W, positive.
        area: photodiode active area, m^2, positive.
        fov_half_angle_deg: receiver FOV half-angle, degrees, in (0, 90).
        filter_gain: optical filter gain, in (0, 1].
        refractive_index: concentrator lens refractive index, >= 1.
    """

    semi_angle_deg: float = 70.0
    responsivity: float = 0.4
    area: float = 1e-4
    fov_half_angle_deg: float = 70.0
    filter_gain: float = 0.9
    refractive_index: float = 1.5

    def __post_init__(self) -> None:
        problems = _plain_reals(self, vars(self))
        if problems:  # the checks below compare these as numbers
            raise ValueError("invalid optical front end: " + "; ".join(problems))
        if not 0.0 < self.semi_angle_deg < 90.0:
            problems.append(f"semi_angle_deg must be in (0, 90), got {self.semi_angle_deg}")
        if not 0.0 < self.responsivity < math.inf:
            problems.append(f"responsivity must be positive and finite, got {self.responsivity}")
        if not 0.0 < self.area < math.inf:
            problems.append(f"area must be positive and finite, got {self.area}")
        if not 0.0 < self.fov_half_angle_deg < 90.0:
            problems.append(
                f"fov_half_angle_deg must be in (0, 90), got {self.fov_half_angle_deg}"
            )
        if not 0.0 < self.filter_gain <= 1.0:
            problems.append(f"filter_gain must be in (0, 1], got {self.filter_gain}")
        if not 1.0 <= self.refractive_index < math.inf:
            problems.append(
                f"refractive_index must be >= 1 and finite, got {self.refractive_index}"
            )
        if not problems:
            try:  # angles near 0 round cos to 1 or sin^2 to 0
                constant = self.channel_constant
            except ZeroDivisionError:
                constant = math.inf
            if not 0.0 < constant < math.inf:
                problems.append("the gain constant of semi_angle_deg, responsivity, area, "
                                "fov_half_angle_deg, filter_gain and refractive_index must "
                                f"be positive and finite, got {constant}")
        if problems:
            raise ValueError("invalid optical front end: " + "; ".join(problems))

    @property
    def lambertian_order(self) -> float:
        """Beam-shape exponent ``-ln 2 / ln(cos(semi_angle))`` of the LED, > 0."""
        return -math.log(2.0) / math.log(math.cos(math.radians(self.semi_angle_deg)))

    @property
    def lens_gain(self) -> float:
        """Concentrator gain ``n^2 / sin^2(FOV)`` of the receiver lens."""
        s = math.sin(math.radians(self.fov_half_angle_deg))
        return self.refractive_index * self.refractive_index / (s * s)

    @property
    def channel_constant(self) -> float:
        """Geometry-independent gain prefactor ``(m+1) rho A g_f g_l / (2 pi)``."""
        return (
            (self.lambertian_order + 1.0)
            * self.responsivity
            * self.area
            * self.filter_gain
            * self.lens_gain
            / (2.0 * math.pi)
        )

    @property
    def gain_terms(self) -> tuple[float, float, float]:
        """``(tan(FOV), m + 1, C)``: the per-front-end arguments of :func:`los_gain`."""
        return (
            math.tan(math.radians(self.fov_half_angle_deg)),
            self.lambertian_order + 1.0,
            self.channel_constant,
        )


@dataclass(frozen=True)
class UserPosition:
    """Polar-cylindrical device location relative to the access point.

    Attributes:
        vertical: vertical distance to the access point, m, positive, finite.
        horizontal: horizontal distance from the cell axis, m, >= 0, finite.
        polar_angle: polar angle around the axis, radians, finite. Carried
            for completeness; the LOS gain does not depend on it.
    """

    vertical: float
    horizontal: float
    polar_angle: float = 0.0

    def __post_init__(self) -> None:
        if problems := _plain_reals(self, vars(self)):
            raise ValueError("; ".join(problems))
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.vertical <= 0.0:
            raise ValueError(f"vertical distance must be positive, got {self.vertical}")
        if self.horizontal < 0.0:
            raise ValueError(f"horizontal distance must be >= 0, got {self.horizontal}")


def los_gain(
    vertical: float, horizontal: float, tan_fov: float, exponent: float, constant: float
) -> float:
    """LOS gain of one device from plain floats; see :func:`channel_gain`.

    ``tan_fov``, ``exponent`` and ``constant`` are a front end's
    :attr:`OpticalFrontEnd.gain_terms`. This is the scalar reference of the
    batched engine, which takes ``cos(atan(r / l))`` as ``l / sqrt(l^2 +
    r^2)`` on arrays: the same FOV test gives the same zeros, and a positive
    gain may differ in the last few bits.
    """
    ratio = horizontal / vertical
    if ratio > tan_fov:
        return 0.0
    attenuation = math.cos(math.atan(ratio)) ** exponent
    reach = vertical * vertical + horizontal * horizontal
    return constant / reach * attenuation


def channel_gain(position: UserPosition, front_end: OpticalFrontEnd) -> float:
    """LOS channel gain between the access point and one device.

    The gain is ``C / (l^2 + r^2) * cos(arctan(r/l))^(m+1)`` while the device
    sits inside the receiver FOV and exactly 0 outside it. The FOV boundary
    ``r/l == tan(FOV)`` belongs to the visible branch.

    Args:
        position: device location.
        front_end: LED/PD parameters of the link.

    Returns:
        Dimensionless gain, >= 0; independent of ``position.polar_angle``.
    """
    return los_gain(position.vertical, position.horizontal, *front_end.gain_terms)


@dataclass(frozen=True)
class NoiseModel:
    """Flat additive noise over the signal band.

    Attributes:
        psd: one-sided noise power spectral density, A^2/Hz, positive.
        bandwidth: signal bandwidth, Hz, positive.

    Their product, the noise power, must be a normal (full-precision) float.
    """

    psd: float = 1e-22
    bandwidth: float = 2e7

    def __post_init__(self) -> None:
        problems = _plain_reals(self, vars(self)) or [
            f"{label} must be positive and finite, got {value}"
            for label, value in (("noise PSD", self.psd), ("bandwidth", self.bandwidth))
            if not 0.0 < value < math.inf
        ]
        if not problems and not sys.float_info.min <= self.noise_power < math.inf:
            problems.append(f"noise power psd * bandwidth must be a normal float "
                            f"(>= {sys.float_info.min}) and finite, got {self.noise_power}")
        if problems:
            raise ValueError("invalid noise model: " + "; ".join(problems))

    @property
    def noise_power(self) -> float:
        """Total in-band noise power ``psd * bandwidth`` (relative units, A^2)."""
        return self.psd * self.bandwidth
