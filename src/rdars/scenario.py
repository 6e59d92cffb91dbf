"""System parameters, 3-D geometry, and scenario-file loading.

All core quantities are SI: meters, Hz, watts. Path gains are linear
amplitudes, so kappa**2 is the power attenuation of a link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s


class ScenarioError(ValueError):
    """Invalid system parameters or a malformed scenario file."""


def path_gain(distance: float, c0_db: float, exponent: float) -> float:
    """Linear amplitude gain of a link of the given length.

    Computes sqrt(10**(-c0_db/10) * distance**(-exponent)), i.e. the
    reference loss at 1 m followed by power-law decay. The model is
    undefined below the 1 m reference distance.
    """
    if distance < 1.0:
        raise ValueError(f"distance {distance} m is below the 1 m reference")
    if exponent <= 0.0:
        raise ValueError("path-loss exponent must be positive")
    return math.sqrt(10.0 ** (-c0_db / 10.0) * distance ** (-exponent))


@dataclass(frozen=True)
class SystemConfig:
    """Scalar system parameters shared by every solver.

    ``total_power`` and ``noise_power`` are in watts; any dBm handling
    belongs to the CLI layer. The wavelength follows from
    ``carrier_freq``; ``spacing`` defaults to half of it at construction
    and stays a fixed length after that.
    """

    n_tx: int = 32
    n_elems: int = 128
    n_connected: int = 20
    n_ues: int = 20
    carrier_freq: float = 28e9
    spacing: float | None = None
    total_power: float = 1.0
    noise_power: float = 7.244359600749892e-13
    ref_pathloss_db: float = 61.4
    pathloss_exp_bs_rdars: float = 2.0
    pathloss_exp_rdars_ue: float = 2.8
    conv_threshold: float = 1e-4
    max_outer_iters: int = 200

    def __post_init__(self):
        if self.carrier_freq <= 0.0:
            raise ScenarioError("carrier_freq must be positive")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        # NaN passes every <= check below, so real values must be finite
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite, got {value}")
        if self.n_tx < 1 or self.n_elems < 1 or self.n_ues < 1:
            raise ScenarioError("antenna and UE counts must be positive")
        if not 1 <= self.n_connected <= self.n_elems:
            raise ScenarioError(
                f"n_connected must lie in [1, {self.n_elems}], got {self.n_connected}"
            )
        if self.spacing <= 0.0:
            raise ScenarioError("spacing must be positive")
        if self.total_power <= 0.0 or self.noise_power <= 0.0:
            raise ScenarioError("total_power and noise_power must be positive")
        if self.pathloss_exp_bs_rdars <= 0.0 or self.pathloss_exp_rdars_ue <= 0.0:
            raise ScenarioError("path-loss exponents must be positive")
        if self.conv_threshold <= 0.0:
            raise ScenarioError("conv_threshold must be positive")
        if self.max_outer_iters < 1:
            raise ScenarioError("max_outer_iters must be at least 1")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq


@dataclass(frozen=True)
class Geometry:
    """Positions plus the derived spatial frequencies and path gains.

    Spatial frequencies are cosines of the angle between a link direction
    and the owning array's axis, which is x for both arrays, so the
    backhaul's departure from the BS and arrival at the surface share
    ``u_br_aoa``; kappa values are linear amplitudes.
    """

    bs_pos: np.ndarray
    rdars_pos: np.ndarray
    ue_pos: np.ndarray          # (K, 3)
    u_br_aoa: float
    u_ru_aod: np.ndarray        # (K,)
    kappa_br: float
    kappa_ru: np.ndarray        # (K,)

    @property
    def n_ues(self) -> int:
        return self.ue_pos.shape[0]


def derive_geometry(bs_pos, rdars_pos, ue_pos, config: SystemConfig) -> Geometry:
    """Build a Geometry from raw coordinates.

    The direction of each link (surface to the far end for UE links, BS to
    surface for the backhaul link) is projected on the array axis, x for
    both arrays, to obtain the spatial frequency.
    """
    bs = np.asarray(bs_pos, dtype=float).reshape(3)
    rd = np.asarray(rdars_pos, dtype=float).reshape(3)
    ue = np.asarray(ue_pos, dtype=float)
    if ue.ndim == 1:
        ue = ue.reshape(1, 3)
    if ue.ndim != 2 or ue.shape[1] != 3:
        raise ScenarioError(f"ue_pos must be (K, 3), got shape {ue.shape}")
    if ue.shape[0] != config.n_ues:
        raise ScenarioError(
            f"geometry has {ue.shape[0]} UEs but the config says {config.n_ues}"
        )

    link = rd - bs
    dist_br = float(np.linalg.norm(link))
    if dist_br == 0.0:
        raise ScenarioError("BS and RDARS positions coincide")
    dir_br = link / dist_br
    u_br_aoa = float(np.clip(dir_br[0], -1.0, 1.0))

    diffs = ue - rd
    dists = np.linalg.norm(diffs, axis=1)
    if (dists == 0.0).any():
        raise ScenarioError("a UE and the RDARS position coincide")
    u_ru = np.clip(diffs[:, 0] / dists, -1.0, 1.0)

    c0 = config.ref_pathloss_db
    kappa_br = path_gain(dist_br, c0, config.pathloss_exp_bs_rdars)
    kappa_ru = np.array(
        [path_gain(float(d), c0, config.pathloss_exp_rdars_ue) for d in dists]
    )
    return Geometry(
        bs_pos=bs,
        rdars_pos=rd,
        ue_pos=ue,
        u_br_aoa=u_br_aoa,
        u_ru_aod=u_ru.astype(float),
        kappa_br=kappa_br,
        kappa_ru=kappa_ru,
    )


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: config plus placement information.

    ``ue_pos`` (explicit positions) and the drop circle
    (``ue_center``/``ue_radius``) are both optional; campaigns use the
    circle, single-shot analyses may pin positions.
    """

    config: SystemConfig
    bs_pos: tuple[float, float, float] = (0.0, 0.0, 15.0)
    rdars_pos: tuple[float, float, float] = (50.0, 30.0, 15.0)
    ue_pos: tuple[tuple[float, float, float], ...] | None = None
    ue_center: tuple[float, float, float] = (100.0, 0.0, 1.5)
    ue_radius: float = 20.0

    def __post_init__(self):
        for name in ("bs_pos", "rdars_pos", "ue_center", "ue_pos"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(
                    np.asarray(value, dtype=float))):
                raise ScenarioError(f"{name} must be finite, got {value}")
        if self.ue_pos is not None and np.size(self.ue_pos) == 0:
            raise ScenarioError("ue_pos must be at least one x, y, z triple")
        if not (math.isfinite(self.ue_radius) and self.ue_radius >= 0.0):
            raise ScenarioError(
                f"ue_radius must be finite and nonnegative, got {self.ue_radius}")


_INT_KEYS = {"n_tx", "n_elems", "n_connected", "n_ues", "max_outer_iters"}
_FLOAT_KEYS = {"carrier_freq", "spacing", "total_power", "noise_power",
               "ref_pathloss_db", "pathloss_exp_bs_rdars",
               "pathloss_exp_rdars_ue", "conv_threshold"}
_VEC_KEYS = {"bs_pos", "rdars_pos", "ue_center"}
_ALLOWED_KEYS = _INT_KEYS | _FLOAT_KEYS | _VEC_KEYS | {"ue_pos", "ue_radius"}


def _parse_vec3(text: str, key: str, lineno: int) -> tuple[float, float, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ScenarioError(f"line {lineno}: {key} needs 3 comma-separated values")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ScenarioError(f"line {lineno}: bad number in {key}: {exc}") from None


def parse_scenario_text(text: str) -> Scenario:
    """Parse flat ``key = value`` scenario text.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Keys must be SystemConfig field names or one of the placement keys
    (bs_pos, rdars_pos, ue_pos, ue_center, ue_radius); anything else is an
    error, as are duplicate keys.
    """
    cfg_kwargs: dict = {}
    placement: dict = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _ALLOWED_KEYS:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            if key in _INT_KEYS:
                cfg_kwargs[key] = int(value)
            elif key in _FLOAT_KEYS:
                cfg_kwargs[key] = float(value)
            elif key in _VEC_KEYS:
                placement[key] = _parse_vec3(value, key, lineno)
            elif key == "ue_radius":
                placement[key] = float(value)
            elif key == "ue_pos":
                triples = [t for t in (s.strip() for s in value.split(";")) if t]
                placement[key] = tuple(
                    _parse_vec3(t, "ue_pos", lineno) for t in triples
                )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    config = SystemConfig(**cfg_kwargs)
    return Scenario(config=config, **placement)


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        return parse_scenario_text(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def default_scenario() -> Scenario:
    """The scenario shipped with the package (baseline downlink layout)."""
    from importlib.resources import files

    text = files("rdars").joinpath("data/default.cfg").read_text(encoding="utf-8")
    return parse_scenario_text(text)


def drop_ues(center, radius: float, n_ues: int,
             rng: np.random.Generator) -> np.ndarray:
    """Drop UEs uniformly over a horizontal disk around ``center``.

    Radii come out of the generator first, then angles, so downstream
    draws stay aligned no matter how the positions are consumed.
    """
    if radius < 0.0:
        raise ValueError(f"drop radius must be nonnegative, got {radius}")
    if n_ues < 1:
        raise ValueError(f"need at least one UE, got {n_ues}")
    center = np.asarray(center, dtype=float)
    radii = radius * np.sqrt(rng.random(n_ues))
    angles = 2.0 * math.pi * rng.random(n_ues)
    pos = np.tile(center, (n_ues, 1))
    pos[:, 0] += radii * np.cos(angles)
    pos[:, 1] += radii * np.sin(angles)
    return pos


def scenario_geometry(scenario: Scenario, rng: np.random.Generator | None = None) -> Geometry:
    """Geometry for a scenario: explicit UE positions if given, else one
    random drop inside the scenario's circle (requires ``rng``)."""
    if scenario.ue_pos is not None:
        ue = np.asarray(scenario.ue_pos, dtype=float)
    else:
        if rng is None:
            raise ScenarioError("scenario has no ue_pos; an rng is required to drop UEs")
        ue = drop_ues(scenario.ue_center, scenario.ue_radius,
                      scenario.config.n_ues, rng)
    return derive_geometry(scenario.bs_pos, scenario.rdars_pos, ue, scenario.config)
