"""Command-line front end: config ingestion, check orchestration, reports.

``COMMANDS`` maps each command onto its check stages: ``elliptic-check``
exercises the theta-function kernels through the public ``theta11``,
``zeta11`` and ``w_kernel``, one call per kernel per record group,
``describe-algebra`` the root-system tables, ``commute-check`` the family
of transfer operators, ``bethe-solve`` and ``eigen-check`` the Bethe
ansatz layer, and ``full-verify`` chains all of them.  Runs are
deterministic for a fixed config and seed; reports can be emitted as
human-readable text, JSON lines (byte-stable) or CSV; only a CSV report
renders the eigenvalue sweep, so only a CSV run computes it.

``SCHEMA`` holds every config section and key with its default; a value's
parse rule follows its default's type, and ``echo_lines`` its order.  A
config is valid iff it parses, its values are in range, and its instance
builds.  ``load_config`` builds the root system, the curve (theta11'(0)
included), the site modules, the ``GaudinProblem`` and, with a ``[bethe]``
section, the ``BetheSystem``, once; an error the library raises while
building them, such as an unsupported series or Im tau <= 0, becomes a
``ConfigError`` (exit 2).  Each check stage names the section whose built
object it reads, and a command whose stages lack one is a ``ConfigError``
as well, as is a ``pole_guard`` or ``box`` that leaves a sampler no room,
found when a stage samples.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import re
import sys
import time
from typing import NamedTuple

import numpy as np

try:  # the builtin module: hashlib would load OpenSSL's _hashlib too
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from .bethe import BetheError, BetheSystem
from .elliptic import (
    EllipticError,
    ModularData,
    lattice_distance,
    theta11,
    theta11_prime_at_zero,
    w_kernel,
    zeta11,
)
from .gaudin import (
    GaudinError,
    GaudinProblem,
    commutativity_residual,
    composed_residual,
    sample_regular_cartan,
    sample_spectral_points,
    site_depth,
)
from .liealg import (
    LieAlgebraError,
    RootSystemData,
    build_dual_verma,
    build_irrep,
    build_root_system,
    normalized_form,
)

TWO_PI_I = 2j * math.pi

# command -> (the check stages it runs, the stages it adds where the config
# builds what they read)
COMMANDS = {
    "elliptic-check": (("elliptic",), ()),
    "describe-algebra": (("algebra",), ()),
    "commute-check": (("commute",), ()),
    "bethe-solve": (("bethe",), ()),
    "eigen-check": (("bethe", "eigen"), ()),
    "full-verify": (("elliptic", "algebra"), ("commute", "bethe", "eigen")),
}

FORMATS = ("human-text", "json-lines", "csv")


class ConfigError(ValueError):
    """Unusable configuration: parse failure or violated constraint."""


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

# Every config section and key with its default, in the order of
# ``echo_lines``, which each instance digest hashes.  A key's parse rule
# follows its default's type (``_parse_value``).  [sites] has numbered keys
# (``_parse_sites``).
SCHEMA = {
    "algebra": {"series": "A", "rank": 1},
    "elliptic": {"tau": 0.8j},
    "sites": None,
    "bethe": {
        "assignment": "auto",
        "n_seeds": 32,
        "newton_tol": 1e-12,
        "max_iter": 200,
        "max_solutions": 4,
    },
    "tolerances": {
        "commutator": 1e-8,
        "eigen_residual": 1e-7,
        "elliptic_identities": 1e-10,
        "jets": 1e-12,
        "pole_normalization": 1e-12,
        "structure": 1e-12,
    },
    "sampling": {
        "box": 0.8,
        "cartan_count": 5,
        "elliptic_points": 100,
        "jet_points": 5,
        "pair_count": 20,
        "pole_guard": 0.05,
        "sweep_points": 100,
        "u_count": 5,
    },
    "rng": {"seed": 0},
}

# The largest counts a config may ask for: beyond them a run would fill
# memory with its samples or seeds, or run for hours.
_CAPS = {"elliptic_points": 100_000, "sweep_points": 100_000, "n_seeds": 4096}

# the instance's sections: absent, they are None (no sites), not defaults
_INSTANCE_SECTIONS = ("elliptic", "sites", "bethe")
# each held as one dict field of ExperimentConfig; other keys are fields
_DICT_SECTIONS = ("bethe", "tolerances", "sampling")


def parse_complex(text: str) -> complex:
    """Parse ``a+bi`` style literals (plain reals and ``0.8i`` included)."""
    compact = re.sub(r"\s*([+-])\s*", r"\1", text.strip().lower())
    compact = re.sub(r"\s+i$", "i", compact)
    if not compact:
        raise ConfigError("empty complex literal")
    if re.search(r"\s", compact):
        raise ConfigError(f"invalid complex literal {text!r}")
    try:
        value = complex(compact.replace("i", "j"))
    except ValueError:
        raise ConfigError(
            f"invalid complex literal {text!r}; expected forms like "
            "1.5, -0.3i or 0.25+0.8i"
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ConfigError(f"non-finite complex literal {text!r}")
    return value


def format_complex(z: complex) -> str:
    """Canonical ``a+bi`` rendering with full float precision."""
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def _parse_value(section: str, key: str, raw: str, default):
    """One config value, parsed by the type of its default: an integer no
    less than min(1, default), a positive finite float, a complex literal
    or text.  ``assignment`` is 'auto' or simple-root labels."""
    raw = raw.strip()
    if key == "assignment" and raw != "auto":
        try:
            return tuple(int(part) for part in raw.replace(",", " ").split())
        except ValueError:
            raise ConfigError(
                f"[{section}] assignment = {raw!r}: expected 'auto' or "
                "simple-root labels like '1, 1, 2'"
            ) from None
    if isinstance(default, str):
        return raw
    if isinstance(default, complex):
        return parse_complex(raw)
    kind = type(default)
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key} = {raw!r} is not {noun}") from None
    if kind is int and value < min(1, default):
        raise ConfigError(f"[{section}] {key} must be >= {min(1, default)}, got {value}")
    if value > _CAPS.get(key, value):
        raise ConfigError(f"[{section}] {key} must be <= {_CAPS[key]}, got {value}")
    if kind is float and not (math.isfinite(value) and value > 0):
        raise ConfigError(f"[{section}] {key} must be a positive finite number")
    return value


def _echo(value) -> str:
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, tuple):
        return ", ".join(str(i) for i in value)
    return str(value)


class SiteSpec(NamedTuple):
    z: complex
    kind: str  # "irrep" | "dual_verma"
    weight: tuple  # coefficients in the fundamental-weight basis
    depth: int | None = None

    def echo_lines(self, k: int) -> list:
        lines = [
            f"sites.z_{k} = {format_complex(self.z)}",
            f"sites.kind_{k} = {self.kind}",
            f"sites.weight_{k} = " + ", ".join(format_complex(w) for w in self.weight),
        ]
        if self.depth is not None:
            lines.append(f"sites.depth_{k} = {self.depth}")
        return lines


class ExperimentConfig:
    """The settings of one config, a field per ``SCHEMA`` key (a dict per
    section in ``_DICT_SECTIONS``), and the instance they build."""

    def __init__(self, path: str, series: str, rank: int, tolerances: dict,
                 sampling: dict, seed: int, tau: complex | None = None,
                 sites: list = (), bethe: dict | None = None):
        self.path, self.series, self.rank, self.seed = path, series, rank, seed
        self.tolerances, self.sampling, self.bethe = tolerances, sampling, bethe
        self.tau, self.sites = tau, list(sites)
        # the instance, built once by load_config; None where a section is absent
        self.rs = self.md = self.problem = self.system = None

    def echo_lines(self):
        """Effective settings, defaults materialized, in ``SCHEMA`` order."""
        lines = []
        for section, keys in SCHEMA.items():
            if section == "sites":
                if self.sites:
                    lines.append(f"sites.count = {len(self.sites)}")
                for k, site in enumerate(self.sites, start=1):
                    lines += site.echo_lines(k)
                continue
            values = (getattr(self, section) if section in _DICT_SECTIONS
                      else {key: getattr(self, key) for key in keys})
            if values is not None and None not in values.values():
                lines += [f"{section}.{key} = {_echo(values[key])}" for key in keys]
        return lines


def _parse_sites(section, rank: int) -> list:
    if "count" not in section:
        raise ConfigError("[sites] requires a count key")
    count = _parse_value("sites", "count", section["count"], 1)
    for key in section:
        # z_k, kind_k, weight_k or depth_k, k in 1..count with no leading
        # zero, read off the key: the work stays with the keys given
        name, _, k = key.rpartition("_")
        numbered = k.isdecimal() and len(k) <= len(str(count)) and k == str(int(k))
        known = name in ("z", "kind", "weight", "depth") and numbered and 1 <= int(k) <= count
        if key != "count" and not known:
            raise ConfigError(f"unknown key {key!r} in section [sites]")
    sites = []
    for k in range(1, count + 1):
        for required in (f"z_{k}", f"kind_{k}", f"weight_{k}"):
            if required not in section:
                raise ConfigError(f"[sites] missing key {required}")
        z = parse_complex(section[f"z_{k}"])
        kind = section[f"kind_{k}"].strip()
        if kind not in ("irrep", "dual_verma"):
            raise ConfigError(
                f"[sites] kind_{k} must be irrep or dual_verma, got {kind!r}"
            )
        coeffs = [
            parse_complex(part)
            for part in section[f"weight_{k}"].split(",")
            if part.strip()
        ]
        if len(coeffs) != rank:
            raise ConfigError(
                f"[sites] weight_{k} needs {rank} fundamental-weight "
                f"coefficients, got {len(coeffs)}"
            )
        depth = None
        if kind == "irrep":
            if f"depth_{k}" in section:
                raise ConfigError(
                    f"[sites] depth_{k} is only meaningful for dual_verma sites"
                )
            ints = []
            for c in coeffs:
                n = round(c.real)
                if abs(c - n) > 1e-9 or n < 0:
                    raise ConfigError(
                        f"[sites] weight_{k} of an irrep site must be "
                        "non-negative integers"
                    )
                ints.append(n)
            coeffs = ints
        else:
            if f"depth_{k}" not in section:
                raise ConfigError(
                    f"[sites] dual_verma site {k} requires depth_{k}"
                )
            depth = _parse_value("sites", f"depth_{k}", section[f"depth_{k}"], 1)
        sites.append(SiteSpec(z=z, kind=kind, weight=tuple(coeffs), depth=depth))
    return sites


def load_config(path: str) -> ExperimentConfig:
    """Parse an experiment config, materializing defaults, and build it.

    A config loads iff it parses, its values are in range and its instance
    builds; every refusal is a ConfigError.
    """
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path!r}: {exc}") from None

    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if SCHEMA[section] is not None and key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    fields = {}
    for section, defaults in SCHEMA.items():
        if not parser.has_section(section) and section in _INSTANCE_SECTIONS:
            continue
        given = parser[section] if parser.has_section(section) else {}
        if section == "sites":
            if "tau" not in fields:
                raise ConfigError("[sites] requires an [elliptic] section with tau")
            fields["sites"] = _parse_sites(given, fields["rank"])
            continue
        if section == "bethe" and "sites" not in fields:
            raise ConfigError("[bethe] requires a [sites] section")
        values = {
            key: _parse_value(section, key, given[key], default)
            if key in given else default
            for key, default in defaults.items()
        }
        if section in _DICT_SECTIONS:
            fields[section] = values
        else:
            fields.update(values)
    if fields["sampling"]["pole_guard"] >= 0.5:
        # the cell samples keep pole_guard away from each edge of the cell
        raise ConfigError(
            "[sampling] pole_guard must be below 0.5, got "
            f"{fields['sampling']['pole_guard']}"
        )

    cfg = ExperimentConfig(path=path, **fields)
    try:
        _build_instance(cfg)
    except (LieAlgebraError, GaudinError, BetheError, EllipticError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _build_instance(cfg: ExperimentConfig) -> None:
    """Root system, curve, site modules, Gaudin problem and Bethe system."""
    cfg.rs = build_root_system(cfg.series, cfg.rank)
    if cfg.tau is not None:
        cfg.md = ModularData(cfg.tau)
        theta11_prime_at_zero(cfg.md)  # refuses a tau whose series cancels
    if cfg.sites:
        weights = [cfg.rs.weight_from_fundamental(site.weight) for site in cfg.sites]
        # a dual Verma site is exact at depth M + ht(theta) and only grows
        # deeper, so every one is built there; depth_k has to reach it
        depth = site_depth(cfg.rs, weights, [site.depth for site in cfg.sites])
        modules = [
            build_irrep(cfg.rs, lam) if site.kind == "irrep"
            else build_dual_verma(cfg.rs, lam, depth)
            for site, lam in zip(cfg.sites, weights)
        ]
        cfg.problem = GaudinProblem(
            cfg.rs,
            cfg.md,
            [site.z for site in cfg.sites],
            modules,
        )
    if cfg.bethe is not None:
        assignment = cfg.bethe["assignment"]
        cfg.system = BetheSystem(
            cfg.problem,
            assignment=None if assignment == "auto" else tuple(
                i - 1 for i in assignment
            ),
        )


# --------------------------------------------------------------------------
# report plumbing
# --------------------------------------------------------------------------


class CheckRecord(NamedTuple):
    name: str
    instance: str
    residual: float
    tolerance: float
    passed: bool
    wall: float = 0.0
    note: str = ""


class Report:
    def __init__(self, command: str, instance: str, echo_lines: list,
                 records: list = (), sweep: list | None = None):
        self.command, self.instance, self.echo_lines = command, instance, echo_lines
        self.records = list(records)
        self.sweep = sweep  # rows (u, Re tau_Psi, Im tau_Psi)

    @property
    def verdict(self) -> bool:
        return all(record.passed for record in self.records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.name)


def _instance_digest(cfg: ExperimentConfig, command: str, negative: bool) -> str:
    payload = "\n".join(
        [command, f"negative-control={negative}", *cfg.echo_lines()]
    )
    return sha256(payload.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------------
# check runner
# --------------------------------------------------------------------------


# Cauchy-contour oracle (Bornemann 2011): 16 trapezoidal points on a circle
# of radius min(0.05, d/8), d the distance to the nearest pole, so the sum
# aliases at relative order 8**-16.  Above 0.05, theta's high-frequency
# terms alias at large Im tau.
_CONTOUR_POINTS = 16


def _contour_radius(distance):
    return np.minimum(0.05, distance / 8)


_UNIT = np.exp(2j * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS)


def _ring(z0, r) -> np.ndarray:
    """The contour |z - z0| = r along the last axis, per (z0, r) of scalars
    or arrays broadcast together."""
    return np.asarray(z0)[..., None] + np.asarray(r)[..., None] * _UNIT


def _contour_coeffs(vals: np.ndarray, r: float) -> dict:
    """{k: (a_k, max|f|/r^k)} for k = -1..2: the Laurent coefficients of f
    about z0 by the trapezoidal rule on |z - z0| = r, each with its Cauchy
    bound, from f's values on ``_ring(z0, r)``, which callers take for all
    their rings in one kernel call per function.  The four DFT terms are
    summed directly; numpy.fft would load one more extension module (about
    0.5 MB) on every run."""
    peak = float(np.abs(vals).max())
    return {k: (vals @ _UNIT**-k / _CONTOUR_POINTS / r**k, peak / r**k)
            for k in (-1, 0, 1, 2)}


def _contour_error(coeffs: dict, expected: dict) -> float:
    """Largest |expected[k] - a_k| in units of the Cauchy bound of a_k."""
    return np.max([abs(v - coeffs[k][0]) / coeffs[k][1] for k, v in expected.items()])


def _rel(values, references, floor: float = 1e-30) -> float:
    """Largest relative deviation of values from references."""
    return float(
        np.max(np.abs(values - references) / np.maximum(np.abs(references), floor))
    )


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, step: int):
    """SeedSequence's hash: each call XORs a 32-bit word with a running
    constant, advances the constant by ``step`` and multiplies by it."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * step & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


class _Uniforms:
    """The stream of ``numpy.random.default_rng(seed).uniform``, reproduced
    to the bit without loading ``numpy.random``.  SeedSequence hash-mixes
    the seed's little-endian 32-bit words into a pool of four and draws
    four 64-bit words from it; PCG64 (XSL-RR 128/64) takes two as its
    state and two as its increment; a draw is low + (high - low) x 2^-53,
    x the top 53 bits of the generator's next 64-bit output."""

    def __init__(self, seed: int):
        words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
        hashmix = _hashmix(0x43B0D7E5, 0x931E8875)

        def mix(x, y):
            value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
            return value ^ value >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        out = _hashmix(0x8B51F9DD, 0x58F38DED)
        state = [out(pool[i % 4]) for i in range(8)]
        s0, s1, s2, s3 = (state[2 * i] | state[2 * i + 1] << 32 for i in range(4))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = (self._inc + (s0 << 64 | s1)) & _MASK128  # a first step from 0 gives inc
        self._next64()

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (x >> rot | x << (-rot & 63)) & _MASK64

    def uniform(self, low: float, high: float, size: int | None = None):
        """One float, or an array of ``size``, uniform in [low, high)."""
        if size is None:
            return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)
        return np.array([self.uniform(low, high) for _ in range(size)], dtype=float)


# stage -> (the config section it needs, the built object it reads)
_STAGE_NEEDS = {
    "elliptic": ("an [elliptic]", "md"),
    "commute": ("a [sites]", "problem"),
    "bethe": ("a [bethe]", "system"),
    "eigen": ("a [bethe]", "system"),
}


class CheckRunner:
    """Executes the per-command check stages against one config."""

    def __init__(self, cfg: ExperimentConfig, command: str, negative: bool,
                 sweep: bool = False):
        self.cfg = cfg
        self.command = command
        self.negative = negative
        self.sweep = sweep  # whether the report renders the eigenvalue sweep
        self.rng = _Uniforms(cfg.seed)
        self.report = Report(
            command=command,
            instance=_instance_digest(cfg, command, negative),
            echo_lines=cfg.echo_lines(),
        )
        self.rs = cfg.rs
        self.md = cfg.md
        self.problem = cfg.problem
        self.system = cfg.system
        self._solutions = None
        self._mark = time.perf_counter()  # start of the current record's wall

    # -- record helpers -------------------------------------------------------

    def _record(self, name, residual, tolerance, note="", passed=None):
        """Append a check record; its wall time runs from the stage's
        previous record, or from the stage start for the first one."""
        residual = float(residual)
        if passed is None:
            passed = residual <= tolerance
        now = time.perf_counter()
        wall = now - self._mark
        self._mark = now
        self.report.records.append(
            CheckRecord(
                name=name,
                instance=self.report.instance,
                residual=residual,
                tolerance=float(tolerance),
                passed=bool(passed),
                wall=wall,
                note=note,
            )
        )

    def _stage(self, name, fn):
        """Run one stage; failures become failing records, not aborts."""
        self._mark = time.perf_counter()
        try:
            fn()
        except ConfigError:
            raise
        except (EllipticError, LieAlgebraError, GaudinError, BetheError,
                ValueError, ArithmeticError) as exc:
            self._record(
                f"{name}/error",
                math.inf,
                0.0,
                note=f"{type(exc).__name__}: {exc}",
                passed=False,
            )

    # -- sampling helpers ------------------------------------------------------

    def _cell_points(self, count: int):
        """Points x + y*tau with x, y uniform away from the cell boundary."""
        guard = self.cfg.sampling["pole_guard"]
        lo, hi = max(guard, 0.05), 1 - max(guard, 0.05)
        xs = self.rng.uniform(lo, hi, size=count)
        ys = self.rng.uniform(lo, hi, size=count)
        return xs + ys * self.md.tau

    def _spectral_points(self, avoid, count: int):
        """``count`` spectral parameters at least pole_guard from each point
        of ``avoid`` modulo the lattice; a guard that leaves them no room
        in the cell is the config's error, not a failed check."""
        guard = self.cfg.sampling["pole_guard"]
        try:
            return sample_spectral_points(self.md, avoid, self.rng, count, guard=guard)
        except GaudinError as exc:
            raise ConfigError(
                f"[sampling] pole_guard = {guard} leaves no room in the cell: {exc}"
            ) from None

    def _cartan_points(self):
        """``cartan_count`` regular Cartan points; a box or pole_guard that
        leaves none is the config's error, not a failed check."""
        s = self.cfg.sampling
        try:
            return sample_regular_cartan(
                self.rs, self.md, self.rng, s["cartan_count"], s["box"], s["pole_guard"]
            )
        except GaudinError as exc:
            raise ConfigError(
                f"[sampling] box and pole_guard leave no room for regular Cartan points: {exc}"
            ) from None

    # -- stages ----------------------------------------------------------------

    def stage_elliptic(self):
        md = self.md
        tol_id = self.cfg.tolerances["elliptic_identities"]
        tol_pole = self.cfg.tolerances["pole_normalization"]
        tol_jets = self.cfg.tolerances["jets"]
        n = self.cfg.sampling["elliptic_points"]
        zs = self._cell_points(n)
        cs = self._cell_points(n)

        # theta, zeta and w at z, z + 1 and z + tau, one kernel call per
        # function over all sample points and shifts
        points = np.concatenate([zs + shift for shift in (0, 1, md.tau)])
        th = theta11(points, md).value.reshape(3, n)
        ze = zeta11(points, md).value.reshape(3, n)
        wv = w_kernel(np.tile(cs, 3), points, md).value.reshape(3, n)
        factor = -np.exp(-1j * math.pi * md.tau - TWO_PI_I * zs)
        worst = {
            "theta-period-1": _rel(th[1], -th[0]),
            "theta-period-tau": _rel(th[2], factor * th[0]),
            "zeta-period-1": _rel(ze[1], ze[0]),
            "zeta-period-tau": float(np.max(np.abs(ze[2] - (ze[0] - TWO_PI_I))))
            / abs(TWO_PI_I),
            "w-period-1": _rel(wv[1], wv[0]),
            "w-period-tau": _rel(wv[2], np.exp(TWO_PI_I * cs) * wv[0]),
        }
        for key in sorted(worst):
            self._record(
                f"elliptic/{key}",
                worst[key],
                tol_id,
                note=f"max over {n} points",
            )

        # Pole normalizations: the residues of zeta(z), w_c(z) in z and
        # w_c(z) in c at 0 are 1, 1 and -1.
        (n1, m1), _ = md.basis
        r0 = _contour_radius(abs(n1 + m1 * md.tau))
        ring = _ring(0, r0)
        zeta = zeta11(ring, md).value
        # (c, z) on the ring about z = 0, then on the ring about c = 0
        c = np.stack(np.broadcast_arrays(cs[0], ring))
        z = np.stack(np.broadcast_arrays(ring, zs[0]))
        w_z, w_c = w_kernel(c, z, md).value
        pole_res = np.max([
            _contour_error(_contour_coeffs(vals, r0), {-1: target})
            for vals, target in ((zeta, 1), (w_z, 1), (w_c, -1))
        ])
        self._record(
            "elliptic/pole-normalization",
            pole_res,
            tol_pole,
            note="z*zeta(z)->1, z*w_c(z)->1, c*w_c(z)->-1 by contour",
        )

        # Jets against contour coefficients: theta and zeta in z, w in c, w
        # in z, and w along the diagonal (c + h, z + h), whose h^2
        # coefficient is a20 + a11 + a02.  Theta, zeta and w take one call
        # each for the jets at every point and one for all the rings.
        k = min(self.cfg.sampling["jet_points"], n)
        z, c = zs[:k], cs[:k]
        rz, rc = (_contour_radius(lattice_distance(x, md)) for x in (z, c))
        rh = np.minimum(rz, rc)
        jt = theta11(z, md, 2).coeff
        jz = zeta11(z, md, 2).coeff
        jw = w_kernel(c, z, md, 2).coeff
        rings, h = _ring(z, rz), _ring(0, rh)
        # (c, z) on the rings about c, about z and along the diagonal
        cw = np.stack(np.broadcast_arrays(_ring(c, rc), c[:, None], c[:, None] + h))
        zw = np.stack(np.broadcast_arrays(z[:, None], rings, z[:, None] + h))
        w_c, w_z, w_h = w_kernel(cw, zw, md).value
        families = [
            (theta11(rings, md).value, rz, {1: jt((1,)), 2: jt((2,))}),
            (zeta11(rings, md).value, rz, {1: jz((1,)), 2: jz((2,))}),
            (w_c, rc, {1: jw((1, 0)), 2: jw((2, 0))}),
            (w_z, rz, {1: jw((0, 1)), 2: jw((0, 2))}),
            (w_h, rh, {2: jw((2, 0)) + jw((1, 1)) + jw((0, 2))}),
        ]
        jet_res = np.max([
            _contour_error(_contour_coeffs(vals[i], r), {p: v[i] for p, v in want.items()})
            for vals, radii, want in families for i, r in enumerate(radii.tolist())
        ])
        self._record(
            "elliptic/jets-vs-contour",
            jet_res,
            tol_jets,
            note=f"theta, zeta and w jets at {k} points",
        )

    def stage_algebra(self):
        rs = self.rs
        tol = self.cfg.tolerances["structure"]
        ortho = 0.0
        for r in range(rs.rank):
            for s in range(rs.rank):
                val = normalized_form(rs.h_ortho[r], rs.h_ortho[s], rs)
                ortho = np.maximum(ortho, abs(val - (1.0 if r == s else 0.0)))
        self._record(
            "algebra/cartan-orthonormal",
            ortho,
            tol,
            note="normalized invariant form on the orthonormal Cartan basis",
        )
        rho_res = float(
            np.max(
                np.abs(rs.rho - 0.5 * np.sum(np.asarray(rs.positive_roots), axis=0))
            )
        )
        self._record(
            "algebra/rho-half-sum",
            rho_res,
            tol,
            note="rho equals half the sum of positive roots",
        )

    def stage_commute(self):
        """One ``commutativity_residual`` call over pair_count pairs of
        spectral points, and the first pair at the first Cartan point again
        by generic composition, a route independent of the closed form."""
        h_points = self._cartan_points()
        n_pairs = self.cfg.sampling["pair_count"]
        us = self._spectral_points(self.problem.positions, 2 * n_pairs)
        res = commutativity_residual(self.problem, us[0::2], us[1::2], h_points)
        spot = composed_residual(self.problem, us[0], us[1], h_points[0])
        self._record(
            "commute/distinct-points",
            np.maximum(res["max_rel"], spot),
            self.cfg.tolerances["commutator"],
            note=f"max over {n_pairs} spectral-parameter pairs",
        )

    def stage_bethe(self):
        system = self.system
        bcfg = self.cfg.bethe
        if system.M == 0:
            self._solutions = [np.zeros(0, dtype=complex)]
            self._record(
                "bethe/root-residual-00",
                0.0,
                bcfg["newton_tol"],
                note="no Bethe roots required (zero total charge)",
            )
            return
        guard = self.cfg.sampling["pole_guard"]
        sols = system.solve(
            n_seeds=bcfg["n_seeds"],
            tol=bcfg["newton_tol"],
            max_iter=bcfg["max_iter"],
            guard=guard,
        )
        if not sols:
            self._solutions = []
            n = bcfg["n_seeds"]
            ran = len(system.screened_seeds(n, guard))
            note = (
                f"no Bethe roots found from {ran} of {n} seeds; {n - ran} had a root "
                f"within [sampling] pole_guard = {guard} of a site or another root"
            )
            self._record("bethe/no-solution", math.inf, bcfg["newton_tol"], note, False)
            return
        self._solutions = [sol.t for sol in sols[: bcfg["max_solutions"]]]
        for idx, sol in enumerate(sols[: bcfg["max_solutions"]]):
            roots = ", ".join(format_complex(t) for t in sol.t)
            self._record(
                f"bethe/root-residual-{idx:02d}",
                sol.residual,
                bcfg["newton_tol"],
                note=f"t = ({roots}); {sol.iterations} Newton steps",
            )

    def stage_eigen(self):
        system = self.system
        if not self._solutions:
            return  # the Bethe stage recorded its failure or found no solution
        tol = self.cfg.tolerances["eigen_residual"]
        sampling = self.cfg.sampling
        note = ""
        stack = np.array(self._solutions, dtype=complex)
        if self.negative:
            if stack.shape[1] == 0:
                raise ConfigError("--negative-control requires at least one Bethe root")
            stack[:, 0] += 1e-3
            note = "roots deliberately perturbed by 1e-3 (negative control)"
        # every solution's samples first, in the order of the random stream,
        # each solution's as one array, then one check for all of them
        h_points, u_points = [], []
        for roots in stack:
            h_points.append(np.array(self._cartan_points()))
            avoid = list(self.problem.positions) + list(roots)
            u_points.append(np.array(self._spectral_points(avoid, sampling["u_count"])))
        results = system.verify_eigenvector(stack, h_points, u_points)
        for idx, result in enumerate(results):
            if result["status"] == "inconclusive":
                # no eigenvector was checked, so the record cannot pass
                self._record(
                    f"eigen/residual-{idx:02d}",
                    0.0,
                    tol,
                    note="inconclusive: eigenvector vanished at all samples",
                    passed=False,
                )
                continue
            self._record(
                f"eigen/residual-{idx:02d}",
                result["max_rel"],
                tol,
                note=note
                or (
                    f"max over {sampling['cartan_count']} Cartan x "
                    f"{sampling['u_count']} spectral samples"
                ),
            )
        if self.sweep:
            self._build_sweep()

    def _build_sweep(self):
        """Eigenvalue sweep over a monotone grid of spectral parameters."""
        if not self._solutions:
            return
        t = np.array(self._solutions[0], dtype=complex)
        n = self.cfg.sampling["sweep_points"]
        guard = self.cfg.sampling["pole_guard"]
        poles = np.concatenate([self.problem.positions, t])
        tau = self.md.tau
        offset = None
        for step in range(40):
            y = 0.29 + 0.017 * step
            candidate = np.array(
                [complex((k + 0.5) / n) + y * tau for k in range(n)]
            )
            dist = lattice_distance(candidate[:, None] - poles[None, :], self.md)
            if np.all(dist >= guard):
                offset = candidate
                break
        if offset is None:
            return
        (values,) = self.system.eigenvalue(t[None], offset[None])
        self.report.sweep = [
            (u, value.real, value.imag)
            for u, value in zip(offset.tolist(), values.tolist())
        ]

    # -- dispatch ---------------------------------------------------------------

    def run(self) -> Report:
        stages, optional = COMMANDS[self.command]
        plan = list(stages) + [
            name for name in optional
            if getattr(self, _STAGE_NEEDS[name][1]) is not None
        ]
        for name in plan:
            if name in _STAGE_NEEDS:
                section, built = _STAGE_NEEDS[name]
                if getattr(self, built) is None:
                    raise ConfigError(
                        f"command {self.command} requires {section} section"
                    )
        if self.negative and not {"bethe", "eigen"} & set(plan):
            raise ConfigError(
                "--negative-control only applies to eigen-check or full-verify "
                "with a [bethe] section"
            )
        for name in plan:
            self._stage(name, getattr(self, f"stage_{name}"))
        return self.report


def run(command: str, cfg: ExperimentConfig, negative_control: bool = False,
        sweep: bool = False) -> Report:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    return CheckRunner(cfg, command, negative_control, sweep).run()


# --------------------------------------------------------------------------
# emission
# --------------------------------------------------------------------------


def render_text(report: Report) -> str:
    out = io.StringIO()
    out.write(f"ellgaudin {report.command}\n")
    out.write(f"instance {report.instance}\n")
    out.write("config:\n")
    for line in report.echo_lines:
        out.write(f"  {line}\n")
    out.write("checks:\n")
    records = report.sorted_records()
    if not records:
        out.write("  (none)\n")
    for rec in records:
        status = "PASS" if rec.passed else "FAIL"
        out.write(
            f"  {status} {rec.name}  residual={rec.residual:.3e}  "
            f"tolerance={rec.tolerance:.3e}  wall={rec.wall:.2f}s\n"
        )
        if rec.note:
            out.write(f"       {rec.note}\n")
    n_pass = sum(1 for rec in records if rec.passed)
    verdict = "PASS" if report.verdict else "FAIL"
    out.write(f"verdict: {verdict} ({n_pass}/{len(records)} checks)\n")
    return out.getvalue()


def render_jsonl(report: Report) -> str:
    """One record per check; wall time excluded so output is byte-stable."""
    lines = []
    for rec in report.sorted_records():
        lines.append(
            json.dumps(
                {
                    "instance": rec.instance,
                    "name": rec.name,
                    "note": rec.note,
                    "pass": rec.passed,
                    "residual": rec.residual,
                    "tolerance": rec.tolerance,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def render_csv(report: Report) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["name", "instance", "residual", "tolerance", "pass", "note"])
    for rec in report.sorted_records():
        writer.writerow(
            [
                rec.name,
                rec.instance,
                repr(rec.residual),
                repr(rec.tolerance),
                "true" if rec.passed else "false",
                rec.note,
            ]
        )
    return out.getvalue()


def render_sweep_csv(report: Report) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["u", "re_tau_psi", "im_tau_psi"])
    for u, re_val, im_val in report.sweep or []:
        writer.writerow([format_complex(u), repr(re_val), repr(im_val)])
    return out.getvalue()


def emit(report: Report, fmt: str, out_dir: str | None = None) -> dict:
    """Render the report; returns {filename: content} ('' means stdout)."""
    if fmt == "human-text":
        files = {"report.txt": render_text(report)}
    elif fmt == "json-lines":
        files = {"report.jsonl": render_jsonl(report)}
    elif fmt == "csv":
        files = {"report.csv": render_csv(report)}
        if report.sweep is not None:
            files["sweep.csv"] = render_sweep_csv(report)
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out_dir is None:
        return files
    os.makedirs(out_dir, exist_ok=True)
    for name, content in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            handle.write(content)
    return files


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellgaudin",
        description=(
            "Verification workflows for elliptic Gaudin transfer operators "
            "and their Bethe eigenvectors."
        ),
    )
    parser.add_argument("command", choices=COMMANDS, help="workflow to run")
    parser.add_argument(
        "--config", required=True, help="path to the experiment config file"
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="human-text",
        help="report format (default: human-text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for report files (default: print to stdout)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config rng seed"
    )
    parser.add_argument(
        "--negative-control",
        action="store_true",
        help="perturb the Bethe roots so the eigenvector check must fail",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be a non-negative integer")
            cfg.seed = args.seed
        report = run(args.command, cfg, negative_control=args.negative_control,
                     sweep=args.format == "csv")
        files = emit(report, args.format, args.out)
    except ConfigError as exc:
        print(f"ellgaudin: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ellgaudin: cannot write output: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        sys.stdout.write("\n".join(files.values()))
    else:
        names = ", ".join(sorted(files))
        print(f"wrote {names} to {args.out}")
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
