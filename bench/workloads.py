"""Workload definitions: which `ellgaudin` jobs a benchmark round runs.

A job is one cold `ellgaudin <command> --config <file>` invocation.  Jobs
carry the config text they run plus what the independent checks need to
know about the instance (tau, site positions, weights in fundamental
coordinates, Bethe root labels).  Seeded instances draw their free
parameters from `random.Random` keyed by the instance name and the
benchmark seed (for bethe-large, a weight draw the seed picks), so the
same seed always yields the same configs.
"""

from __future__ import annotations

import configparser
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("shipped", "commute-large", "bethe-large")

SHIPPED_CONFIGS = (
    "a1_bethe_m1.ini",
    "a1_bethe_m1_sym.ini",
    "a1_bethe_m2.ini",
    "a1_n2_fund.ini",
    "a1_n3_mixed.ini",
    "a2_n2_33bar.ini",
)

# Sampling for the large commute instances: every sample point costs one
# full commutator evaluation, so fewer pairs than the shipped default of 20
# keep a round inside the run budget while every pair still checks the
# theorem.
COMMUTE_LARGE_SAMPLING = {"cartan_count": 5, "pair_count": 8}


@dataclass
class Job:
    """One CLI invocation and what its independent checks need."""

    name: str
    command: str
    config_text: str
    tau: complex
    positions: list
    # fundamental-weight coefficients per site (dual Verma sites only)
    weights: list = field(default_factory=list)
    # simple-root label (1-based) of each Bethe root, in solver order
    assignment: tuple = ()
    # instance has a closed-form Bethe root (z_1 + z_2)/2 + 1/2
    symmetric_root: bool = False
    # a config refusal (exit 2) also counts as a correct outcome
    refusal_ok: bool = False
    # the fault this job trips today, if any (printed when it fails)
    known_fault: str = ""


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def lattice_distance(a: complex, b: complex, tau: complex) -> float:
    """Distance between a and b modulo the lattice Z + Z*tau."""
    d = a - b
    n = math.floor(d.imag / tau.imag)
    d -= n * tau
    d -= math.floor(d.real)
    return min(abs(d - m - k * tau) for m in (-1, 0, 1, 2) for k in (-1, 0, 1, 2))


def _positions(rng: random.Random, count: int, tau: complex, min_dist: float):
    """Sites z = x + y*tau, pairwise at least min_dist apart mod the lattice."""
    for _ in range(10_000):
        zs = [
            complex(round(rng.uniform(0.0, 1.0), 6))
            + round(rng.uniform(0.1, 0.9), 6) * tau
            for _ in range(count)
        ]
        if all(
            lattice_distance(zs[a], zs[b], tau) >= min_dist
            for a in range(count)
            for b in range(a + 1, count)
        ):
            return zs
    raise RuntimeError("could not place sites")


def _config(tau, sites, seed, bethe=None, sampling=None, tolerances=None,
            rank=1, comment=""):
    """INI text in the format `ellgaudin.cli.load_config` reads."""
    lines = [f"# {comment}"] if comment else []
    lines += ["[algebra]", "series = A", f"rank = {rank}", ""]
    lines += ["[elliptic]", f"tau = {_fmt(tau)}", ""]
    lines += ["[sites]", f"count = {len(sites)}"]
    for k, (z, kind, weight, depth) in enumerate(sites, start=1):
        lines.append(f"z_{k} = {_fmt(z)}")
        lines.append(f"kind_{k} = {kind}")
        lines.append(f"weight_{k} = " + ", ".join(_fmt(w) for w in weight))
        if depth is not None:
            lines.append(f"depth_{k} = {depth}")
    for section, values in (
        ("bethe", bethe), ("sampling", sampling), ("tolerances", tolerances)
    ):
        if values:
            lines += ["", f"[{section}]"]
            lines += [f"{key} = {value}" for key, value in values.items()]
    lines += ["", "[rng]", f"seed = {seed}", ""]
    return "\n".join(lines)


def _weight(rng: random.Random, lo: float, hi: float, spread: float) -> complex:
    return complex(round(rng.uniform(lo, hi), 4), round(rng.uniform(-spread, spread), 4))


# --------------------------------------------------------------------------
# shipped: full-verify on every config in configs/
# --------------------------------------------------------------------------


def shipped_jobs(root: str) -> list:
    jobs = []
    for name in SHIPPED_CONFIGS:
        path = os.path.join(root, "configs", name)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        parser = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=("#", ";")
        )
        parser.read_string(text)
        tau = complex(parser["elliptic"]["tau"].replace("i", "j"))
        sites = parser["sites"]
        count = int(sites["count"])
        positions = [
            complex(sites[f"z_{k}"].replace("i", "j").replace(" ", ""))
            for k in range(1, count + 1)
        ]
        weights, assignment = [], ()
        if parser.has_section("bethe"):
            if parser["algebra"]["rank"].strip() != "1":
                raise ValueError(f"{name}: Bethe labels are derived for rank 1 only")
            weights = [
                tuple(
                    complex(part.strip().replace("i", "j"))
                    for part in sites[f"weight_{k}"].split(",")
                )
                for k in range(1, count + 1)
            ]
            # rank 1: every root carries label 1; the charge fixes M
            total = sum(w[0] for w in weights)
            assignment = (1,) * round(total.real / 2)
        jobs.append(
            Job(
                name=f"shipped/{name[:-4]}",
                command="full-verify",
                config_text=text,
                tau=tau,
                positions=positions,
                weights=weights,
                assignment=assignment,
                symmetric_root=name == "a1_bethe_m1_sym.ini",
            )
        )
    return jobs


# --------------------------------------------------------------------------
# commute-large: irreducible sites beyond every shipped size
# --------------------------------------------------------------------------


def commute_large_jobs(seed: int) -> list:
    specs = [
        # name, rank, tau, site highest weights, min site distance
        ("a2_3_3bar_adj", 2, 0.8j, [(1, 0), (0, 1), (1, 1)], 0.2),
        ("a2_3_3_3bar_3bar", 2, 0.8j, [(1, 0), (1, 0), (0, 1), (0, 1)], 0.2),
        ("a3_4_4bar", 3, 0.8j, [(1, 0, 0), (0, 0, 1)], 0.2),
        ("a1_n4_thin", 1, 0.3 + 0.06j, [(1,)] * 4, 0.08),
    ]
    jobs = []
    for name, rank, tau, weights, min_dist in specs:
        rng = random.Random(f"commute-large/{name}/{seed}")
        zs = _positions(rng, len(weights), tau, min_dist)
        sites = [(z, "irrep", w, None) for z, w in zip(zs, weights)]
        text = _config(
            tau, sites, seed, sampling=COMMUTE_LARGE_SAMPLING, rank=rank,
            comment=f"commute-large {name}, benchmark seed {seed}",
        )
        jobs.append(
            Job(
                name=f"commute-large/{name}",
                command="commute-check",
                config_text=text,
                tau=tau,
                positions=zs,
            )
        )
    return jobs


# --------------------------------------------------------------------------
# bethe-large: dual-Verma Bethe instances, two of them known faults
# --------------------------------------------------------------------------

# Site positions are fixed (those of the shipped Bethe configs plus one);
# the seed draws the weights.
FIXED_Z = (0.11, 0.43 + 0.27j)
FIXED_Z3 = (0.11, 0.43 + 0.27j, 0.74 + 0.58j)


# The seeded instances draw their weights from a numbered list of random
# draws.  About one M = 3 draw in ten sends a Newton step far enough out
# that theta11 overflows, and BetheSystem._newton does not catch the
# OverflowError (the fault the fixed a2_m3_overflow job measures).  A job
# that fails on some seeds only cannot be compared between runs, so the
# draws that fail at the time of writing are skipped; every remaining draw
# was run through eigen-check and passes.  A config depends on its draw
# alone (its [rng] seed is the draw number), so each benchmark seed maps
# to one checked config.
BETHE_DRAWS = 32
SKIPPED_DRAWS = {"a1_n3_m3": frozenset({0, 14, 22}), "a2_m2": frozenset({22})}


def bethe_draw(instance: str, seed: int) -> int:
    usable = [k for k in range(BETHE_DRAWS) if k not in SKIPPED_DRAWS[instance]]
    return usable[seed % len(usable)]


def a1_n3_m3_job(draw: int) -> Job:
    """Rank 1, three sites, M = 3: fundamental coefficients sum to 2M = 6."""
    rng = random.Random(f"bethe-large/a1_n3_m3/{draw}")
    c1 = _weight(rng, 1.6, 2.4, 0.4)
    c2 = _weight(rng, 1.6, 2.4, 0.4)
    weights = [(c1,), (c2,), (6 - c1 - c2,)]
    sites = [(z, "dual_verma", w, 4) for z, w in zip(FIXED_Z3, weights)]
    return Job(
        name="bethe-large/a1_n3_m3",
        command="eigen-check",
        config_text=_config(
            0.8j, sites, draw, bethe={"assignment": "1, 1, 1"},
            comment=f"bethe-large a1_n3_m3, weight draw {draw}",
        ),
        tau=0.8j,
        positions=list(FIXED_Z3),
        weights=weights,
        assignment=(1, 1, 1),
    )


def a2_m2_job(draw: int) -> Job:
    """Rank 2, two sites, M = 2: lam_2 = w_1 + w_2 - lam_1."""
    rng = random.Random(f"bethe-large/a2_m2/{draw}")
    lam1 = (_weight(rng, 0.25, 0.75, 0.25), _weight(rng, 0.25, 0.75, 0.25))
    lam2 = (1 - lam1[0], 1 - lam1[1])
    sites = [(FIXED_Z[0], "dual_verma", lam1, 4),
             (FIXED_Z[1], "dual_verma", lam2, 4)]
    return Job(
        name="bethe-large/a2_m2",
        command="eigen-check",
        config_text=_config(
            0.8j, sites, draw, bethe={"assignment": "1, 2"}, rank=2,
            comment=f"bethe-large a2_m2, weight draw {draw}",
        ),
        tau=0.8j,
        positions=list(FIXED_Z),
        weights=[lam1, lam2],
        assignment=(1, 2),
    )


def bethe_large_jobs(seed: int) -> list:
    jobs = [
        a1_n3_m3_job(bethe_draw("a1_n3_m3", seed)),
        a2_m2_job(bethe_draw("a2_m2", seed)),
    ]

    # Fixed instances that trip known faults; they do not depend on the seed.
    lam1 = (0.74 + 0.22j, 0.31 - 0.1j)
    lam2 = (0.26 - 0.22j, 0.69 + 0.1j)
    sites = [(FIXED_Z[0], "dual_verma", lam1, 3), (FIXED_Z[1], "dual_verma", lam2, 3)]
    jobs.append(
        Job(
            name="bethe-large/a2_m2_depth3",
            command="eigen-check",
            config_text=_config(
                0.8j, sites, 11, bethe={"assignment": "1, 2"}, rank=2,
                comment="rank 2, M = 2 at depth 3: below the depth M + ht(theta)",
            ),
            tau=0.8j,
            positions=list(FIXED_Z),
            weights=[lam1, lam2],
            assignment=(1, 2),
            refusal_ok=True,
            known_fault="depth guard depth >= M+1 admits depth 3 < M + ht(theta)",
        )
    )

    lam1 = (1.46 + 0.42j, 0.31 - 0.1j)
    lam2 = (1.54 - 0.42j, -0.31 + 0.1j)
    sites = [(FIXED_Z[0], "dual_verma", lam1, 5), (FIXED_Z[1], "dual_verma", lam2, 5)]
    jobs.append(
        Job(
            name="bethe-large/a2_m3_overflow",
            command="bethe-solve",
            config_text=_config(
                0.8j, sites, 11, bethe={"assignment": "1, 1, 2", "n_seeds": 48},
                rank=2,
                comment="rank 2, M = 3, depth 5: one Newton step overflows theta",
            ),
            tau=0.8j,
            positions=list(FIXED_Z),
            weights=[lam1, lam2],
            assignment=(1, 1, 2),
            known_fault="OverflowError from theta11 escapes BetheSystem._newton",
        )
    )
    return jobs


def jobs_for(workload: str, seed: int, root: str) -> list:
    if workload == "shipped":
        return shipped_jobs(root)
    if workload == "commute-large":
        return commute_large_jobs(seed)
    if workload == "bethe-large":
        return bethe_large_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
