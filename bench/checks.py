"""Checks of each job's outputs that do not rely on the program's numerics.

- `theta11` at the job's tau against `mpmath.jtheta`.  With
  theta11(z) = sum_n exp(i pi tau (n+1/2)^2 + 2 pi i (z+1/2)(n+1/2)) the
  definition fixes theta11(z) = -jtheta(1, pi z, exp(i pi tau)).
- Every Bethe root set printed in a report re-zeroes the Bethe equations
  evaluated with mpmath's theta series (the pairings come from the type A
  Cartan matrix, not from the program).
- The symmetric-weight instance's root is (z_1 + z_2)/2 + 1/2 mod lattice.
- The program's own theorem checks (commutators, eigen identity) pass:
  every record passes and the exit code is 0.
"""

from __future__ import annotations

import json
import random
import re

import mpmath

from workloads import lattice_distance

THETA_TOL = 1e-10  # acceptance-suite tolerance for elliptic identities
BETHE_TOL = 1e-9  # relative to the size of the largest term
SYMMETRIC_TOL = 1e-9  # acceptance-suite tolerance for the closed-form root

_ROOTS = re.compile(r"^t = \((.*)\); \d+ Newton steps$")


def parse_complex(text: str) -> complex:
    """Inverse of `ellgaudin.cli.format_complex` ('a+bi' with repr floats)."""
    text = text.strip()
    if text.endswith("i"):
        for pos in range(len(text) - 2, 0, -1):
            if text[pos] in "+-" and text[pos - 1] not in "eE":
                return complex(float(text[:pos]), float(text[pos:-1]))
    return complex(float(text))


def theta_points(seed: int, tau: complex, count: int = 4) -> list:
    """Points inside and outside the fundamental cell, from the seed."""
    rng = random.Random(f"theta/{seed}/{tau}")
    return [
        complex(rng.uniform(-1.5, 1.5)) + rng.uniform(-1.5, 1.5) * tau
        for _ in range(count)
    ]


def theta_misses(values: list, points: list, tau: complex) -> list:
    """Relative errors of theta11 values above THETA_TOL, as messages."""
    misses = []
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * tau)
        for z, value in zip(points, values):
            ref = -mpmath.jtheta(1, mpmath.pi * z, q)
            err = float(abs(value - ref) / abs(ref))
            if not err <= THETA_TOL:
                misses.append(f"theta11({z}) rel err {err:.2e} at tau={tau}")
    return misses


def _zeta(z, q):
    return mpmath.pi * mpmath.jtheta(1, mpmath.pi * z, q, 1) / mpmath.jtheta(
        1, mpmath.pi * z, q
    )


def _cartan(a: int, b: int) -> int:
    return 2 if a == b else (-1 if abs(a - b) == 1 else 0)


def bethe_misses(roots: list, job) -> list:
    """Literal Bethe residuals of one root set, relative to term size.

    res_j = sum_i (a_j|lam_i) zeta(t_j - z_i) - sum_{k != j} (a_j|a_k) zeta(t_j - t_k)
    with (alpha_a|lam) the a-th fundamental coefficient of lam and
    (alpha_a|alpha_b) the Cartan matrix.
    """
    if len(roots) != len(job.assignment):
        return [f"expected {len(job.assignment)} roots, got {len(roots)}"]
    misses = []
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * job.tau)
        for j, (tj, a) in enumerate(zip(roots, job.assignment)):
            terms = [
                lam[a - 1] * _zeta(tj - z, q)
                for lam, z in zip(job.weights, job.positions)
            ]
            terms += [
                -_cartan(a, b) * _zeta(tj - tk, q)
                for k, (tk, b) in enumerate(zip(roots, job.assignment))
                if k != j
            ]
            res = abs(mpmath.fsum(terms))
            scale = max(1.0, max(float(abs(t)) for t in terms))
            if not res <= BETHE_TOL * scale:
                misses.append(f"Bethe residual {float(res):.2e} at root {j}")
    return misses


def job_misses(job, outcome: dict, theta_values: list, points: list) -> list:
    """Every check that failed for one job, as messages (empty: passed)."""
    misses = theta_misses(theta_values, points, job.tau)
    code = outcome["exit_code"]
    if code == 2 and job.refusal_ok:
        return misses
    if code != 0:
        misses.append(f"exit code {code} {outcome.get('error', '')}".rstrip())
    records = [json.loads(line) for line in outcome["report"].splitlines()]
    if not records:
        misses.append("empty report")
    root_sets = []
    for rec in records:
        if not rec["pass"]:
            misses.append(f"{rec['name']} residual {rec['residual']:.3g}")
        match = _ROOTS.match(rec["note"]) if rec["name"].startswith(
            "bethe/root-residual") else None
        if match:
            roots = [parse_complex(part) for part in match.group(1).split(",")]
            misses += bethe_misses(roots, job)
            root_sets.append(roots)
    if job.symmetric_root:
        # one of the returned roots is the closed form
        z1, z2 = job.positions
        expected = (z1 + z2) / 2 + 0.5
        dist = min((lattice_distance(roots[0], expected, job.tau)
                    for roots in root_sets), default=float("inf"))
        if not dist <= SYMMETRIC_TOL:
            misses.append(f"closed-form root missed by {dist:.2e}")
    return misses
