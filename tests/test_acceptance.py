"""Acceptance suite: one test per headline guarantee, at fixed tolerances.

Each test prints as a single pass/fail line under ``pytest -v`` and also
enforces its wall-clock budget.  Oracles are the independent implementations
in ``oracles.py`` (literal series, finite differences, Richardson
extrapolation, brute-force enumeration) plus closed-form special cases.
"""

from __future__ import annotations

import cmath
import json
import math
import time

import numpy as np

from ellgaudin.bethe import BetheSystem
from ellgaudin.cli import main as cli_main
from ellgaudin.elliptic import ModularData, theta11, w_kernel, zeta11
from ellgaudin.gaudin import (
    GaudinProblem,
    _lane,
    commutativity_residual,
    sample_regular_cartan,
    sample_spectral_points,
    weyl_kac_pi,
)
from ellgaudin.liealg import build_dual_verma, build_irrep, build_root_system

from oracles import (
    bethe_vector_bruteforce_a1,
    fd_derivative,
    fd_multi,
    fd_second,
    richardson_pole_limit,
)

TWO_PI_I = 2j * math.pi

RS1 = build_root_system("A", 1)
RS2 = build_root_system("A", 2)
MD = ModularData(0.8j)
ALPHA = np.asarray(RS1.simple_roots[0], dtype=complex)

Z2 = [0.11 + 0j, 0.43 + 0.27j]


def a1_bethe_system(cs, depth):
    mods = [
        build_dual_verma(RS1, tuple(c * a for a in ALPHA), depth=depth)
        for c in cs
    ]
    return BetheSystem(GaudinProblem(RS1, MD, list(Z2), mods))


def lattice_dist(a: complex, b: complex, tau: complex) -> float:
    d = a - b
    d -= round(d.imag / tau.imag) * tau
    d -= round(d.real)
    return min(abs(d - m - n * tau) for m in (-1, 0, 1) for n in (-1, 0, 1))


def rel(x, y, floor=1e-30):
    return abs(x - y) / max(abs(y), floor)


# ---------------------------------------------------------------------------


def test_01_elliptic_identities_and_pole_normalizations():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for tau in (0.8j, 0.3 + 1.1j):
        md = ModularData(tau)
        worst = 0.0
        for _ in range(100):
            x, y = rng.uniform(0.05, 0.95, size=2)
            cx, cy = rng.uniform(0.05, 0.95, size=2)
            z = complex(x) + complex(y) * tau
            c = complex(cx) + complex(cy) * tau
            ze = zeta11(z, md).value
            worst = max(worst, rel(zeta11(z + 1, md).value, ze))
            worst = max(
                worst,
                abs(zeta11(z + tau, md).value - (ze - TWO_PI_I))
                / abs(TWO_PI_I),
            )
            wv = w_kernel(c, z, md).value
            worst = max(worst, rel(w_kernel(c, z + 1, md).value, wv))
            worst = max(
                worst,
                rel(
                    w_kernel(c, z + tau, md).value,
                    cmath.exp(TWO_PI_I * c) * wv,
                ),
            )
        assert worst <= 1e-10
        assert abs(richardson_pole_limit(lambda h: zeta11(h, md).value) - 1) <= 1e-8
        c0 = 0.37 + 0.11j
        assert (
            abs(richardson_pole_limit(lambda h: w_kernel(c0, h, md).value) - 1)
            <= 1e-8
        )
    assert time.perf_counter() - start < 5.0


def test_02_all_jets_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0

    # 10 configurations each: theta, zeta, w, log-denominator, Bethe vector.
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.9)) + complex(rng.uniform(0.1, 0.6)) * MD.tau
        jet = theta11(z, MD, order=2)
        worst = max(
            worst,
            rel(jet.deriv((1,)), fd_derivative(lambda x: theta11(x, MD).value, z)),
            rel(jet.deriv((2,)), fd_second(lambda x: theta11(x, MD).value, z)),
        )
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.9)) + complex(rng.uniform(0.1, 0.6)) * MD.tau
        jet = zeta11(z, MD, order=2)
        worst = max(
            worst,
            rel(jet.deriv((1,)), fd_derivative(lambda x: zeta11(x, MD).value, z)),
            rel(jet.deriv((2,)), fd_second(lambda x: zeta11(x, MD).value, z)),
        )
    for _ in range(10):
        z = complex(rng.uniform(0.1, 0.9)) + complex(rng.uniform(0.1, 0.6)) * MD.tau
        c = complex(rng.uniform(0.1, 0.9)) + complex(rng.uniform(0.1, 0.6)) * MD.tau
        jet = w_kernel(c, z, MD, 1)
        worst = max(
            worst,
            rel(jet.deriv((1, 0)), fd_derivative(lambda x: w_kernel(x, z, MD).value, c)),
            rel(jet.deriv((0, 1)), fd_derivative(lambda x: w_kernel(c, x, MD).value, z)),
        )
    # d_r log Pi against central differences of the theta product over its value
    for H in sample_regular_cartan(RS1, MD, rng, 5):
        data = weyl_kac_pi(RS1, MD, H, order=2)
        h = 1e-5
        pp = weyl_kac_pi(RS1, MD, H + h).product.value
        pm = weyl_kac_pi(RS1, MD, H - h).product.value
        fd = (pp - pm) / (2 * h * data.product.value)
        worst = max(worst, rel(data.d_log[0].value, fd))
    for H in sample_regular_cartan(RS2, ModularData(0.3 + 1.1j), rng, 5):
        data = weyl_kac_pi(RS2, ModularData(0.3 + 1.1j), H, order=1)
        h = 1e-5
        for r in range(2):
            e = np.zeros(2)
            e[r] = 1.0
            md2 = ModularData(0.3 + 1.1j)
            pp = weyl_kac_pi(RS2, md2, H + h * e).product.value
            pm = weyl_kac_pi(RS2, md2, H - h * e).product.value
            fd = (pp - pm) / (2 * h * data.product.value)
            worst = max(worst, rel(data.d_log[r].value, fd))

    c1 = 0.37 + 0.11j
    sysb = a1_bethe_system([c1, 1 - c1], depth=3)
    t = np.array([0.2 + 0.15j])
    dim = len(sysb.problem.space.zero_tuples())
    for H0 in sample_regular_cartan(RS1, MD, rng, 10):
        jet = sysb.vector_jet([t], [H0], order=1)
        for idx in range(dim):
            fd = fd_multi(
                lambda H, _i=idx: sysb.vector_jet([t], [H]).value[0, _i],
                H0,
                (1,),
                h=1e-5,
            )
            an = jet.coeff((1,))[0, idx]
            worst = max(worst, abs(an - fd) / max(1.0, abs(fd)))

    assert worst <= 1e-6
    assert time.perf_counter() - start < 10.0


def test_03_transfer_operators_commute_on_three_instances():
    start = time.perf_counter()
    fund1 = build_irrep(RS1, RS1.fundamental_weights[0])
    adj1 = build_irrep(RS1, RS1.weight_from_fundamental([2]))
    md2 = ModularData(0.3 + 1.1j)
    instances = [
        (RS1, MD, GaudinProblem(RS1, MD, [0.13, 0.41 + 0.2j], [fund1, fund1])),
        (
            RS1,
            MD,
            GaudinProblem(
                RS1, MD, [0.13, 0.41 + 0.2j, 0.67 + 0.43j], [fund1, fund1, adj1]
            ),
        ),
        (
            RS2,
            md2,
            GaudinProblem(
                RS2,
                md2,
                [0.13, 0.41 + 0.2j],
                [
                    build_irrep(RS2, RS2.weight_from_fundamental([1, 0])),
                    build_irrep(RS2, RS2.weight_from_fundamental([0, 1])),
                ],
            ),
        ),
    ]
    rng = np.random.default_rng(103)
    for rs, md, prob in instances:
        worst = 0.0
        worst_top = 0.0
        # 4 spectral pairs x 5 Cartan points = 20 random (H, u, u') triples
        for _ in range(4):
            u1, u2 = sample_spectral_points(md, prob.positions, rng, 2)
            hs = sample_regular_cartan(rs, md, rng, 5)
            res = commutativity_residual(prob, [u1], [u2], hs)
            worst = max(worst, res["max_rel"])
            # the closed form does not form the order-3 coefficients, so
            # they come from generic composition, at the pair's first point
            parts = prob.transfer_parts([u1, u2], [hs[0], hs[0]], 2)
            t1, t2 = (_lane(parts, b) for b in (0, 1))
            values = t1.commutator(t2).evaluate()
            third = [np.max(np.abs(v)) for m, v in values.items() if sum(m) == 3]
            assert third
            worst_top = max(worst_top, *third)
        assert worst <= 1e-8
        assert worst_top <= 1e-12
    assert time.perf_counter() - start < 60.0


def test_04_one_root_eigenvector_closed_form_and_negative_control():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    c = 0.37 + 0.11j
    sysb = a1_bethe_system([c, 1 - c], depth=3)
    sols = sysb.solve(n_seeds=24)
    assert sols, "Newton found no Bethe root"
    t = sols[0].t
    hs = sample_regular_cartan(RS1, MD, rng, 5)
    us = sample_spectral_points(MD, list(Z2) + list(t), rng, 5)
    (report,) = sysb.verify_eigenvector([t], [hs], [us])
    assert report["status"] == "ok"
    assert report["max_rel"] <= 1e-7

    # symmetric weights: the root is (z_1+z_2)/2 + 1/2 mod lattice
    sym = a1_bethe_system([1.0, 1.0], depth=3)
    sym_sols = sym.solve(n_seeds=24)
    closed = (Z2[0] + Z2[1]) / 2 + 0.5
    assert sym_sols
    assert (
        min(lattice_dist(s.t[0], closed, MD.tau) for s in sym_sols) <= 1e-9
    )

    # negative control: perturbing the root must break the identity
    perturbed = np.array(t, dtype=complex)
    perturbed[0] += 1e-3
    (bad,) = sysb.verify_eigenvector([perturbed], [hs], [us])
    assert bad["max_rel"] > 1e-4
    assert time.perf_counter() - start < 30.0


def test_05_two_root_eigenvector_and_bruteforce_vector():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    c = 0.73 + 0.21j
    sysb = a1_bethe_system([c, 2 - c], depth=4)
    sols = sysb.solve(n_seeds=32)
    assert sols, "Newton found no two-root Bethe solution"
    t = sols[0].t
    hs = sample_regular_cartan(RS1, MD, rng, 5)
    us = sample_spectral_points(MD, list(Z2) + list(t), rng, 5)
    (report,) = sysb.verify_eigenvector([t], [hs], [us])
    assert report["status"] == "ok"
    assert report["max_rel"] <= 1e-6

    tuples = sysb.problem.space.zero_tuples()
    for H in sample_regular_cartan(RS1, MD, rng, 5):
        cval = complex(ALPHA @ H)
        psi = sysb.vector_jet([t], [H]).value[0]
        oracle = bethe_vector_bruteforce_a1(t, Z2, [c, 2 - c], cval, 0.8j)
        scale = max(abs(v) for v in oracle.values())
        for tup, comp in zip(tuples, psi):
            assert abs(comp - oracle[tup]) / scale <= 1e-10
    assert time.perf_counter() - start < 60.0


def test_06_conjugated_transfer_routes_agree():
    start = time.perf_counter()
    fund = build_irrep(RS1, RS1.fundamental_weights[0])
    prob = GaudinProblem(RS1, MD, [0.13, 0.41 + 0.2j], [fund, fund])
    rng = np.random.default_rng(106)
    us = sample_spectral_points(MD, prob.positions, rng, 2)
    for u in us:
        for H in sample_regular_cartan(RS1, MD, rng, 5):
            conj = prob.tilde_transfer(u, H, route="conjugation")
            expl = prob.tilde_transfer(u, H, route="explicit")
            va, vb = conj.evaluate(), expl.evaluate()
            scale = max(float(np.max(np.abs(v))) for v in vb.values())
            for m in set(va) | set(vb):
                x = np.asarray(va.get(m, 0))
                y = np.asarray(vb.get(m, 0))
                assert np.max(np.abs(x - y)) <= 1e-6 * scale
    assert time.perf_counter() - start < 20.0


def test_07_small_q_degeneration_to_trigonometric_limits():
    start = time.perf_counter()
    tau = cmath.log(1e-10) / TWO_PI_I
    md = ModularData(tau)
    assert abs(md.q - 1e-10) <= 1e-24
    for z in (0.17, 0.43 + 0.1j, 0.71 - 0.2j, 0.29j + 0.5):
        assert abs(zeta11(z, md).value - math.pi / cmath.tan(math.pi * z)) <= 1e-8

    fund = build_irrep(RS1, RS1.fundamental_weights[0])
    zs = [0.13, 0.41 + 0.2j]
    prob = GaudinProblem(RS1, md, zs, [fund, fund])
    E = np.array([[0, 1], [0, 0]], dtype=complex)
    F = np.array([[0, 0], [1, 0]], dtype=complex)

    def wtrig(c, z):
        return np.pi * (1 / np.tan(np.pi * z) - 1 / np.tan(np.pi * c))

    def kron(i, mat):
        mats = [mat if i == 0 else np.eye(2), mat if i == 1 else np.eye(2)]
        return np.kron(mats[0], mats[1])

    rng = np.random.default_rng(107)
    u = 0.71 + 0.05j
    zero = [1, 2]
    for H in sample_regular_cartan(RS1, md, rng, 3, box=0.5):
        cval = math.sqrt(2) * complex(H[0])
        W = np.zeros((4, 4), dtype=complex)
        for sgn, ep, em in [(+1, E, F), (-1, F, E)]:
            cc = sgn * cval
            for i in range(2):
                for j in range(2):
                    W += (
                        0.5
                        * wtrig(cc, zs[i] - u)
                        * wtrig(-cc, zs[j] - u)
                        * (kron(j, em.T) @ kron(i, ep.T))
                    )
        want = W[np.ix_(zero, zero)]
        got = prob.potential_jet([H], [u]).value[0]
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-6 * scale
    assert time.perf_counter() - start < 5.0


def test_08_full_verify_is_byte_deterministic(tmp_path):
    from pathlib import Path

    config = str(
        Path(__file__).resolve().parent.parent / "configs" / "a1_bethe_m1_sym.ini"
    )
    args = ["full-verify", "--config", config, "--format", "json-lines"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "report.jsonl").read_bytes()
    second = (tmp_path / "b" / "report.jsonl").read_bytes()
    assert first == second
    records = [json.loads(line) for line in first.decode().splitlines()]
    assert records and all(rec["pass"] for rec in records)
