"""How often the checks build their expensive pieces.

Each operator is assembled from coefficient jets at one Cartan point, and
the checks batch those points, so they need a fixed number of
evaluations per pass:
- the commutator certificate takes every (Cartan point, pair) entry in
  one pass while their arrays fit its byte budget, and both transfer
  operators' parts (V's jet and the diagonals of A_r) from one call per
  pass, at second order, the first members' lanes and then the second
  members', so ``potential_jet`` runs once per pass; the commute stage's
  call counts do not grow with its Cartan points or pairs while the
  entries fit one pass, the composed spot check builds its two lone
  operators from one 2-lane call, and theta is taken once per operator
  batch, once per distinct site argument and alpha(H); the commutator is
  in closed form, so no ``DiffOperator`` is built and nothing is
  composed, and the stage's transient memory stays under a pinned
  tracemalloc peak, each pass within its byte estimate;
- the elliptic stage takes theta, zeta and w once each for all sample
  points and shifts of its period records, once each for the jets it
  checks at every jet point, and builds all of a record's 16-point
  contours before taking each function once for all of them;
- composition forms each Leibniz term from one derivative gather of the
  coefficient array and one array jet product, and skips the terms that
  differentiate a constant coefficient;
- the eigenvector check takes every (solution, Cartan point) entry in
  one pass while their arrays fit its byte budget: one ``vector_jet``
  call builds the Bethe vector, which does not depend on the spectral
  parameter, at every entry at the operator's order; one transfer
  operator, its Cartan points paired with every entry's spectral
  parameters, is built and applied once; and one eigenvalue call per
  pass serves that pass's solutions, so the eigen stage's call counts do
  not grow with the number of solutions or Cartan points while the
  entries fit one pass; passes of one entry hold its transient memory to
  that of one entry;
- the explicit conjugated operator reads every log-derivative of the
  Weyl-Kac denominator, a product of theta values, off one call of
  ``weyl_kac_pi`` at the operator's order, which takes theta once, at 0
  and at every alpha(H); with the transfer operator, whose first-order
  coefficients give -A_r(u), that is two theta calls per (u, H);
- the pair stack of the exchange potential takes one pass per positive
  root alpha, with the dual matrices of e_alpha and e_-alpha once per
  site, 2 N |Phi+| ``dual_matrix`` calls for N sites, and a root vector's
  dual matrix is one slice of its module's root stack;
- the exchange potential takes theta once per distinct argument, which
  theta's oddness brings down to N + |Phi+| (2N + 1) for N sites, all in
  one call, and one substitution call for all positive roots; the
  transfer operator
  reads A_r(u) off the same call's theta(z_i - u) rows, so it takes theta
  once per site and never calls zeta;
- the Bethe vector takes its kernels from at most three theta calls, one
  value per distinct argument, and one substitution call, and never calls
  ``w_kernel``; ``Jet`` has no arithmetic, and the vector's site brackets
  come from a Held-Karp recursion over
  root subsets, one kernel-factor product per subset T, root j in T and
  root k in T - j, not one per factor of every ordering;
- a theta call costs one sine and one cosine call per block, whatever the
  number of terms and coefficients, and no factorial, and a block holds
  about as many terms, so a long series peaks as a short one; zeta is one
  series quotient of theta's coefficients, with no jet product,
  substitution or reciprocal;
- the Bethe equations take zeta once per (root, site) and, by zeta's
  oddness, once per unordered pair of roots, all in one call, and the
  eigenvalue takes it once per site and root, in one call;
- the Newton solve runs its seeds in lockstep: a round evaluates every
  live seed's point in one zeta call, and the seeds that begin a step
  take it from one stacked linear solve, so a solve makes as many zeta
  calls as its longest seed makes evaluations.

Theta values are counted at ``theta11_coeffs``, the batched kernel behind
``theta11`` that every caller hands all its arguments at once: a call's
arguments are the length of its first argument.
"""

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from pathlib import Path

from ellgaudin import bethe, cli, diffop, elliptic, gaudin
from ellgaudin.bethe import BetheSystem
from ellgaudin.cli import CheckRunner, load_config
from ellgaudin.elliptic import Jet, ModularData
from ellgaudin.gaudin import (
    GaudinProblem,
    commutativity_residual,
    sample_regular_cartan,
    sample_spectral_points,
)
from ellgaudin.liealg import (
    RepresentedModule,
    build_dual_verma,
    build_irrep,
    build_root_system,
)

from oracles import newton_per_seed

MD = ModularData(0.8j)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
PROBES = CONFIGS.parent / "tests" / "data"


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper recording each call's arguments."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def count_everywhere(monkeypatch, name):
    """Count the calls of elliptic.name, also where gaudin, bethe or cli
    imported it."""
    original = getattr(elliptic, name)
    calls = count_calls(monkeypatch, elliptic, name)
    for module in (gaudin, bethe, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, getattr(elliptic, name))
    return calls


def arguments(calls):
    """The number of arguments of each counted kernel call."""
    return [len(args[0]) for args, _ in calls]


def irrep_problem(rank):
    rs = build_root_system("A", rank)
    mods = [
        build_irrep(rs, rs.fundamental_weights[0]),
        build_irrep(rs, rs.fundamental_weights[rank - 1]),
    ]
    return GaudinProblem(rs, MD, [0.05, 0.52 + 0.31j], mods)


@pytest.mark.parametrize("rank", [1, 2])
def test_commutator_builds_each_operator_once_per_point(monkeypatch, rank):
    prob = irrep_problem(rank)
    rng = np.random.default_rng(30 + rank)
    hs = sample_regular_cartan(prob.rs, MD, rng, 3)
    u1, u2 = sample_spectral_points(MD, prob.positions, rng, 2)
    calls = count_calls(monkeypatch, GaudinProblem, "potential_jet")
    res = commutativity_residual(prob, [u1], [u2], hs)
    assert res["max_rel"] < 1e-12
    # every point's entry fits one pass: one call for both sides' lanes
    assert [len(args[2]) for args, _ in calls] == [2 * len(hs)]


def test_commutator_builds_no_operator_and_composes_nothing(monkeypatch):
    prob = irrep_problem(2)
    rng = np.random.default_rng(33)
    hs = sample_regular_cartan(prob.rs, MD, rng, 3)
    us = np.array(sample_spectral_points(MD, prob.positions, rng, 8))
    built = count_calls(monkeypatch, diffop.DiffOperator, "__init__")
    composed = count_calls(monkeypatch, diffop.DiffOperator, "compose")
    parts = count_calls(monkeypatch, GaudinProblem, "transfer_parts")
    res = commutativity_residual(prob, us[0::2], us[1::2], hs)
    assert res["max_rel"] < 1e-12
    assert built == [] and composed == []
    assert [len(args[1]) for args, _ in parts] == [2 * 4 * len(hs)]


# four irreducible sites, dim0 15, at the sampling of the commute-large
# benchmark workload (5 Cartan points, 8 pairs)
A2_3_3_3BAR_3BAR = """\
[algebra]
series = A
rank = 2

[elliptic]
tau = 0.8i

[sites]
count = 4
z_1 = 0.11
kind_1 = irrep
weight_1 = 1, 0
z_2 = 0.43+0.27i
kind_2 = irrep
weight_2 = 1, 0
z_3 = 0.74+0.58i
kind_3 = irrep
weight_3 = 0, 1
z_4 = 0.31+0.62i
kind_4 = irrep
weight_4 = 0, 1

[sampling]
cartan_count = 5
pair_count = 8

[rng]
seed = 7
"""


def test_commute_stage_transient_memory(tmp_path):
    # the closed-form commutator holds V's jets and two products per pair;
    # the dense compositions it replaced peaked at 1.51 MB here, the closed
    # form at 0.63 MB point by point; its 40 entries in one pass would
    # peak at 2.9 MB, and passes of ten entries under the byte budget,
    # both sides in one call, peak at 0.68 MB
    path = tmp_path / "a2_3_3_3bar_3bar.ini"
    path.write_text(A2_3_3_3BAR_3BAR, encoding="utf-8")
    runner = CheckRunner(load_config(str(path)), "commute-check", False)
    assert runner.problem.space.dim0 == 15
    tracemalloc.start()
    try:
        runner.stage_commute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in runner.report.records)
    assert peak < 0.9e6


@pytest.mark.parametrize("config", ["a2_n2_33bar", "A2_3_3_3BAR_3BAR"])
def test_commute_pass_peak_stays_within_its_estimate(monkeypatch, tmp_path, config):
    # each pass of the commute stage's entries holds at most its estimate,
    # max(block + e rows, e entry) bytes for e entries: a2_n2_33bar's 100
    # entries take one pass (peak 0.70 MB against 0.74 MB), the dim0-15
    # instance's 40 take passes of ten (0.67 MB against 0.72 MB); the
    # estimate once read 0.70 MB where a2_n2_33bar peaked at 1.11 MB
    if config == "A2_3_3_3BAR_3BAR":
        text = A2_3_3_3BAR_3BAR
    else:
        text = (CONFIGS / f"{config}.ini").read_text(encoding="utf-8")
    path = tmp_path / "commute.ini"
    path.write_text(text, encoding="utf-8")
    runner = CheckRunner(load_config(str(path)), "commute-check", False)
    prob = runner.problem
    hs = runner._cartan_points()
    us = runner._spectral_points(prob.positions, 2 * runner.cfg.sampling["pair_count"])
    # theta's cached constants are built before the measured call
    gaudin.commutativity_residual(prob, us[:1], us[1:2], hs[:1])
    parts = count_calls(monkeypatch, GaudinProblem, "transfer_parts")
    tracemalloc.start()
    try:
        res = gaudin.commutativity_residual(prob, us[0::2], us[1::2], hs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res["max_rel"] < 1e-12
    entries = max(len(args[1]) for args, _ in parts) // 2
    assert entries == {"a2_n2_33bar": 100, "A2_3_3_3BAR_3BAR": 10}[config]
    block, rows, entry = gaudin._commute_pass_bytes(prob)
    assert peak <= max(block + entries * rows, entries * entry) <= gaudin._COMMUTE_PASS_BYTES


def leibniz_terms(left, right) -> tuple:
    """The Leibniz terms of left o right that do not differentiate a
    constant coefficient, and how many of them differentiate at all."""
    terms = gathers = 0
    for beta in left.coeffs:
        for jet in right.coeffs.values():
            for delta in itertools.product(*(range(b + 1) for b in beta)):
                if not any(delta):
                    terms += 1
                elif len(jet.coeffs) > 1:
                    terms += 1
                    gathers += 1
    return terms, gathers


@pytest.mark.parametrize("rank", [1, 2])
def test_compose_takes_one_gather_and_one_product_per_leibniz_term(monkeypatch, rank):
    prob = irrep_problem(rank)
    rng = np.random.default_rng(35 + rank)
    H = sample_regular_cartan(prob.rs, MD, rng, 1)[0]
    u1, u2 = sample_spectral_points(MD, prob.positions, rng, 2)
    parts = prob.transfer_parts([u1, u2], [H, H], 2)
    t1, t2 = (gaudin._lane(parts, b) for b in (0, 1))
    # the conjugation route's factors, which compose at positive jet order
    left = prob._mult_denominator(-1, H, 1)
    middle = gaudin._lane(prob.transfer_parts([u1], [H], 1), 0)
    right = prob._mult_denominator(+1, H, 3)
    inner = middle.compose(right)
    pairs = [(t1, t2), (t2, t1), (left, inner)]
    products = count_calls(monkeypatch, diffop, "array_jet_product")
    gathers = count_calls(monkeypatch, diffop, "derivative_table")
    assert t1.compose(t2).k == t2.compose(t1).k == 0
    assert left.compose(inner).k == 1
    want = [leibniz_terms(a, b) for a, b in pairs]
    assert len(products) == sum(terms for terms, _ in want)
    assert len(gathers) == sum(count for _, count in want)
    # the transfer operator's second- and first-order coefficients are
    # constants, so only d_r and d_r^2 of the potential are gathered
    assert want[0][1] == 3 * rank


def test_eigenvector_check_builds_the_vector_once_per_point(monkeypatch):
    rs = build_root_system("A", 1)
    alpha = np.asarray(rs.simple_roots[0], dtype=complex)
    c = 0.62 + 0.05j
    sites = [
        build_dual_verma(rs, tuple(w * a for a in alpha), depth=3)
        for w in (c, 1 - c)
    ]
    prob = GaudinProblem(rs, MD, [0.11, 0.43 + 0.27j], sites)
    system = BetheSystem(prob)
    sols = system.solve(n_seeds=8)
    assert sols
    rng = np.random.default_rng(33)
    hs = sample_regular_cartan(rs, MD, rng, 3)
    us = sample_spectral_points(MD, prob.positions + list(sols[0].t), rng, 4)
    calls = count_calls(monkeypatch, BetheSystem, "vector_jet")
    transfers = count_calls(monkeypatch, GaudinProblem, "transfer")
    applies = count_calls(monkeypatch, diffop.DiffOperator, "apply")
    eigenvalues = count_calls(monkeypatch, BetheSystem, "eigenvalue")
    (result,) = system.verify_eigenvector([sols[0].t], [hs], [us])
    assert result["status"] == "ok"
    assert result["max_rel"] < 1e-8
    # one call builds the vector at every point, at the transfer
    # operator's order
    assert len(calls) == 1
    (_, t, H, order), _ = calls[0]
    assert t.shape == (len(hs), system.M) and H.shape == (len(hs), 1)
    assert order == 2
    # one operator, its Cartan points paired with every point's spectral
    # parameters, is applied once; one eigenvalue call serves them all
    assert len(transfers) == len(applies) == len(eigenvalues) == 1
    (_, u, H), _ = transfers[0]
    assert len(u) == len(H) == len(hs) * len(us)


def eigen_stage_counts(monkeypatch, tmp_path, max_solutions, cartan_count, sweep=False):
    text = (CONFIGS / "a1_bethe_m2.ini").read_text(encoding="utf-8")
    path = tmp_path / f"eigen{max_solutions}{cartan_count}.ini"
    path.write_text(
        text.replace("[bethe]", f"[bethe]\nmax_solutions = {max_solutions}")
        + f"\n[sampling]\ncartan_count = {cartan_count}\n",
        encoding="utf-8",
    )
    runner = CheckRunner(load_config(str(path)), "eigen-check", False, sweep)
    runner.stage_bethe()
    counted = [
        count_calls(monkeypatch, BetheSystem, "vector_jet"),
        count_calls(monkeypatch, GaudinProblem, "transfer"),
        count_calls(monkeypatch, diffop.DiffOperator, "apply"),
        count_calls(monkeypatch, BetheSystem, "eigenvalue"),
        count_everywhere(monkeypatch, "theta11_coeffs"),
    ]
    runner.stage_eigen()
    records = [r for r in runner.report.records if r.name.startswith("eigen/")]
    assert len(records) == min(max_solutions, len(runner._solutions))
    assert all(record.passed for record in records)
    counts = tuple(len(calls) for calls in counted)
    monkeypatch.undo()
    return len(records), counts


def test_eigen_stage_work_does_not_grow_with_solutions_or_points(monkeypatch, tmp_path):
    # one vector_jet, one transfer, one apply and one eigenvalue call, plus
    # the sweep's eigenvalue call where the report renders the sweep (CSV),
    # however many solutions and Cartan points the stage checks; theta
    # calls stay as few
    for sweep in (False, True):
        few = eigen_stage_counts(monkeypatch, tmp_path, 1, 1, sweep)
        many = eigen_stage_counts(monkeypatch, tmp_path, 4, 5, sweep)
        assert few[0] == 1 < many[0]
        assert few[1] == many[1]
        assert few[1][:4] == (1, 1, 1, 1 + sweep)


@pytest.mark.parametrize("rank", [1, 2])
def test_explicit_tilde_reads_one_denominator_jet(monkeypatch, rank):
    prob = irrep_problem(rank)
    rng = np.random.default_rng(40 + rank)
    u = sample_spectral_points(MD, prob.positions, rng, 1)[0]
    hs = sample_regular_cartan(prob.rs, MD, rng, 2)
    calls = count_calls(monkeypatch, gaudin, "weyl_kac_pi")
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    gathers = count_calls(monkeypatch, diffop, "derivative_table")
    products = count_calls(monkeypatch, diffop, "array_jet_product")
    for H in hs:
        assert prob.tilde_transfer(u, H, route="explicit").k == 0
    # the denominator's jets come at the operator's order
    assert [args[3:] for args, _ in calls] == [(0,)] * len(hs)
    # per (u, H) one call for the transfer operator, which also gives
    # A_r(u), and one for the denominator
    assert len(thetas) == 2 * len(hs)
    # no derivative is gathered off them, and nothing is composed
    assert gathers == products == []


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_denominator_takes_one_theta_call(monkeypatch, rank):
    rs = build_root_system("A", rank)
    H = sample_regular_cartan(rs, MD, np.random.default_rng(45), 1)[0]
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    for order in (0, 3):
        gaudin.weyl_kac_pi(rs, MD, H, order)
    # theta at 0 and at every alpha(H), to order max(order + 2, 3)
    assert arguments(thetas) == [1 + rs.n_positive] * 2
    assert [args[2] for args, _ in thetas] == [3, 5]


# the counts the two-pass build doubled: N = 3 sites of rank 2, and the
# rank-3 dual-Verma probe's N = 2 sites
PAIR_STACK_DUAL_MATRICES = {"a2_n3_adjoint": 18, "a3_m2_dual_verma": 24}


@pytest.mark.parametrize(
    "path",
    [*sorted(CONFIGS.glob("*.ini")), *sorted(PROBES.glob("*.ini"))],
    ids=lambda path: path.stem,
)
def test_pair_stack_takes_each_sites_root_matrices_once(monkeypatch, path):
    prob = load_config(str(path)).problem
    rs = prob.rs
    calls = count_calls(monkeypatch, RepresentedModule, "dual_matrix")
    GaudinProblem(rs, prob.md, prob.positions, prob.modules)
    # one pass per positive root, with e_alpha and e_-alpha once per site
    want = 2 * len(prob.modules) * rs.n_positive
    assert len(calls) == PAIR_STACK_DUAL_MATRICES.get(path.stem, want) == want
    monkeypatch.undo()
    # a root vector's dual matrix is one slice of the module's stack, the
    # convention bethe._vector_plan reads without a dual_matrix call;
    # adding +0 makes the signed zeros of the two sides alike
    for mod in prob.modules:
        for k, e in enumerate(rs.root_vectors):
            stored = mod.roots[rs.negative_of(k)] if mod.kind == "dual_verma" else mod.roots[k].T
            got, want = (np.ascontiguousarray(m + 0) for m in (mod.dual_matrix(e), stored))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_potential_takes_each_theta_value_once(monkeypatch, rank):
    prob = irrep_problem(rank)
    nsites, npos = len(prob.positions), prob.rs.n_positive
    rng = np.random.default_rng(50 + rank)
    hs = sample_regular_cartan(prob.rs, MD, rng, 2)
    us = sample_spectral_points(MD, prob.positions, rng, 2)
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    subs = count_calls(monkeypatch, gaudin, "linear_substitution_rows")
    for H, u in zip(hs, us):
        prob.potential_jet([H], [u], order=2)
    per_call = nsites + npos * (2 * nsites + 1)  # 17 at rank 2, 2 sites
    assert arguments(thetas) == [per_call] * len(hs)
    # one substitution call per potential, one row per positive root
    assert arguments(subs) == [npos] * len(hs)


@pytest.mark.parametrize("rank", [1, 2])
def test_transfer_reads_cartan_matrices_off_site_thetas(monkeypatch, rank):
    prob = irrep_problem(rank)
    nsites, npos = len(prob.positions), prob.rs.n_positive
    rng = np.random.default_rng(60 + rank)
    hs = sample_regular_cartan(prob.rs, MD, rng, 2)
    us = sample_spectral_points(MD, prob.positions, rng, 2)
    zetas = count_everywhere(monkeypatch, "zeta11")
    zeta_rows = count_everywhere(monkeypatch, "zeta11_coeffs")
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    for H in hs:
        for u in us:
            for order in (0, 2):
                prob.transfer([u], [H], order)
    assert zetas == zeta_rows == []
    # theta(z_i - u) once per site, shared by A_r(u) and the potential
    per_call = nsites + npos * (2 * nsites + 1)
    assert arguments(thetas) == [per_call] * (2 * len(hs) * len(us))


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_transfer_takes_one_theta_call(monkeypatch, batch):
    prob = irrep_problem(2)
    nsites, npos = len(prob.positions), prob.rs.n_positive
    rng = np.random.default_rng(65)
    H = sample_regular_cartan(prob.rs, MD, rng, 1)[0]
    us = np.array(sample_spectral_points(MD, prob.positions, rng, batch))
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    regular = count_calls(monkeypatch, gaudin, "check_regular")
    prob.transfer(us, [H] * batch, 2)
    # the roots' arguments are shared by the lanes at one point, the rest
    # are per u
    assert arguments(thetas) == [batch * nsites + npos + 2 * npos * nsites * batch]
    assert len(regular) == 1


def test_paired_transfer_takes_theta_in_one_call(monkeypatch):
    # three Cartan points, each paired with four spectral parameters: one
    # theta call takes alpha(H) once per distinct point, and one
    # regularity check covers them all; one point repeated over every
    # lane, as the composed spot check passes it, takes alpha(H) once
    prob = irrep_problem(2)
    nsites, npos = len(prob.positions), prob.rs.n_positive
    rng = np.random.default_rng(66)
    hs = np.array(sample_regular_cartan(prob.rs, MD, rng, 3))
    us = np.array(sample_spectral_points(MD, prob.positions, rng, 12))
    elliptic.theta11_prime_at_zero(MD)  # cached after its first call
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    regular = count_calls(monkeypatch, gaudin, "check_regular")
    prob.transfer(us, np.repeat(hs, 4, axis=0))
    prob.transfer(us, [hs[0]] * 12)
    shared = 12 * nsites + 2 * npos * nsites * 12
    assert arguments(thetas) == [shared + len(hs) * npos, shared + npos]
    assert [args[2].shape for args, _ in regular] == [(12, 2), (12, 2)]


def test_transfer_parts_pairs_the_roots_with_h_once(monkeypatch):
    # the regularity check's pairings alpha(H) are also theta's arguments
    prob = irrep_problem(2)
    rng = np.random.default_rng(67)
    hs = np.array(sample_regular_cartan(prob.rs, MD, rng, 3))
    us = np.array(sample_spectral_points(MD, prob.positions, rng, 3))
    pairings = count_calls(monkeypatch, gaudin, "root_values")
    prob.transfer_parts(us, hs, 2)
    assert len(pairings) == 1


def eigen_stage_peak(tmp_path, max_solutions, cartan_count, sweep):
    text = (CONFIGS / "a1_bethe_m4.ini").read_text(encoding="utf-8")
    path = tmp_path / f"peak{max_solutions}{cartan_count}.ini"
    path.write_text(
        text.replace("[bethe]", f"[bethe]\nmax_solutions = {max_solutions}")
        + f"\n[sampling]\ncartan_count = {cartan_count}\n",
        encoding="utf-8",
    )
    # a CSV run's stage builds the eigenvalue sweep as well.  A first,
    # untraced run fills the kernels' and NumPy's tables and Python's free
    # lists, which tracemalloc would count as held by whichever run comes
    # first
    def solved():
        runner = CheckRunner(load_config(str(path)), "eigen-check", False, sweep)
        runner.stage_bethe()
        runner.system._vector_plan()
        return runner

    solved().stage_eigen()
    runner = solved()
    tracemalloc.start()
    try:
        runner.stage_eigen()
        return len(runner._solutions), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eigen_stage_memory_does_not_grow_with_solutions_or_points(monkeypatch, tmp_path):
    # with every pass held to one entry, the stage holds one entry's vector
    # and operator at a time, and per entry only a few numbers in arrays:
    # its Cartan point, vector norm and residual, and whether it was
    # checked.  What grows beside them is per solution: its spectral
    # samples; each pass takes the eigenvalues of its own solutions.  So
    # 40 entries of 4 solutions peak about as one does: 0.095 and 0.103 MB
    # measured without the sweep, 0.477 and 0.480 MB with it, where one
    # pass over all 40 peaks at 2.4 MB
    monkeypatch.setattr(bethe, "_PASS_BYTES", 1)
    for sweep in (False, True):
        one, few = eigen_stage_peak(tmp_path, 1, 1, sweep)
        many, lots = eigen_stage_peak(tmp_path, 4, 10, sweep)
        assert one == 1 < many
        assert lots < 1.2 * few


def test_verify_eigenvector_memory_does_not_grow_with_solutions(monkeypatch, tmp_path):
    # with every pass held to one entry, each pass takes the eigenvalues of
    # its own solution.  One eigenvalue call over every solution's samples,
    # whose theta blocks grow with solutions x samples x (sites + roots),
    # peaked above a whole pass at tau = 0.3i, where theta takes more terms
    # than at 0.8i: 0.133 MB for 4 solutions against 0.094 MB for one,
    # measured; per pass, 0.101 MB against 0.094 MB
    monkeypatch.setattr(bethe, "_PASS_BYTES", 1)
    text = (CONFIGS / "a1_bethe_m4.ini").read_text(encoding="utf-8")
    path = tmp_path / "a1_bethe_m4_tau03.ini"
    path.write_text(text.replace("tau = 0.8i", "tau = 0.3i"), encoding="utf-8")
    runner = CheckRunner(load_config(str(path)), "eigen-check", False)
    runner.stage_bethe()
    stack = np.array(runner._solutions, dtype=complex)
    assert len(stack) == 4
    h_points = [runner._cartan_points()[:1] for _ in stack]
    u_points = [
        runner._spectral_points(list(runner.problem.positions) + list(roots), 5)
        for roots in stack
    ]

    def peak(count):
        samples = (stack[:count], h_points[:count], u_points[:count])
        # an untraced first call fills the kernels' and NumPy's tables
        runner.system.verify_eigenvector(*samples)
        tracemalloc.start()
        try:
            runner.system.verify_eigenvector(*samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) < 1.2 * peak(1)


def commute_stage_counts(monkeypatch, tmp_path, cartan_count, pair_count):
    text = (CONFIGS / "a2_n2_33bar.ini").read_text(encoding="utf-8")
    path = tmp_path / f"points{cartan_count}_pairs{pair_count}.ini"
    path.write_text(
        text + f"\n[sampling]\ncartan_count = {cartan_count}\npair_count = {pair_count}\n",
        encoding="utf-8",
    )
    runner = CheckRunner(load_config(str(path)), "commute-check", False)
    potentials = count_calls(monkeypatch, GaudinProblem, "potential_jet")
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    runner.stage_commute()
    assert all(record.passed for record in runner.report.records)
    counts = (len(potentials), len(thetas))
    monkeypatch.undo()
    return counts


def test_commute_stage_work_does_not_grow_with_the_pair_count(monkeypatch, tmp_path):
    # while the (Cartan point, pair) entries fit one pass: one operator
    # batch for the first and second members of all pairs, and one for the
    # composed spot check's two lone operators, each taking theta once
    few = commute_stage_counts(monkeypatch, tmp_path, 2, 2)
    more_pairs = commute_stage_counts(monkeypatch, tmp_path, 2, 8)
    more_points = commute_stage_counts(monkeypatch, tmp_path, 8, 8)
    assert few == more_pairs == more_points == (2, 2)


def test_full_verify_kernel_calls_on_a2_n2_33bar(monkeypatch):
    # the elliptic stage takes theta, zeta and w once each for the period
    # records over all shifts, one zeta and one w call for the pole rings,
    # one theta, zeta and w call for the jets at every jet point and one
    # for all the jets' rings, however many jet points there are; the
    # commute stage's 100 (Cartan point, pair) entries fit one pass of one
    # operator batch over both sides' 200 lanes, and the composed spot
    # check builds its two lone operators from one 2-lane call
    cfg = load_config(str(CONFIGS / "a2_n2_33bar.ini"))
    for jet_points in (1, 5, 7):
        cfg.sampling["jet_points"] = jet_points
        runner = CheckRunner(cfg, "full-verify", False)
        thetas = count_everywhere(monkeypatch, "theta11_coeffs")
        distances = count_everywhere(monkeypatch, "lattice_distance")
        runner.stage_elliptic()
        assert all(record.passed for record in runner.report.records)
        assert (len(thetas), len(distances)) == (3 + 2 + 3 + 3, 2)
        monkeypatch.undo()
    distances = count_everywhere(monkeypatch, "lattice_distance")
    parts = count_calls(monkeypatch, GaudinProblem, "transfer_parts")
    runner.stage_commute()
    assert all(record.passed for record in runner.report.records)
    assert [np.size(args[1]) for args, _ in parts] == [200, 2]
    # one lattice_distance call per round of draws, one round for the
    # Cartan points and two for the spectral points here, and one
    # regularity check per transfer_parts call
    assert len(distances) == 1 + 2 + 2


def bracket_system():
    rs = build_root_system("A", 2)
    weights = [(0.74 + 0.22j, 0.31 - 0.1j), (0.26 - 0.22j, 0.69 + 0.1j)]
    sites = [
        build_dual_verma(rs, rs.weight_from_fundamental(w), depth=4)
        for w in weights
    ]
    prob = GaudinProblem(rs, MD, [0.11, 0.43 + 0.27j], sites)
    return BetheSystem(prob)


def test_vector_jet_takes_three_theta_calls_and_no_dict_jet_arithmetic(monkeypatch):
    system = bracket_system()
    assert system.assignment == (0, 1)
    t = np.array([0.21 + 0.13j, 0.52 + 0.4j])
    H = sample_regular_cartan(system.problem.rs, MD, np.random.default_rng(71), 1)[0]
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    kernels = count_everywhere(monkeypatch, "w_kernel")
    subs = count_calls(monkeypatch, bethe, "linear_substitution_rows")
    jet = system.vector_jet([t], [H], 2)
    assert np.any(jet.value)
    # theta at the distinct x, the distinct c0 and the distinct x - c0
    assert 1 <= len(thetas) <= 3
    for args, _ in thetas:
        values = np.asarray(args[0]).tolist()
        assert len(set(values)) == len(values)
    assert kernels == []
    assert len(subs) == 1
    # a jet only holds its coefficient array
    arithmetic = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__neg__")
    assert not any(hasattr(Jet, name) for name in arithmetic)


def one_site_system(M):
    """Rank 1, M roots on one dual-Verma site, whose one bracket is that of
    all the roots."""
    rs = build_root_system("A", 1)
    site = build_dual_verma(rs, rs.weight_from_fundamental((2 * M,)), depth=M + 1)
    return BetheSystem(GaudinProblem(rs, MD, [0.11], [site]))


@pytest.mark.parametrize("M", [5, 6])
def test_bethe_bracket_kernel_products_follow_held_karp(monkeypatch, M):
    system = one_site_system(M)
    t = 0.2 + 0.13j + (0.11 + 0.07j) * np.arange(M)
    H = sample_regular_cartan(system.problem.rs, MD, np.random.default_rng(72), 1)[0]
    products = count_calls(monkeypatch, bethe, "array_jet_product")
    system.vector_jet([t], [H], 2)
    # axis 0 of each factor runs over the monomials, the others over the
    # products taken at once
    count = sum(math.prod(np.shape(args[0])[1:]) for args, _ in products)
    # one product per (T, j, k) with k in T - j, one per base case ({j}, j),
    # and one that starts the site-by-site contraction of the one
    # component from 1
    assert count == M * (M - 1) * 2 ** (M - 2) + M + 1
    assert count <= 2**M * M**2
    # the sum over orderings takes M products for each of the M! chains
    assert count < math.factorial(M) * M


def theta_call_peak(tau, rows, order):
    """tracemalloc peak of one theta11_coeffs call over rows in-cell
    arguments, after a small call has built the per-tau constants."""
    md = ModularData(tau)
    rng = np.random.default_rng(48)
    zs = rng.uniform(0, 1, rows) + rng.uniform(0, 1, rows) * md.tau
    elliptic.theta11_coeffs(zs[:2], md, order)
    tracemalloc.start()
    try:
        elliptic.theta11_coeffs(zs, md, order)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theta_blocks_hold_as_many_terms_whatever_the_series_length():
    # a block holds about _BLOCK terms, not a fixed number of rows, so a
    # long series (2T = 34 terms at 0.3+0.06i) peaks as a short one
    # (2T = 10 at 0.8i) does: 0.29 and 0.32 MB for 1,000 rows at order 2,
    # where blocks of 256 rows peaked at 0.91 and 0.32 MB
    short = theta_call_peak(0.8j, 1000, 2)
    long = theta_call_peak(0.3 + 0.06j, 1000, 2)
    assert long <= 1.1 * short


@pytest.mark.parametrize("tau", [0.8j, 0.3 + 0.06j, 40j, 200j])
def test_theta_series_term_takes_one_sine_and_no_factorial(monkeypatch, tau):
    md = ModularData(tau)
    for order in range(4):
        # builds the per-tau term plans
        elliptic.theta11_coeffs([0.5, 0.5 + md.tau], md, order)
    # inside the cell, a cell above, a cell below and a period to the left;
    # at 200i the first point sits near the top of the cell, where a term's
    # sine alone would leave the double range, and the second is
    # 0.62 + 213i, whose quasi-periodicity factor alone would: each term's
    # shift and sine share one exponent
    points = [0.31 + 0.97 * md.tau, 0.62 + 1.065 * md.tau, 0.2 - 0.6 * md.tau - 1]
    factorials = count_calls(monkeypatch, math, "factorial")
    sines = count_calls(monkeypatch, np, "sin")
    cosines = count_calls(monkeypatch, np, "cos")
    scalar = [
        count_calls(monkeypatch, cmath, name) for name in ("sin", "cos", "exp")
    ]
    for order in range(4):
        for batch in ([points[0]], points, points * 5):
            for calls in (factorials, sines, cosines):
                calls.clear()
            elliptic.theta11_coeffs(batch, md, order)
            assert factorials == []
            assert len(sines) == len(cosines) == 1
    assert scalar == [[], [], []]


def test_zeta_takes_no_jet_shift_truncation_or_reciprocal(monkeypatch):
    counted = [
        count_calls(monkeypatch, elliptic, name)
        for name in ("array_jet_product", "linear_substitution_rows", "_series_reciprocal")
    ]
    quotients = count_calls(monkeypatch, elliptic, "_series_quotient")
    for order in range(4):
        for z in (0.31 + 0.2j, 1.7 - 0.9j):
            assert elliptic.zeta11(z, MD, order).total == order
    assert counted == [[], [], []]
    # one quotient of theta' by theta per call
    assert len(quotients) == 8


def three_root_system():
    rs = build_root_system("A", 1)
    alpha = np.asarray(rs.simple_roots[0], dtype=complex)
    cs = (1.13 + 0.05j, 0.94 - 0.12j, 0.93 + 0.07j)
    sites = [build_dual_verma(rs, tuple(c * a for a in alpha), depth=4) for c in cs]
    prob = GaudinProblem(rs, MD, [0.11, 0.43 + 0.27j, 0.71 + 0.52j], sites)
    return BetheSystem(prob)


def test_bethe_equations_take_zeta_once_per_unordered_root_pair(monkeypatch):
    system = three_root_system()
    M, N = system.M, len(system.problem.positions)
    assert M == 3
    zetas = count_everywhere(monkeypatch, "zeta11")
    zeta_rows = count_everywhere(monkeypatch, "zeta11_coeffs")
    thetas = count_everywhere(monkeypatch, "theta11_coeffs")
    res, jac, _ = system.equations([[0.21 + 0.13j, 0.52 + 0.4j, 0.83 + 0.61j]])
    assert np.all(np.isfinite(res)) and np.all(np.isfinite(jac))
    assert zetas == []
    assert arguments(zeta_rows) == arguments(thetas) == [M * N + M * (M - 1) // 2]


def test_eigenvalue_takes_zeta_once_per_site_and_root(monkeypatch):
    system = three_root_system()
    M, N = system.M, len(system.problem.positions)
    t = [[0.21 + 0.13j, 0.52 + 0.4j, 0.83 + 0.61j]]
    zeta_rows = count_everywhere(monkeypatch, "zeta11_coeffs")
    value = system.eigenvalue(t, [[0.37 + 0.29j]])
    assert np.isfinite(value)
    assert arguments(zeta_rows) == [N + M]
    # an array of u takes one call for every (u, site or root)
    zeta_rows.clear()
    values = system.eigenvalue(t, [[0.37 + 0.29j, 0.61 + 0.5j, 0.2 + 0.7j]])
    assert np.all(np.isfinite(values))
    assert arguments(zeta_rows) == [3 * (N + M)]


def test_bethe_solve_takes_one_zeta_call_and_one_stacked_solve_per_round(monkeypatch):
    cfg = load_config(str(CONFIGS / "a1_bethe_m2.ini"))
    system, guard = cfg.system, cfg.sampling["pole_guard"]
    kwargs = dict(n_seeds=cfg.bethe["n_seeds"], tol=cfg.bethe["newton_tol"],
                  max_iter=cfg.bethe["max_iter"], guard=guard)
    # seed by seed, each kept seed's evaluations and Newton steps
    evaluations, steps = [], []
    for seed in system._seed_points(kwargs["n_seeds"]):
        if system._too_close([seed], guard)[0]:
            continue
        counted = count_calls(monkeypatch, system, "equations")
        solves = count_calls(monkeypatch, np.linalg, "solve")
        newton_per_seed(system, seed, kwargs["tol"], kwargs["max_iter"])
        evaluations.append(len(counted))
        steps.append(len(solves))
        monkeypatch.undo()
    assert sum(evaluations) == 540 and max(evaluations) == 25

    events = []
    for owner, name in ((bethe, "zeta11_coeffs"), (np.linalg, "solve")):
        original = getattr(owner, name)

        def logged(*args, _name=name, _original=original):
            events.append((_name, args[0]))
            return _original(*args)

        monkeypatch.setattr(owner, name, logged)
    rounds = count_calls(monkeypatch, system, "equations")
    assert system.solve(**kwargs)
    zetas = [args for name, args in events if name == "zeta11_coeffs"]
    # no row raised, so one call per round, as many as the longest seed's
    # evaluations, each with M N + M (M - 1) / 2 arguments per live seed
    assert len(zetas) == len(rounds) == max(evaluations)
    width = system.M * len(system.problem.positions) + system.M * (system.M - 1) // 2
    assert [len(args) for args in zetas] == [width * len(np.atleast_2d(args[0])) for args, _ in rounds]
    # at most one solve between two rounds, stacked over the seeds that
    # begin a step, and the stacks hold every seed's steps
    names = [name for name, _ in events]
    assert ("solve", "solve") not in zip(names, names[1:])
    stacks = [args for name, args in events if name == "solve"]
    assert all(a.ndim == 3 for a in stacks)
    assert sum(len(a) for a in stacks) == sum(steps)


def test_bethe_solve_keeps_one_equations_call_per_round_past_an_overflow(monkeypatch):
    # on the 10-root probe at 256 seeds one Newton candidate diverges until
    # theta overflows: its row's fault drops that seed inside the round's
    # one call, which the other 80 rows share, so the solve takes 50 calls,
    # and only its last 5 rounds hold a single seed
    probe = Path(__file__).resolve().parent / "data" / "a1_dual_verma_m10_seeds256.ini"
    cfg = load_config(str(probe))
    system = cfg.system
    equations = system.equations
    calls = []

    def recorded(t):
        out = equations(t)
        calls.append((len(t), out[2].tolist()))
        return out

    monkeypatch.setattr(system, "equations", recorded)
    assert system.solve(
        n_seeds=cfg.bethe["n_seeds"], tol=cfg.bethe["newton_tol"],
        max_iter=cfg.bethe["max_iter"], guard=cfg.sampling["pole_guard"],
    )
    assert len(calls) == 50
    assert [rows for rows, _ in calls].count(1) == 5
    faulted = [(rows, faults.count(elliptic.OVERFLOW)) for rows, faults in calls if any(faults)]
    assert faulted == [(81, 1)]
