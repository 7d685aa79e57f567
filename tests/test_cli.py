"""End-to-end tests for the command-line front end.

Covers config parsing (complex literals, defaults, unknown-key and semantic
errors), exit codes, report rendering in all three formats, byte-stability
of the JSON-lines output, the eigenvalue sweep table, and the
negative-control path.
"""

from __future__ import annotations

import cmath
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ellgaudin import cli, gaudin
from ellgaudin.bethe import BetheError, BetheSystem
from ellgaudin.cli import (
    COMMANDS,
    CheckRecord,
    CheckRunner,
    ConfigError,
    Report,
    _instance_digest,
    format_complex,
    load_config,
    main,
    parse_complex,
    render_csv,
    render_jsonl,
    render_sweep_csv,
    run,
)
from ellgaudin.elliptic import Jet, jet_indices
from ellgaudin.gaudin import GaudinProblem
from ellgaudin.liealg import TensorSpace

from oracles import elliptic_stage_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL_SITES = """\
[algebra]
series = A
rank = 1

[elliptic]
tau = 0.8i

[sites]
count = 2
z_1 = 0.13
kind_1 = irrep
weight_1 = 1
z_2 = 0.41+0.2i
kind_2 = irrep
weight_2 = 1
"""


# ---------------------------------------------------------------------------
# complex literals
# ---------------------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("0.8i") == 0.8j
    assert parse_complex("0.3+1.1i") == 0.3 + 1.1j
    assert parse_complex("-0.3-0.2i") == -0.3 - 0.2j
    assert parse_complex("2e-3i") == 2e-3j
    assert parse_complex(" 0.25 + 0.8 i ") == 0.25 + 0.8j


@pytest.mark.parametrize("bad", ["", "abc", "inf", "1+nan*i", "1 2"])
def test_parse_complex_rejects_garbage(bad):
    with pytest.raises(ConfigError):
        parse_complex(bad)


def test_format_complex_round_trips():
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        assert parse_complex(format_complex(z)) == z
    assert parse_complex(format_complex(0.25 + 0j)) == 0.25


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


def test_load_minimal_config_materializes_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL_SITES))
    assert cfg.series == "A" and cfg.rank == 1
    assert cfg.tau == 0.8j
    assert len(cfg.sites) == 2
    assert cfg.sites[0].kind == "irrep" and cfg.sites[0].weight == (1,)
    assert cfg.tolerances["jets"] == 1e-12
    assert cfg.tolerances["pole_normalization"] == 1e-12
    assert cfg.sampling["sweep_points"] == 100
    assert cfg.seed == 0
    echo = "\n".join(cfg.echo_lines())
    assert "tolerances.commutator = 1e-08" in echo
    assert "sampling.pair_count = 20" in echo
    assert "rng.seed = 0" in echo


def test_shipped_configs_load():
    for name in sorted(os.listdir(CONFIGS)):
        cfg = load_config(str(CONFIGS / name))
        assert cfg.sites, name


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_SITES.replace(
        "[elliptic]\ntau = 0.8i", "[elliptic]\ntau = 0.8i\nbogus = 1"
    ))
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        load_config(path)
    # the order-3 commutator tolerance left with its record
    removed = "\n[tolerances]\ncommutator_top_order = 1e-12\n"
    path = write_config(tmp_path, MINIMAL_SITES + removed)
    assert main(["commute-check", "--config", path]) == 2
    assert "unknown key 'commutator_top_order'" in capsys.readouterr().err


def test_site_keys_are_read_off_the_keys_given(tmp_path):
    # a huge count with one site given is refused at its first missing
    # key, with work bounded by the keys present, not by the count
    one_site = MINIMAL_SITES.split("z_2")[0]
    path = write_config(tmp_path, one_site.replace("count = 2", "count = 200000"))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="missing key z_2$"):
            load_config(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # a key numbered outside 1..count, or not as k is written, stays unknown
    for key in ["z_01", "z_0", "z_3", "kind_", "weight_١", "depth_x", "z_1_", "count_1"]:
        path = write_config(tmp_path, MINIMAL_SITES + f"{key} = 1\n")
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in section"):
            load_config(path)


@pytest.mark.parametrize(
    "section,key,cap",
    [("sampling", "elliptic_points", 100_000), ("sampling", "sweep_points", 100_000),
     ("bethe", "n_seeds", 4096)],
)
def test_huge_counts_are_refused_by_key_and_cap(tmp_path, capsys, section, key, cap):
    # a count that would fill memory with samples or seeds, or run for
    # hours, is refused at load whatever the format: exit 2 naming the key
    # and its cap, with work bounded by the config, not by the count
    text = (CONFIGS / "a1_bethe_m1.ini").read_text(encoding="utf-8") + "\n[sampling]\n"
    text = re.sub(f"\n{key} = .*", "", text)
    at_cap = write_config(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{key} = {cap}\n"))
    assert getattr(load_config(at_cap), section)[key] == cap
    path = write_config(tmp_path, text.replace(f"[{section}]\n", f"[{section}]\n{key} = 3000000000\n"))
    for fmt in ("json-lines", "csv"):
        tracemalloc.start()
        try:
            assert main(["full-verify", "--config", path, "--format", fmt]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        err = capsys.readouterr().err
        assert f"[{section}] {key} must be <= {cap}, got 3000000000" in err


def test_sites_coincide_mod_lattice(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES.replace(
        "z_2 = 0.41+0.2i", "z_2 = 1.13"
    ))
    with pytest.raises(ConfigError, match="sites coincide mod lattice"):
        load_config(path)
    # three sites: the first coinciding pair (z_a, z_b), a < b, is named
    def three_sites(z1, z2, z3):
        text = MINIMAL_SITES.replace("count = 2", "count = 3")
        text = text.replace("z_1 = 0.13", f"z_1 = {z1}")
        text = text.replace("z_2 = 0.41+0.2i", f"z_2 = {z2}")
        return text + f"z_3 = {z3}\nkind_3 = irrep\nweight_3 = 2\n"

    for zs, pair in [
        (("0.13", "0.41+0.2i", "1.41+0.2i"), "z_2 = z_3"),
        (("0.41+0.2i", "-0.59+0.2i", "1.41+0.2i"), "z_1 = z_2"),
    ]:
        with pytest.raises(ConfigError, match=pair):
            load_config(write_config(tmp_path, three_sites(*zs)))


def test_charge_condition_violation_named(tmp_path, monkeypatch):
    # refused before any site module is built
    def refuse(*args, **kwargs):
        raise AssertionError("site module built")

    monkeypatch.setattr(cli, "build_dual_verma", refuse)
    text = MINIMAL_SITES.replace("kind_1 = irrep", "kind_1 = dual_verma")
    text = text.replace("kind_2 = irrep", "kind_2 = dual_verma")
    text = text.replace("weight_1 = 1", "weight_1 = 0.74+0.22i\ndepth_1 = 3")
    text = text.replace("weight_2 = 1", "weight_2 = 1\ndepth_2 = 3")
    path = write_config(tmp_path, text + "\n[bethe]\nassignment = auto\n")
    with pytest.raises(ConfigError, match="charge condition"):
        load_config(path)


def test_assignment_multiplicity_mismatch(tmp_path):
    text = MINIMAL_SITES.replace("kind_1 = irrep", "kind_1 = dual_verma")
    text = text.replace("kind_2 = irrep", "kind_2 = dual_verma")
    text = text.replace("weight_1 = 1", "weight_1 = 1\ndepth_1 = 3")
    text = text.replace("weight_2 = 1", "weight_2 = 1\ndepth_2 = 3")
    path = write_config(tmp_path, text + "\n[bethe]\nassignment = 1, 1\n")
    with pytest.raises(ConfigError, match="charge condition"):
        load_config(path)


def test_irrep_weight_must_be_integral(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES.replace(
        "weight_1 = 1", "weight_1 = 0.5"
    ))
    with pytest.raises(ConfigError, match="non-negative integers"):
        load_config(path)


def test_rank1_irrep_of_weight_7_loads(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES.replace(
        "weight_1 = 1", "weight_1 = 7"
    ))
    cfg = load_config(path)
    assert [m.dim for m in cfg.problem.space.modules] == [8, 2]


def test_depth_only_for_dual_verma(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES.replace(
        "weight_1 = 1", "weight_1 = 1\ndepth_1 = 3"
    ))
    with pytest.raises(ConfigError, match="depth_1"):
        load_config(path)

    missing = MINIMAL_SITES.replace("kind_2 = irrep", "kind_2 = dual_verma")
    with pytest.raises(ConfigError, match="requires depth_2"):
        load_config(write_config(tmp_path, missing, name="missing.ini"))


def test_bethe_requires_dual_verma_sites(tmp_path):
    path = write_config(tmp_path, MINIMAL_SITES + "\n[bethe]\n")
    with pytest.raises(ConfigError, match="dual_verma"):
        load_config(path)


def test_seed_changes_instance_digest(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL_SITES))
    d0 = _instance_digest(cfg, "full-verify", False)
    cfg.seed = 5
    assert _instance_digest(cfg, "full-verify", False) != d0
    assert _instance_digest(cfg, "full-verify", True) != d0


# The sample stream and the instance digest are computed in-process;
# NumPy's generator and hashlib are their oracles.
_SEED_BYTES = np.random.default_rng(27).bytes(9 * 50)
_STREAM_SEEDS = [0, 1, 11, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1, 3**90] + [
    int.from_bytes(_SEED_BYTES[k : k + 9], "little") >> 2  # below 2^70
    for k in range(0, len(_SEED_BYTES), 9)
]


@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_sample_stream_equals_numpy_default_rng(seed):
    ours, numpy_rng = cli._Uniforms(seed), np.random.default_rng(seed)
    for k in range(60):
        low, high = (-0.8, 0.8) if k % 2 else (0.05, 0.95)
        if k % 3 == 0:
            x, y = ours.uniform(low, high), numpy_rng.uniform(low, high)
            assert type(x) is float and type(y) is float
            assert np.float64(x).tobytes() == np.float64(y).tobytes()
        else:
            # sized calls as the samplers make them: by keyword and by position
            x, y = ours.uniform(low, high, k % 5), numpy_rng.uniform(low, high, size=k % 5)
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def test_instance_digest_equals_hashlib_sha256():
    import hashlib

    paths = sorted(CONFIGS.glob("*.ini")) + sorted((CONFIGS.parent / "tests" / "data").glob("*.ini"))
    assert paths
    for path in paths:
        cfg = load_config(str(path))
        for command in COMMANDS:
            for negative in (False, True):
                payload = "\n".join([command, f"negative-control={negative}", *cfg.echo_lines()])
                want = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
                assert _instance_digest(cfg, command, negative) == want


def test_commands_load_neither_numpy_random_nor_openssl_nor_csv():
    # NumPy 1.x imports numpy.random and hashlib itself, so what numpy alone
    # loads is excused; on NumPy 2 none of the three may load
    root = Path(__file__).resolve().parent.parent
    config = str(CONFIGS / "a1_bethe_m1.ini")
    code = (
        "import sys, numpy\n"
        "watch = ('numpy.random', '_hashlib', 'csv')\n"
        "before = {m for m in watch if m in sys.modules}\n"
        "from ellgaudin import cli\n"
        f"code = cli.main(['full-verify', '--config', {config!r}, '--format', 'json-lines'])\n"
        "print(code, sorted(m for m in watch if m in sys.modules and m not in before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_usage_error_exits_2():
    assert main(["elliptic-check"]) == 2  # missing --config
    assert main(["no-such-command", "--config", "x.ini"]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["describe-algebra", "--config", str(tmp_path / "nope.ini")]) == 2


def test_rank_outside_supported_range_exits_2(tmp_path, capsys):
    text = (
        MINIMAL_SITES.replace("rank = 1", "rank = 4")
        .replace("weight_1 = 1", "weight_1 = 1, 0, 0, 0")
        .replace("weight_2 = 1", "weight_2 = 0, 0, 0, 1")
    )
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="unsupported rank 4"):
        load_config(path)
    for command in ("commute-check", "describe-algebra"):
        assert main([command, "--config", path]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new",
    [
        ("tau = 0.8i", "tau = 0.5-0.2i"),
        ("tau = 0.8i", "tau = 0.8"),
        ("series = A", "series = B"),
        ("seed = 11", "seed = -1"),
        ("n_seeds = 32", "n_seeds = 0"),
        ("n_seeds = 32", "n_seeds = 32\nnewton_tol = -1e-12"),
        ("assignment = auto", "assignment = x"),
        ("[rng]", "[sampling]\nbox = nan\n\n[rng]"),
    ],
    ids=["tau-below", "tau-real", "series-B", "seed-negative", "n_seeds-0",
         "newton_tol-negative", "assignment-x", "box-nan"],
)
def test_out_of_range_value_exits_2_with_config_error(tmp_path, capsys, old, new):
    # tau and series are refused by the library while the instance builds
    text = (CONFIGS / "a1_bethe_m1.ini").read_text(encoding="utf-8")
    assert old in text
    path = write_config(tmp_path, text.replace(old, new))
    assert main(["describe-algebra", "--config", path]) == 2
    assert capsys.readouterr().err.startswith("ellgaudin: config error")


def test_readme_lists_every_config_key_with_its_default():
    readme = (CONFIGS.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| `([^`]*)` \|", readme, re.M)
    assert rows == [
        (section, key, cli._echo(default))
        for section, keys in cli.SCHEMA.items() if keys
        for key, default in keys.items()
    ]


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, ellgaudin.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_module_run_prints_no_runtime_warning():
    # the package does not import cli eagerly, so runpy finds it unloaded
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [
            sys.executable, "-W", "error::RuntimeWarning", "-m", "ellgaudin.cli",
            "full-verify", "--config", str(CONFIGS / "a1_n2_fund.ini"),
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("command", ["bethe-solve", "eigen-check"])
def test_diverging_seeds_print_no_runtime_warning(command):
    # some of the 256 seeds diverge until zeta overflows; the solve drops
    # them, with no numpy warning and no traceback
    root = Path(__file__).resolve().parent.parent
    config = root / "tests" / "data" / "a1_bethe_m4_seeds256.ini"
    proc = subprocess.run(
        [
            sys.executable, "-W", "error", "-m", "ellgaudin.cli",
            command, "--config", str(config), "--format", "json-lines",
        ],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    names = [json.loads(line)["name"] for line in proc.stdout.splitlines()]
    assert names[:4] == [f"bethe/root-residual-0{i}" for i in range(4)]


def test_record_walls_are_per_check(tmp_path, capsys):
    # each record's wall time covers only its own check, so the walls of
    # one run cannot add up to more than the run took (each printed wall is
    # rounded to 0.01 s, hence the half-unit per record)
    start = time.perf_counter()
    code = main(["elliptic-check", "--config", str(CONFIGS / "a1_n2_fund.ini")])
    elapsed = time.perf_counter() - start
    assert code == 0
    out = capsys.readouterr().out
    walls = [float(w) for w in re.findall(r"wall=([0-9.]+)s", out)]
    assert len(walls) == 8
    assert sum(walls) <= elapsed + 0.005 * len(walls)


def test_describe_algebra_exits_0(tmp_path, capsys):
    code = main(["describe-algebra", "--config", str(CONFIGS / "a2_n2_33bar.ini")])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: PASS" in out
    assert "algebra/cartan-orthonormal" in out


BETHE_CONFIGS = ["a1_bethe_m1", "a1_bethe_m1_sym", "a1_bethe_m2", "a1_bethe_m4", "a2_bethe_m2"]


@pytest.mark.parametrize("name", BETHE_CONFIGS)
def test_negative_control_exits_1(tmp_path, name):
    # every [bethe] config, so the rank-2 and M = 4 paths of the Bethe
    # vector and of apply have a failing control as well
    code = main(
        [
            "eigen-check",
            "--config",
            str(CONFIGS / f"{name}.ini"),
            "--negative-control",
            "--format",
            "json-lines",
            "--out",
            str(tmp_path / "neg"),
        ]
    )
    assert code == 1
    lines = (tmp_path / "neg" / "report.jsonl").read_text().splitlines()
    eigen = [json.loads(l) for l in lines if json.loads(l)["name"].startswith("eigen/")]
    assert eigen and all(not rec["pass"] for rec in eigen)
    assert all(rec["residual"] > 1e-4 for rec in eigen)


def test_negative_control_without_bethe_exits_2():
    code = main(
        [
            "eigen-check",
            "--config",
            str(CONFIGS / "a1_n2_fund.ini"),
            "--negative-control",
        ]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _dummy_report(records=(), sweep=None):
    return Report(
        command="x", instance="deadbeef0000", echo_lines=["a = 1"],
        records=list(records), sweep=sweep,
    )


def test_empty_report_header_only_csv():
    report = _dummy_report()
    assert render_csv(report) == "name,instance,residual,tolerance,pass,note\n"
    assert render_jsonl(report) == ""
    assert render_sweep_csv(_dummy_report(sweep=[])) == "u,re_tau_psi,im_tau_psi\n"


def test_single_pass_record_single_json_line():
    rec = CheckRecord(
        name="layer/check", instance="deadbeef0000", residual=1e-12,
        tolerance=1e-8, passed=True, wall=0.123,
    )
    text = render_jsonl(_dummy_report([rec]))
    lines = text.splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert obj["pass"] is True
    assert obj["name"] == "layer/check"
    assert "wall" not in obj and "wall_seconds" not in obj


def test_records_sorted_by_name():
    recs = [
        CheckRecord("b/two", "d", 0.0, 1.0, True),
        CheckRecord("a/one", "d", 0.0, 1.0, True),
    ]
    lines = render_jsonl(_dummy_report(recs)).splitlines()
    assert [json.loads(l)["name"] for l in lines] == ["a/one", "b/two"]


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------


def test_jsonl_byte_stable_for_fixed_seed(tmp_path):
    args = [
        "eigen-check",
        "--config",
        str(CONFIGS / "a1_bethe_m1_sym.ini"),
        "--format",
        "json-lines",
    ]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    first = (tmp_path / "one" / "report.jsonl").read_bytes()
    second = (tmp_path / "two" / "report.jsonl").read_bytes()
    assert first == second
    assert first  # non-empty


def test_bethe_solve_reports_roots(tmp_path, capsys):
    code = main(
        ["bethe-solve", "--config", str(CONFIGS / "a1_bethe_m1_sym.ini")]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bethe/root-residual-00" in out
    assert "verdict: PASS" in out


def test_csv_sweep_monotone_grid(tmp_path):
    code = main(
        [
            "eigen-check",
            "--config",
            str(CONFIGS / "a1_bethe_m1.ini"),
            "--format",
            "csv",
            "--out",
            str(tmp_path / "csv"),
        ]
    )
    assert code == 0
    sweep = (tmp_path / "csv" / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "u,re_tau_psi,im_tau_psi"
    assert len(sweep) == 101
    reals = [parse_complex(line.split(",")[0]).real for line in sweep[1:]]
    assert all(b > a for a, b in zip(reals, reals[1:]))
    report = (tmp_path / "csv" / "report.csv").read_text().splitlines()
    assert report[0] == "name,instance,residual,tolerance,pass,note"
    assert any(line.startswith("eigen/residual-00") for line in report[1:])


def test_commute_check_same_point_record(tmp_path):
    text = MINIMAL_SITES + (
        "\n[sampling]\npair_count = 2\ncartan_count = 2\nu_count = 2\n"
    )
    out = tmp_path / "rep"
    code = main(
        [
            "commute-check",
            "--config",
            write_config(tmp_path, text),
            "--format",
            "json-lines",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    records = {
        json.loads(line)["name"]: json.loads(line)
        for line in (out / "report.jsonl").read_text().splitlines()
    }
    # the same-point and top-order records read 0 by construction and are
    # gone: commute/distinct-points is the one commute record
    assert list(records) == ["commute/distinct-points"]
    assert records["commute/distinct-points"]["pass"]
    assert records["commute/distinct-points"]["residual"] <= 1e-12


def test_full_verify_without_bethe_runs_three_stages(tmp_path):
    cfg = load_config(str(CONFIGS / "a1_n2_fund.ini"))
    report = run("full-verify", cfg)
    prefixes = {rec.name.split("/")[0] for rec in report.records}
    assert prefixes == {"elliptic", "algebra", "commute"}
    assert report.verdict


def test_seed_override_used(tmp_path):
    cfg = load_config(str(CONFIGS / "a1_n2_fund.ini"))
    assert cfg.seed == 7
    code = main(
        [
            "describe-algebra",
            "--config",
            str(CONFIGS / "a1_n2_fund.ini"),
            "--seed",
            "12345",
            "--format",
            "json-lines",
            "--out",
            str(tmp_path / "seeded"),
        ]
    )
    assert code == 0
    line = (tmp_path / "seeded" / "report.jsonl").read_text().splitlines()[0]
    digest = json.loads(line)["instance"]
    assert digest != _instance_digest(cfg, "describe-algebra", False)


def test_rank2_irreps_21_and_12_pass_commute_check():
    path = str(CONFIGS / "a2_n2_21_12.ini")
    assert load_config(path).problem.space.dim0 == 21
    assert main(["commute-check", "--config", path, "--format", "json-lines"]) == 0


def test_nan_residual_fails_its_record(monkeypatch):
    # Python's max(1e-13, nan) is 1e-13: a NaN that follows a finite
    # residual in a fold must still reach the record and fail it.  Every
    # call takes the first side's lanes and then the second side's (the
    # commutator's one call per pass, and the spot check's two lone
    # operators), and the second side's come out NaN
    true_parts = GaudinProblem.transfer_parts

    def nan_on_second_side(self, u, H, order=0):
        zero, cartan = true_parts(self, u, H, order)
        second = np.arange(np.size(u)) >= np.size(u) // 2
        coeffs = np.where(second[:, None, None], np.nan, zero.coeffs)
        cartan = np.where(second[:, None, None], np.nan, cartan)
        return Jet(zero.nvars, zero.total, coeffs), cartan

    monkeypatch.setattr(GaudinProblem, "transfer_parts", nan_on_second_side)
    runner = CheckRunner(load_config(str(CONFIGS / "a1_n2_fund.ini")),
                         "commute-check", False)
    runner.stage_commute()
    records = {r.name: r for r in runner.report.records}
    assert sorted(records) == ["commute/distinct-points"]
    assert not any(r.passed for r in records.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_cartan_diagonal_on_one_lane_fails_the_record(monkeypatch, bad):
    # NaN or inf confined to the diagonals A_r of one lane of the
    # commutator's pass, with V finite there, reaches [A_r, V] and A_r d_r V
    # and fails commute/distinct-points; the spot check's call is untouched
    true_parts = GaudinProblem.transfer_parts

    def bad_lane(self, u, H, order=0):
        zero, cartan = true_parts(self, u, H, order)
        if np.size(u) > 2:
            cartan = cartan.copy()
            cartan[3] = bad
        return zero, cartan

    monkeypatch.setattr(GaudinProblem, "transfer_parts", bad_lane)
    runner = CheckRunner(load_config(str(CONFIGS / "a1_n2_fund.ini")), "commute-check", False)
    # inf - inf on the diagonal of [A_r, V] gives NaN without a warning, so
    # under -W error as well the record fails rather than the stage erring
    runner.stage_commute()
    (record,) = runner.report.records
    assert record.name == "commute/distinct-points"
    assert not record.passed


def drop_root_on_second_members(monkeypatch) -> list:
    """Make the commute stage's second operator of every pair lose the
    pair term of the first positive root from its potential:
    ``transfer_parts`` drops it on the lanes whose u is a second member of
    a pair (u_1, u_3, ... of the stage's draw, counted from 0) and keeps
    every other lane.  Returns the list that records the stage's spectral
    draws."""
    true_parts = GaudinProblem.transfer_parts
    true_points = CheckRunner._spectral_points
    drawn = []

    def spectral_points(self, positions, count):
        drawn.append(np.array(true_points(self, positions, count)))
        return drawn[-1]

    def drop_root(self, u, H, order=0):
        full, cartan = true_parts(self, u, H, order)
        lanes = np.isin(u, drawn[0][1::2])
        if not lanes.any():
            return full, cartan
        pair = self._pair
        self._pair = pair.copy()
        self._pair[0] = 0.0
        try:
            dropped = true_parts(self, u, H, order)[0]
        finally:
            self._pair = pair
        coeffs = np.where(lanes[..., None, None], dropped.coeffs, full.coeffs)
        return Jet(full.nvars, full.total, coeffs), cartan

    monkeypatch.setattr(CheckRunner, "_spectral_points", spectral_points)
    monkeypatch.setattr(GaudinProblem, "transfer_parts", drop_root)
    return drawn


@pytest.mark.parametrize("config", ["a1_n2_fund", "a2_n2_33bar", "a2_bethe_m2"])
def test_commute_check_fails_without_one_root_pair_term(monkeypatch, config):
    # negative control: the second operator of every pair loses the pair
    # term of the first positive root from its potential, in every pass,
    # and the default commutator tolerance of 1e-8 must catch it
    drawn = drop_root_on_second_members(monkeypatch)
    cfg = load_config(str(CONFIGS / f"{config}.ini"))
    assert cfg.tolerances["commutator"] == 1e-8
    runner = CheckRunner(cfg, "commute-check", False)
    runner.stage_commute()
    records = {r.name: r for r in runner.report.records}
    assert len(drawn) == 1
    assert not records["commute/distinct-points"].passed
    assert records["commute/distinct-points"].residual > 1e-3


def test_composed_spot_check_catches_a_closed_form_that_hides_the_commutator(monkeypatch):
    # a closed form that reads zero on a family that does not commute must
    # still fail commute/distinct-points: the spot check composes the first
    # pair at the first point generically
    drop_root_on_second_members(monkeypatch)
    true_values = gaudin.commutator_values

    def hidden(first, second):
        return {m: 0.0 * v for m, v in true_values(first, second).items()}

    monkeypatch.setattr(gaudin, "commutator_values", hidden)
    runner = CheckRunner(load_config(str(CONFIGS / "a1_n2_fund.ini")), "commute-check", False)
    runner.stage_commute()
    records = {r.name: r for r in runner.report.records}
    assert not records["commute/distinct-points"].passed
    assert records["commute/distinct-points"].residual > 1e-3


# ---------------------------------------------------------------------------
# dual Verma truncation depth
# ---------------------------------------------------------------------------


def test_inconclusive_eigen_check_fails_and_exits_1(monkeypatch, capsys):
    # a Bethe vector that vanishes at every sample verifies nothing: the
    # record keeps its note and residual 0 but fails, and so does the run
    verify = BetheSystem.verify_eigenvector

    def vanishing(self, t, h_points, u_points, tiny=1e-12):
        return verify(self, t, h_points, u_points, tiny=np.inf)

    monkeypatch.setattr(BetheSystem, "verify_eigenvector", vanishing)
    path = str(CONFIGS / "a1_bethe_m1.ini")
    assert main(["full-verify", "--config", path, "--format", "json-lines"]) == 1
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    eigen = [r for r in records if r["name"].startswith("eigen/residual-")]
    assert eigen
    for record in eigen:
        assert record["pass"] is False
        assert record["residual"] == 0.0
        assert record["note"] == "inconclusive: eigenvector vanished at all samples"


@pytest.mark.parametrize("command, stage", [("commute-check", "commute"), ("eigen-check", "eigen")])
def test_a_non_finite_kernel_argument_is_named_in_the_error_note(monkeypatch, command, stage):
    # a NaN spectral parameter reaches theta in the commute stage and zeta
    # in the eigen stage: the stage's error record names the non-finite
    # argument, not an overflow, and the run exits 1
    spectral = CheckRunner._spectral_points

    def with_nan(self, avoid, count):
        points = list(spectral(self, avoid, count))
        points[0] = complex(np.nan, 0.3)
        return points

    monkeypatch.setattr(CheckRunner, "_spectral_points", with_nan)
    report = run(command, load_config(str(CONFIGS / "a1_bethe_m1.ini")))
    failed = [r for r in report.records if not r.passed]
    assert [r.name for r in failed] == [f"{stage}/error"]
    assert failed[0].note.startswith("EllipticError: theta11 has a non-finite argument")


@pytest.mark.parametrize("command", ["eigen-check", "full-verify"])
def test_failed_bethe_stage_is_solved_once_and_recorded_once(monkeypatch, command):
    # the eigen stage checks what the Bethe stage found; after a Bethe
    # failure it neither solves again nor repeats the failure
    calls = []

    def failing(self, *args, **kwargs):
        calls.append(args)
        raise BetheError("no convergent seed")

    monkeypatch.setattr(BetheSystem, "solve", failing)
    report = run(command, load_config(str(CONFIGS / "a1_bethe_m1.ini")))
    assert len(calls) == 1
    failed = [r for r in report.records if not r.passed]
    assert [r.name for r in failed] == ["bethe/error"]
    assert failed[0].note == "BetheError: no convergent seed"
    assert not any(r.name.startswith("eigen/") for r in report.records)


def test_rank2_bethe_config_passes_eigen_check():
    assert main(["eigen-check", "--config", str(CONFIGS / "a2_bethe_m2.ini"),
                 "--format", "json-lines"]) == 0


def test_depth_below_m_plus_highest_root_exits_2(tmp_path, capsys):
    # rank 2, M = 2: depth 3 passed validation once and then reported
    # eigen residuals of order 10; M + ht(theta) = 4 is required
    text = (CONFIGS / "a2_bethe_m2.ini").read_text(encoding="utf-8")
    shallow = write_config(tmp_path, text.replace("depth_1 = 4", "depth_1 = 3"))
    with pytest.raises(ConfigError, match=r"depth_1 = 3 is below M \+ ht\(theta\) = 4"):
        load_config(shallow)
    assert main(["eigen-check", "--config", shallow]) == 2
    # commute-check on the same sites, without a [bethe] section
    commute = text.replace("depth_2 = 4", "depth_2 = 3").split("[bethe]")[0]
    path = write_config(tmp_path, commute, name="commute.ini")
    assert main(["commute-check", "--config", path]) == 2
    assert "M + ht(theta) = 4" in capsys.readouterr().err


def _record_fields(report):
    return [(r.name, r.residual, r.tolerance, r.passed, r.note) for r in report.records]


def test_dual_verma_sites_are_built_at_m_plus_highest_root(tmp_path):
    # depth_k only has to reach M + ht(theta) = 4; a deeper one is echoed
    # as configured but builds the same 22-dimensional sites, not 252
    text = (CONFIGS / "a2_bethe_m2.ini").read_text(encoding="utf-8")
    deep = text.replace("depth_1 = 4", "depth_1 = 12").replace("depth_2 = 4", "depth_2 = 12")
    cfg = load_config(write_config(tmp_path, deep))
    assert [m.dim for m in cfg.problem.modules] == [22, 22]
    assert [m.depth for m in cfg.problem.modules] == [4, 4]
    assert "sites.depth_1 = 12" in cfg.echo_lines()
    shipped = run("full-verify", load_config(str(CONFIGS / "a2_bethe_m2.ini")))
    assert _record_fields(run("full-verify", cfg)) == _record_fields(shipped)


_COMMON_RECORDS = {
    "algebra/cartan-orthonormal", "algebra/rho-half-sum",
    "commute/distinct-points",
    "elliptic/jets-vs-contour", "elliptic/pole-normalization",
    "elliptic/theta-period-1", "elliptic/theta-period-tau",
    "elliptic/w-period-1", "elliptic/w-period-tau",
    "elliptic/zeta-period-1", "elliptic/zeta-period-tau",
}
# Bethe solutions each shipped config reports (0: no [bethe] section); a
# new config needs its entry
_SHIPPED_SOLUTIONS = {
    "a1_bethe_m1": 4, "a1_bethe_m1_sym": 3, "a1_bethe_m2": 4, "a1_bethe_m4": 4,
    "a1_n2_fund": 0, "a1_n3_mixed": 0, "a2_bethe_m2": 4, "a2_n2_21_12": 0,
    "a2_n2_33bar": 0, "a2_n3_adjoint": 0,
}


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.ini")))
def test_shipped_config_passes_full_verify(config):
    report = run("full-verify", load_config(str(CONFIGS / f"{config}.ini")))
    assert report.verdict
    assert all(r.passed for r in report.records)
    expected = set(_COMMON_RECORDS)
    for k in range(_SHIPPED_SOLUTIONS[config]):
        expected |= {f"bethe/root-residual-{k:02d}", f"eigen/residual-{k:02d}"}
    assert {r.name for r in report.records} == expected
    assert len(report.records) == len(expected)


def test_three_site_rank2_eigen_check_on_zero_weight_space(tmp_path, monkeypatch):
    # Full tensor dimension 10,648 (22**3), zero-weight dimension 12: the
    # operators must be assembled without touching the full product.
    def refuse(*args, **kwargs):
        raise AssertionError("full tensor-product operator built")

    monkeypatch.setattr(TensorSpace, "op_full", refuse)
    text = """\
[algebra]
series = A
rank = 2

[elliptic]
tau = 0.8i

[sites]
count = 3
z_1 = 0.11
kind_1 = dual_verma
weight_1 = 0.5+0.1i, 0.3-0.1i
depth_1 = 4
z_2 = 0.43+0.27i
kind_2 = dual_verma
weight_2 = 0.2-0.15i, 0.4+0.05i
depth_2 = 4
z_3 = 0.74+0.58i
kind_3 = dual_verma
weight_3 = 0.3+0.05i, 0.3+0.05i
depth_3 = 4

[bethe]
assignment = 1, 2

[rng]
seed = 3
"""
    runner = CheckRunner(load_config(write_config(tmp_path, text)),
                         "eigen-check", False)
    report = runner.run()
    assert runner.problem.space.dim == 10648
    assert runner.problem.space.dim0 == 12
    eigen = [r for r in report.records if r.name.startswith("eigen/residual")]
    assert eigen
    assert report.verdict
    assert max(r.residual for r in eigen) < 1e-10


# ---------------------------------------------------------------------------
# one validity rule: a config loads iff its instance builds
# ---------------------------------------------------------------------------


def _dual_verma_trivial_zero_weight():
    # weights 0.74+0.22i and 1 do not sum into the root lattice
    text = MINIMAL_SITES.replace("kind_1 = irrep", "kind_1 = dual_verma")
    text = text.replace("kind_2 = irrep", "kind_2 = dual_verma")
    text = text.replace("weight_1 = 1", "weight_1 = 0.74+0.22i\ndepth_1 = 3")
    return text.replace("weight_2 = 1", "weight_2 = 1\ndepth_2 = 3")


def _one_irrep_site():
    return MINIMAL_SITES.replace("count = 2", "count = 1").split("z_2")[0]


def _shallow_rank2_bethe():
    text = (CONFIGS / "a2_bethe_m2.ini").read_text(encoding="utf-8")
    return text.replace("depth_1 = 4", "depth_1 = 3")


@pytest.mark.parametrize(
    "make",
    [_dual_verma_trivial_zero_weight, _one_irrep_site, _shallow_rank2_bethe],
)
def test_unbuildable_instance_is_a_config_error_for_every_command(
    make, tmp_path, capsys
):
    path = write_config(tmp_path, make())
    for command in COMMANDS:
        assert main([command, "--config", path]) == 2, command
        err = capsys.readouterr().err
        assert "config error" in err, command
        assert "Traceback" not in err, command


def test_cancelling_theta_series_is_a_config_error(tmp_path, capsys):
    text = MINIMAL_SITES.replace("tau = 0.8i", "tau = 0.02i")
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="cancels"):
        load_config(path)
    assert main(["elliptic-check", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("guard", ["0.5", "0.6"])
def test_pole_guard_of_half_a_cell_is_a_config_error(tmp_path, capsys, guard):
    # the cell samples keep pole_guard from each edge of the cell, so from
    # 0.5 on none is left, and every stage used to end in an unrelated error
    text = MINIMAL_SITES + f"\n[sampling]\npole_guard = {guard}\n"
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="pole_guard must be below 0.5"):
        load_config(path)
    assert main(["full-verify", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_pole_guard_below_half_a_cell_loads(tmp_path):
    text = MINIMAL_SITES + "\n[sampling]\npole_guard = 0.49\n"
    assert load_config(write_config(tmp_path, text)).sampling["pole_guard"] == 0.49


@pytest.mark.parametrize(
    "command, config, guard",
    [
        # two sites leave no point of the cell 0.49 from both
        ("commute-check", None, "0.49"),
        ("full-verify", None, "0.49"),
        # the roots found at 0.42 leave no room once they are avoided too
        ("eigen-check", "a1_bethe_m1.ini", "0.42"),
    ],
)
def test_pole_guard_without_room_for_spectral_points_exits_2(
    tmp_path, capsys, command, config, guard
):
    text = MINIMAL_SITES if config is None else (CONFIGS / config).read_text(encoding="utf-8")
    path = write_config(tmp_path, text + f"\n[sampling]\npole_guard = {guard}\n")
    assert main([command, "--config", path, "--format", "json-lines"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config error: [sampling] pole_guard = {guard} leaves no room" in captured.err
    assert "spectral points" in captured.err


@pytest.mark.parametrize(
    "command, config, key, value",
    [
        ("commute-check", "a2_n2_33bar.ini", "box", "1e-6"),
        ("commute-check", "a2_n2_33bar.ini", "pole_guard", "0.45"),
        ("full-verify", "a2_n2_33bar.ini", "box", "1e-6"),
        ("eigen-check", "a1_bethe_m1.ini", "box", "1e-6"),
        ("full-verify", "a1_bethe_m1.ini", "box", "1e-6"),
    ],
)
def test_cartan_box_without_regular_points_exits_2(
    tmp_path, capsys, command, config, key, value
):
    # every Cartan point of a tiny box lies near the wall alpha(H) = 0, and
    # a wide guard leaves no point of the box; both ended in a failing
    # commute/error record before
    text = (CONFIGS / config).read_text(encoding="utf-8")
    path = write_config(tmp_path, text + f"\n[sampling]\n{key} = {value}\n")
    assert main([command, "--config", path, "--format", "json-lines"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error: [sampling] box and pole_guard leave no room" in captured.err
    assert "could not sample 5 regular Cartan points" in captured.err
    assert "in 10000 draws" in captured.err


@pytest.mark.parametrize(
    "path, extra, ran, seeds",
    [
        # one iteration is too few for any seed
        (CONFIGS / "a1_bethe_m4.ini", "max_iter = 1\n", 22, 32),
        # the pole_guard screen drops every seed of the 12-root probe
        (Path(__file__).resolve().parent / "data" / "a1_dual_verma_m12.ini", "", 0, 16),
    ],
)
def test_no_solution_note_counts_the_seeds_that_ran(tmp_path, capsys, path, extra, ran, seeds):
    text = path.read_text(encoding="utf-8").replace("[bethe]\n", "[bethe]\n" + extra)
    cfg = load_config(write_config(tmp_path, text))
    assert len(cfg.system.screened_seeds(seeds, cfg.sampling["pole_guard"])) == ran
    report = run("bethe-solve", cfg)
    (record,) = report.records
    assert record.name == "bethe/no-solution" and not record.passed
    assert record.note == (
        f"no Bethe roots found from {ran} of {seeds} seeds; {seeds - ran} had a "
        "root within [sampling] pole_guard = 0.05 of a site or another root"
    )


def test_twelve_root_probe_passes_elliptic_check(capsys):
    path = Path(__file__).resolve().parent / "data" / "a1_dual_verma_m12.ini"
    assert main(["elliptic-check", "--config", str(path), "--format", "json-lines"]) == 0


def test_loaded_config_carries_its_built_instance():
    cfg = load_config(str(CONFIGS / "a1_bethe_m1.ini"))
    runner = CheckRunner(cfg, "eigen-check", False)
    assert runner.md is cfg.md and cfg.md.tau == cfg.tau
    assert runner.problem is cfg.problem and runner.system is cfg.system
    assert cfg.system.problem is cfg.problem and cfg.system.M == 1
    no_bethe = load_config(str(CONFIGS / "a1_n2_fund.ini"))
    assert no_bethe.problem is not None and no_bethe.system is None


@pytest.mark.parametrize("tau", ["40i", "60i"])
@pytest.mark.parametrize("command", ["commute-check", "elliptic-check"])
def test_commute_check_runs_at_large_im_tau(tmp_path, capsys, command, tau):
    # at tau = 50i-225i the theta series' envelope and its top-of-cell terms
    # overflowed on their own and every commute check became an error record;
    # the elliptic jets, right there, failed against finite differences whose
    # error was divided by a reference of size 1e-31 to 1e-43
    text = MINIMAL_SITES.replace("tau = 0.8i", f"tau = {tau}")
    path = write_config(tmp_path, text)
    assert main([command, "--config", path, "--format", "json-lines"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(r["pass"] for r in records)


def _elliptic_records(cfg):
    runner = CheckRunner(cfg, "elliptic-check", False)
    runner.stage_elliptic()
    return {r.name: r for r in runner.report.records}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")), ids=lambda p: p.stem)
def test_elliptic_stage_equals_per_contour_reference(path):
    # the stage takes each function once for all its rings; every record
    # equals the one kernel call per shift and per contour gives
    cfg = load_config(str(path))
    records = _elliptic_records(cfg)
    sampler = CheckRunner(cfg, "elliptic-check", False)
    n = cfg.sampling["elliptic_points"]
    zs, cs = sampler._cell_points(n), sampler._cell_points(n)
    want = elliptic_stage_reference(cfg.md, zs, cs, cfg.sampling["jet_points"])
    assert {name: r.residual for name, r in records.items()} == want


def test_jets_note_counts_the_points_checked(tmp_path):
    # jet points are taken from the elliptic sample, so at most
    # elliptic_points of them are checked
    text = MINIMAL_SITES + "\n[sampling]\nelliptic_points = 3\njet_points = 7\n"
    records = _elliptic_records(load_config(write_config(tmp_path, text)))
    (jets,) = [r for n, r in records.items() if n.startswith("elliptic/jets-vs-")]
    assert jets.note == "theta, zeta and w jets at 3 points"


def test_jets_record_catches_a_perturbed_mixed_coefficient(monkeypatch):
    # a relative 1e-8 error in d^2 w / dc dz, values untouched, stayed under
    # the finite-difference record's 1e-6
    true_w_kernel = cli.w_kernel

    def skewed(c, z, md, order=0):
        jet = true_w_kernel(c, z, md, order)
        if order >= 2:
            jet.coeffs[jet_indices(2, order).index((1, 1))] *= 1 + 1e-8
        return jet

    monkeypatch.setattr(cli, "w_kernel", skewed)
    records = _elliptic_records(load_config(str(CONFIGS / "a1_n2_fund.ini")))
    (jets,) = [r for n, r in records.items() if n.startswith("elliptic/jets-vs-")]
    assert not jets.passed
    assert all(r.passed for r in records.values() if r is not jets)


def test_contour_coeffs_taylor_and_residue():
    z0, r = 0.3 + 0.1j, 0.05
    coeffs = cli._contour_coeffs(np.exp(2 * cli._ring(z0, r)), r)
    for k, exact in ((0, 1), (1, 2), (2, 2)):
        a, bound = coeffs[k]
        assert abs(a - exact * cmath.exp(2 * z0)) <= 1e-14 * bound
    a, bound = coeffs[-1]
    assert abs(a) <= 1e-14 * bound
    ring = cli._ring(0, r)
    coeffs = cli._contour_coeffs(1 / ring + 2 + ring, r)
    for k, exact in ((-1, 1), (0, 2), (1, 1), (2, 0)):
        a, bound = coeffs[k]
        assert abs(a - exact) <= 1e-14 * bound


def test_underflowing_nome_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, MINIMAL_SITES.replace("tau = 0.8i", "tau = 300i"))
    with pytest.raises(ConfigError, match="too large"):
        load_config(path)
    assert main(["commute-check", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
