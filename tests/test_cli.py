import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from scipy import stats

from tricklesim import analytics as an
from tricklesim import cli, csvio
from tricklesim.cli import (
    ExperimentSpec,
    SpecError,
    build_spec,
    load_spec_file,
    main,
)
from tricklesim.quadrature import quad


def run_cli(*args):
    return main(list(args))


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# spec: ")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


# --------------------------------------------------------------------------
# spec files and precedence

def test_load_spec_file(tmp_path):
    f = tmp_path / "exp.spec"
    f.write_text(
        """
        # an experiment
        name = demo
        k = 1, 2
        eta = 0.5   # inline comment
        replications = 3
        """
    )
    entries = load_spec_file(f)
    assert entries == {"name": "demo", "k": "1, 2", "eta": "0.5", "replications": "3"}


def test_load_spec_file_errors(tmp_path):
    missing = tmp_path / "nope.spec"
    with pytest.raises(SpecError):
        load_spec_file(missing)
    bad = tmp_path / "bad.spec"
    bad.write_text("just words\n")
    with pytest.raises(SpecError):
        load_spec_file(bad)


class _Args:
    """Flag namespace with everything unset."""

    def __init__(self, **kw):
        for name in ("k", "n", "side", "range", "eta", "replications", "duration",
                     "warmup", "seed", "bins", "out", "name", "spec", "profile",
                     "ks_threshold"):
            setattr(self, name, None)
        for key, value in kw.items():
            setattr(self, key, value)


def test_build_spec_defaults():
    spec = build_spec("simulate", _Args(k="1", n="10", eta="0"))
    assert spec.replications == 1000
    assert spec.duration == 100.0
    assert spec.warmup == 10.0
    assert spec.seed == 1
    assert spec.histogram_bins == 60
    assert spec.name == "simulate"
    assert spec.eta == [0.0]


def test_build_spec_profiles():
    quick = build_spec("simulate", _Args(k="1", n="10", profile="quick"))
    assert quick.replications == 50 and quick.duration == 100.0
    paper = build_spec("simulate", _Args(k="1", n="10", profile="paper"))
    assert paper.replications == 1000
    # explicit flag beats the profile bundle
    spec = build_spec("simulate", _Args(k="1", n="10", profile="quick", replications=7))
    assert spec.replications == 7
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="1", n="10", profile="huge"))


# key: (flag text, spec-file text, the ExperimentSpec field and its value from the file)
OVERRIDES = {
    "name": ("fromflag", "fromfile", "name", "fromfile"),
    "k": ("1,2", "3", "k", [3]),
    "n": ("10", "12, 14", "n", [12, 14]),
    "side": ("4", "6", "side", 6),
    "range": ("1", "2.5,3", "radio_range", [2.5, 3.0]),
    "eta": ("0", "0.5", "eta", [0.5]),
    "replications": ("4", "9", "replications", 9),
    "duration": ("50", "60.5", "duration", 60.5),
    "warmup": ("5", "7.5", "warmup", 7.5),
    "seed": ("3", "1e3", "seed", 1000),
    "bins": ("10", "20", "histogram_bins", 20),
    "ks_threshold": ("0.1", "0.2", "ks_threshold", 0.2),
    "out": ("flagdir", "filedir", "output_dir", Path("filedir")),
}


def test_overrides_cover_every_setting():
    assert sorted(OVERRIDES) == sorted(key for key, *_ in cli._SETTINGS)


@pytest.mark.parametrize("key", sorted(OVERRIDES))
def test_spec_file_overrides_flags(tmp_path, key):
    flag, text, attr, want = OVERRIDES[key]
    f = tmp_path / "o.spec"
    f.write_text(f"{key} = {text}\n")
    base = dict(k="1", n="10", range="1")
    flagged = build_spec("multicell", _Args(**{**base, key: flag}))
    spec = build_spec("multicell", _Args(**{**base, key: flag, "spec": str(f)}))
    assert getattr(flagged, attr) != want and getattr(spec, attr) == want
    assert replace(spec, **{attr: getattr(flagged, attr)}) == flagged  # nothing else moved


def test_flags_parse_as_spec_values(tmp_path, capsys):
    assert build_spec("simulate", _Args(k="1", n="10", seed="1e3")).seed == 1000
    big = str(2**64 - 1)  # integers are read exactly, not through a float
    assert build_spec("simulate", _Args(k="1", n="10", seed=big)).seed == 2**64 - 1
    assert run_cli("multicell", "--k", "1", "--range", "1", "--side", "2.5",
                   "--out", str(tmp_path)) == 2
    assert "configuration error: bad side value" in capsys.readouterr().err


def test_spec_unknown_key(tmp_path):
    f = tmp_path / "u.spec"
    f.write_text("kk = 3\n")
    with pytest.raises(SpecError, match="unknown spec file keys"):
        build_spec("simulate", _Args(k="1", n="10", spec=str(f)))


def test_spec_validation_errors():
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(n="10", eta="0"))  # k grid missing
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="1", n="10", eta="1.5"))
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="0", n="10"))
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="1.5", n="10"))
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="1", n="10", duration=5.0, warmup=5.0))
    with pytest.raises(SpecError):
        build_spec("multicell", _Args(k="1", eta="0"))  # range grid missing
    with pytest.raises(SpecError):
        build_spec("simulate", _Args(k="1", n="10", replications=0))
    for value in (7.5, 7.0, "7.5"):
        with pytest.raises(SpecError, match="bad replications value"):
            build_spec("simulate", _Args(k="1", n="10", replications=value))
    with pytest.raises(SpecError):
        build_spec("compare", _Args(k="1", n="10", eta="0,1"))  # no gap density at eta=1
    for threshold in (math.nan, -1.0, 0.0, 1.5, math.inf):
        with pytest.raises(SpecError, match="ks threshold"):
            build_spec("compare", _Args(k="1", n="10", ks_threshold=threshold))


def test_comment_is_deterministic(tmp_path):
    a = ExperimentSpec(name="x", mode="analytic", k=[1], n=[5], eta=[0.0])
    b = ExperimentSpec(name="x", mode="analytic", k=[1], n=[5], eta=[0.0])
    assert a.comment() == b.comment()
    assert a.comment().startswith("spec: mode=analytic name=x")
    out = tmp_path / "outdir"
    spec = build_spec("multicell", _Args(
        name="every", k="1,2", n="5,10", side="8", range="1.5,2", eta="0,0.25",
        replications="3", duration="42.5", warmup="2.5", seed="7", bins="12",
        ks_threshold="0.01", out=str(out),
    ))
    line, version = spec.comment().split(" | ")
    assert line == (
        "spec: mode=multicell name=every k=1,2 n=5,10 side=8 range=1.5,2 eta=0,0.25 "
        "replications=3 duration=42.5 warmup=2.5 seed=7 bins=12 ks_threshold=0.01"
    )
    assert version == csvio.version_string()
    assert "outdir" not in spec.comment()


# --------------------------------------------------------------------------
# subcommands end to end

def test_simulate_writes_counts_and_gaps(tmp_path):
    code = run_cli(
        "simulate", "--k", "1", "--n", "10", "--eta", "0,0.5",
        "--replications", "2", "--duration", "15", "--out", str(tmp_path),
        "--name", "t",
    )
    assert code == 0
    comment, header, rows = read_csv(tmp_path / "t_counts.csv")
    assert header == ["k", "n", "eta", "mean_N_sim", "std", "ci_halfwidth", "replications"]
    assert len(rows) == 2
    assert [r[0] for r in rows] == ["1", "1"]
    assert {r[2] for r in rows} == {"0", "0.5"}
    assert all(float(r[3]) > 0 for r in rows)
    _, header, gaps = read_csv(tmp_path / "t_gaps.csv")
    assert header == ["k", "n", "eta", "gap"]
    assert len(gaps) > 10
    assert all(float(g[3]) >= 0 for g in gaps)


def test_analytic_table(tmp_path):
    code = run_cli(
        "analytic", "--k", "1,2", "--n", "50", "--eta", "0,1", "--bins", "4",
        "--out", str(tmp_path), "--name", "a",
    )
    assert code == 0
    _, header, rows = read_csv(tmp_path / "a_analytic.csv")
    assert header[:6] == ["k", "n", "eta", "t", "pdf", "cdf"]
    curve = [r for r in rows if r[2] == "0" and r[0] == "1"]
    assert len(curve) == 5  # bins + 1 grid points
    degenerate = [r for r in rows if r[2] == "1"]
    assert len(degenerate) == 2  # one summary row per k, no curve
    assert degenerate[0][3] == "" and degenerate[0][4] == ""
    k1 = curve[0]
    assert float(k1[7]) == pytest.approx(5.6418958354775629)  # mean_N column


def test_compare_pass_and_fail(tmp_path):
    ok = tmp_path / "ok"
    code = run_cli(
        "compare", "--k", "1", "--n", "50", "--eta", "0", "--replications", "6",
        "--duration", "60", "--out", str(ok), "--name", "c",
    )
    assert code == 0
    _, header, rows = read_csv(ok / "c_compare.csv")
    assert header == ["k", "n", "eta", "num_gaps", "ks_stat", "ks_threshold", "status"]
    assert rows[0][6] == "pass"
    assert (ok / "c_hist_k1_n50_eta0.csv").exists()
    _, hheader, hrows = read_csv(ok / "c_hist_k1_n50_eta0.csv")
    assert hheader == ["t_bin_lo", "t_bin_hi", "empirical_density", "analytic_density"]
    assert len(hrows) == 60  # default bin count

    # an impossible threshold must flip the exit code
    bad = tmp_path / "bad"
    code = run_cli(
        "compare", "--k", "1", "--n", "50", "--eta", "0", "--replications", "6",
        "--duration", "60", "--out", str(bad), "--name", "c",
        "--ks-threshold", "1e-6",
    )
    assert code == 1
    _, _, rows = read_csv(bad / "c_compare.csv")
    assert rows[0][6] == "fail"


def test_compare_flags_single_node_out_of_model(tmp_path):
    # k > 2(n - 1): no node hears k transmissions before it fires; n = 1
    # is the case where it hears none
    for k, n in ((1, 1), (3, 2), (151, 20)):
        out = tmp_path / f"k{k}_n{n}"
        code = run_cli(
            "compare", "--k", str(k), "--n", str(n), "--eta", "0", "--replications", "3",
            "--duration", "40", "--seed", "7", "--out", str(out), "--name", "c",
        )
        assert code == 0  # out-of-model rows never fail the run
        _, _, rows = read_csv(out / "c_compare.csv")
        assert rows[0][6] == "out-of-model"
        assert float(rows[0][4]) > 0.05


def test_compare_keeps_status_at_suppression_bound(tmp_path):
    # k = 2(n - 1): a node that heard both fires of the other is suppressed
    code = run_cli(
        "compare", "--k", "2", "--n", "2", "--eta", "0", "--replications", "3",
        "--duration", "40", "--seed", "7", "--out", str(tmp_path), "--name", "c",
    )
    _, _, rows = read_csv(tmp_path / "c_compare.csv")
    assert rows[0][6] in ("pass", "fail")
    assert code == (1 if rows[0][6] == "fail" else 0)


def test_multicell_theta_table(tmp_path):
    code = run_cli(
        "multicell", "--k", "1", "--side", "8", "--range", "1,2", "--eta", "0",
        "--replications", "1", "--duration", "15", "--out", str(tmp_path),
        "--name", "m",
    )
    assert code == 0
    _, header, rows = read_csv(tmp_path / "m_theta.csv")
    assert header == ["k", "R", "eta", "S", "mean_sim", "estimate", "theta"]
    assert [r[3] for r in rows] == ["5", "13"]
    for r in rows:
        assert float(r[6]) == pytest.approx(float(r[4]) / float(r[5]), rel=1e-12)


def test_markov_validate_passes(tmp_path):
    code = run_cli("markov-validate", "--out", str(tmp_path), "--name", "mk", "--seed", "2")
    assert code == 0
    _, header, rows = read_csv(tmp_path / "mk_markov.csv")
    assert header == ["check", "observed", "bound", "status"]
    assert len(rows) >= 8
    assert all(r[3] == "pass" for r in rows)
    names = {r[0] for r in rows}
    assert "exp_fixed_point_m2" in names
    assert "sampler_ks_exp_m1" in names


# --------------------------------------------------------------------------
# exit codes and determinism

def test_exit_code_2_on_config_error(tmp_path):
    assert run_cli("simulate", "--n", "10", "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--k", "1", "--n", "10", "--eta", "2",
                   "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--k", "1", "--n", "10", "--duration", "5",
                   "--warmup", "5", "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--k", "1", "--n", "10", "--spec",
                   str(tmp_path / "missing.spec")) == 2
    assert run_cli("simulate", "--k", "1", "--n", "10", "--seed", "-1",
                   "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--k", "1", "--n", "10", "--duration", "inf",
                   "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--k", "1e400", "--n", "10", "--out", str(tmp_path)) == 2
    for threshold in ("nan", "-1", "0", "inf"):
        assert run_cli("compare", "--k", "1", "--n", "10", "--ks-threshold", threshold,
                       "--out", str(tmp_path)) == 2
    bad = tmp_path / "bad.spec"
    bad.write_text("duration = soon\n")
    assert run_cli("simulate", "--k", "1", "--n", "10", "--spec", str(bad)) == 2
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("mode", ["simulate", "compare", "multicell"])
def test_span_without_whole_window_exits_2_without_output(tmp_path, mode):
    out = tmp_path / "out"
    assert run_cli(mode, "--k", "1", "--n", "10", "--range", "1", "--side", "4",
                   "--replications", "2", "--duration", "10.5", "--warmup", "10",
                   "--out", str(out)) == 2
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("mode,k", [("analytic", 151), ("analytic", 148), ("compare", 151),
                                    ("multicell", 150)])
def test_large_k_runs_and_writes_finite_values(tmp_path, mode, k):
    # the analytic table reaches k+3 and the multicell estimate k+1; at
    # k=151, n=20 no node is ever suppressed, a regime the analytic law
    # does not describe, so compare's KS is not held to a bound
    assert run_cli(mode, "--k", str(k), "--n", "20", "--range", "1", "--side", "4",
                   "--replications", "2", "--duration", "12", "--ks-threshold", "1",
                   "--out", str(tmp_path)) == 0
    paths = sorted(tmp_path.glob("*.csv"))
    assert paths
    for path in paths:
        _, header, rows = read_csv(path)
        assert rows, path.name
        for row in rows:
            values = [float(v) for name, v in zip(header, row) if name != "status"]
            assert all(math.isfinite(v) for v in values), (path.name, row)


def test_norm_const_past_float_range_runs(tmp_path):
    # at k=147, n=2000, eta=0.3 the constant is e^730, past the float range;
    # the laws work from its logarithm
    assert run_cli("compare", "--k", "147", "--n", "2000", "--eta", "0.3",
                   "--replications", "1", "--duration", "12", "--out", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "compare_compare.csv", "compare_hist_k147_n2000_eta0.3.csv"]


def test_norm_const_disagreement_exits_3_without_output(tmp_path, capsys, monkeypatch):
    # the quadrature cross-check of the finite sum is made to disagree
    monkeypatch.setattr(an, "quad", lambda *args, **kwargs: 2.0 * quad(*args, **kwargs))
    an._norm_const_cached.cache_clear()
    out = tmp_path / "out"
    assert run_cli("compare", "--k", "3", "--n", "23", "--eta", "0.35", "--replications", "1",
                   "--duration", "12", "--out", str(out)) == 3
    assert "k=3, n=23, eta=0.35" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_multicell_without_transmissions_exits_2(tmp_path):
    # a lone node can skip a whole window: no fire in [10, 11) for seed 12
    assert run_cli("multicell", "--k", "1", "--side", "1", "--range", "1",
                   "--replications", "1", "--duration", "11", "--warmup", "10",
                   "--seed", "12", "--out", str(tmp_path)) == 2


def test_compare_without_gaps_exits_2_without_output(tmp_path):
    # n=20 yields gaps and is checked first; the lone node then fires at
    # most once in [10, 11] for seed 1, so n=1 has no gap
    out = tmp_path / "out"
    assert run_cli("compare", "--k", "1", "--n", "20,1", "--eta", "0", "--replications", "1",
                   "--duration", "11", "--warmup", "10", "--seed", "1", "--out", str(out)) == 2
    assert not out.exists() or not any(out.iterdir())


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    def broken(spec):
        raise ValueError("internal bug")

    monkeypatch.setitem(cli._COMMANDS, "simulate", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run_cli("simulate", "--k", "1", "--n", "10", "--out", str(tmp_path))


def test_compare_eta_one_exits_2_without_output(tmp_path):
    out = tmp_path / "out"
    assert run_cli("compare", "--k", "1", "--n", "20", "--eta", "1", "--replications", "2",
                   "--duration", "20", "--out", str(out)) == 2
    assert not out.exists() or not any(out.iterdir())


def test_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ("simulate", "--k", "1,2", "--n", "12", "--eta", "0.3",
            "--replications", "2", "--duration", "14", "--seed", "5", "--name", "d")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    for fname in ("d_counts.csv", "d_gaps.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


# sha256 of each CSV below its "# spec:" line, as written at commit 520f4d0
# (before the gaps CSV was streamed): C11's simulate and multicell commands.
# det_theta.csv was re-pinned when the normalization constant became a
# logarithm: the R=1 row's estimate and theta each moved by one ulp.
# simulate_blocks, pinned at commit f5d3d84 (before the gaps CSV was written
# a block at a time), has at least three blocks of gaps per combination.
PINNED_CSV = {
    "simulate": (
        ["simulate", "--k", "1,2", "--n", "10", "--eta", "0,0.5", "--replications", "2",
         "--duration", "14"],
        {
            "det_counts.csv": "e06f014ac23df3dcf222a52e0260f3e1093faf0aa76599885b2969202d963e47",
            "det_gaps.csv": "8113a45188090429c8cd778157c0f26e9a44aaa8139d6fafc97f61ef180319b9",
        },
    ),
    "simulate_blocks": (
        ["simulate", "--k", "1,3", "--n", "40", "--eta", "0,0.5", "--replications", "6",
         "--duration", "400"],
        {
            "det_counts.csv": "f0a2d9ab80c96faa0aa9bad94ee6900b29e2ca312f5b21c59e1e411beffa9bf0",
            "det_gaps.csv": "397845a5893621c11369e11a7994072eb083816e87bd5b3f1b5641e408356898",
        },
    ),
    "multicell": (
        ["multicell", "--k", "1", "--side", "8", "--range", "1,1.5", "--eta", "0",
         "--replications", "1", "--duration", "14"],
        {"det_theta.csv": "3d36be12ec739069b7815c79673bcfdf8cc1cce78da01378cd015b747ef0746e"},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CSV))
def test_csv_bytes_match_pinned_digests(tmp_path, case):
    args, digests = PINNED_CSV[case]
    assert run_cli(*args, "--seed", "7", "--name", "det", "--out", str(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        data = (tmp_path / name).read_bytes()
        assert data.startswith(b"# spec: ")
        body = data[data.index(b"\n") + 1:]
        assert hashlib.sha256(body).hexdigest() == digest, name
    if case == "simulate_blocks":
        with open(tmp_path / "det_gaps.csv") as f:
            per_combination = Counter(line.rsplit(",", 1)[0] for line in list(f)[2:])
        assert len(per_combination) == 4
        assert min(per_combination.values()) >= 3 * csvio._FLOAT_BLOCK


# Gaps at the edges of the float range and of "%.17g": zero, the least
# subnormal, the least normal, whole values (written without a point), huge.
_EDGE_GAPS = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, 3.0, 1e300]
_BLOCK_SIZES = [0, 1, csvio._FLOAT_BLOCK - 1, csvio._FLOAT_BLOCK, csvio._FLOAT_BLOCK + 1,
                3 * csvio._FLOAT_BLOCK + 7]


@hs.composite
def float_groups(draw):
    """(cells, gaps) groups: int, float and text cells (text that csv must
    quote, or with a "%"), gaps tiled from a drawn pool to a length at or
    around a block edge."""
    cell = hs.one_of(hs.integers(0, 10**6), hs.floats(0.0, 1.0), hs.just(0.1),
                     hs.text(alphabet=',"%a\n', max_size=4))
    gap = hs.one_of(hs.sampled_from(_EDGE_GAPS),
                    hs.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    groups = []
    for _ in range(draw(hs.integers(1, 3))):
        cells = tuple(draw(hs.lists(cell, max_size=3)))
        pool = np.array(draw(hs.lists(gap, min_size=1, max_size=20)))
        groups.append((cells, np.resize(pool, draw(hs.sampled_from(_BLOCK_SIZES)))))
    return groups


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(float_groups())
@example([((1, 40, 0.1), np.resize(_EDGE_GAPS, size)) for size in _BLOCK_SIZES])
def test_float_groups_bytes_equal_csv_writer(groups):
    header = ["k", "n", "eta", "gap"]
    rows = [(*cells, g) for cells, values in groups for g in values.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        blocks, writer = Path(tmp) / "blocks.csv", Path(tmp) / "writer.csv"
        csvio.write_float_groups(blocks, header, groups, "spec: x")
        csvio.write_csv(writer, header, rows, "spec: x")
        assert blocks.read_bytes() == writer.read_bytes()


def test_simulate_gap_memory_per_gap(tmp_path):
    # many small runs: the pooled gaps, not one run's schedule, set the peak
    def simulate(duration, out):
        return run_cli("simulate", "--k", "4", "--n", "4", "--eta", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7",
                       "--replications", "2", "--duration", duration, "--name", "m",
                       "--out", str(out))

    assert simulate("20", tmp_path / "warm") == 0  # import numpy's lazy parts untraced
    tracemalloc.start()
    try:
        assert simulate("1200", tmp_path) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with open(tmp_path / "m_gaps.csv") as f:
        gaps = sum(1 for _ in f) - 2
    assert gaps > 50_000
    # a float64 gap is 8 B; a (k, n, eta, gap) tuple per gap took about 104 B
    assert peak / gaps < 40


def test_spec_file_end_to_end(tmp_path):
    f = tmp_path / "exp.spec"
    f.write_text(
        "name = filed\nk = 2\nn = 8\neta = 0\nreplications = 2\n"
        f"duration = 13\nout = {tmp_path / 'o'}\n"
    )
    # contradictory flags everywhere; the file wins
    code = run_cli("simulate", "--k", "9", "--n", "99", "--name", "flagged",
                   "--spec", str(f), "--out", str(tmp_path / "ignored"))
    assert code == 0
    assert (tmp_path / "o" / "filed_counts.csv").exists()
    _, _, rows = read_csv(tmp_path / "o" / "filed_counts.csv")
    assert rows[0][0] == "2" and rows[0][1] == "8"


@pytest.mark.parametrize("mode", cli.MODES)
def test_module_help_lists_every_flag(mode):
    src = Path(cli.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-m", "tricklesim.cli", mode, "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    flags = ["--" + key.replace("_", "-") for key, *_ in cli._SETTINGS]
    for flag in flags + ["--spec", "--profile"]:
        assert f"{flag} " in done.stdout, flag


# In a fresh interpreter: import every tricklesim module and run `simulate`,
# note which scipy submodules got loaded, then take the first-use paths.
_FRESH_PROCESS = """
import importlib, json, math, pkgutil, sys, warnings
import tricklesim
for mod in pkgutil.iter_modules(tricklesim.__path__):
    importlib.import_module("tricklesim." + mod.name)
from tricklesim import analytics as an, cli, quadrature
code = cli.main(["simulate", "--k", "1,2", "--n", "10", "--eta", "0.5", "--replications", "2",
                 "--duration", "15", "--out", sys.argv[1], "--name", "fresh"])
loaded = [m for m in sys.argv[2:] if m in sys.modules]
try:  # scipy.integrate loads inside this call
    quadrature.quad(lambda t: 1.0 / (1.0 + t), 0.0, math.inf)
    error = None
except quadrature.QuadratureError as exc:
    error = type(exc).__name__
p = an.AnalyticParams(k=2, n=20, eta=0.5)
print(json.dumps({"code": code, "loaded": loaded, "error": error,
                  "cdf": repr(an.cdf_T(0.3, p)), "pdf": repr(an.pdf_T(0.3, p)),
                  "filters": [repr(f) for f in warnings.filters]}))
"""


def test_simulate_loads_no_scipy_and_first_use_works(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    lazy = ["scipy.special", "scipy.integrate", "scipy.interpolate", "scipy.stats"]
    # the warning filters scipy adds on import, from a plain import run alongside
    with subprocess.Popen(
        [sys.executable, "-c", "import json, warnings, scipy.integrate; "
         "print(json.dumps([repr(f) for f in warnings.filters]))"],
        stdout=subprocess.PIPE, text=True, env=env,
    ) as eager:
        done = subprocess.run([sys.executable, "-c", _FRESH_PROCESS, str(tmp_path), *lazy],
                              capture_output=True, text=True, env=env, timeout=60)
        scipy_filters = set(json.loads(eager.communicate(timeout=60)[0]))
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])  # after simulate's summary lines
    assert got["code"] == 0 and (tmp_path / "fresh_gaps.csv").exists()
    assert got["loaded"] == []
    assert got["error"] == "QuadratureError"
    p = an.AnalyticParams(k=2, n=20, eta=0.5)
    assert got["cdf"] == repr(an.cdf_T(0.3, p))
    assert got["pdf"] == repr(an.pdf_T(0.3, p))
    # loading scipy inside `quad` keeps those filters
    assert scipy_filters <= set(got["filters"])


# --------------------------------------------------------------------------
# provenance

def test_version_string_marks_modified_checkouts(monkeypatch):
    calls = []

    def fake_run(cmd, **kw):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout="bdd4d29-dirty\n", stderr="")

    monkeypatch.setattr(csvio.subprocess, "run", fake_run)
    csvio.version_string.cache_clear()
    try:
        assert csvio.version_string() == f"tricklesim-{csvio.__version__}+gbdd4d29-dirty"
    finally:
        csvio.version_string.cache_clear()
    assert "--dirty" in calls[0]


@pytest.mark.parametrize(
    "sample",
    [
        np.random.default_rng(1).exponential(size=500),
        np.random.default_rng(2).exponential(size=7),
        np.array([0.5, 0.5, 0.5, 1.0, 1.0, 2.0, 0.25]),  # ties
        np.round(np.random.default_rng(3).exponential(size=300), 1),  # many ties
        np.array([3.0]),
    ],
)
def test_ks_statistic_equals_scipy(sample):
    def cdf(y):
        return 1.0 - np.exp(-np.asarray(y))

    want = stats.kstest(sample, cdf).statistic
    assert cli._ks_statistic(sample, cdf) == want
    gaps = sample / 10
    law = cli._analytic_cdf_callable(cli.an.AnalyticParams(k=2, n=20, eta=0.5), gaps.max())
    assert cli._ks_statistic(gaps, law) == stats.kstest(gaps, law).statistic
