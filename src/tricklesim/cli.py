"""Command-line driver: experiment sweeps, analytic tables, comparisons.

Subcommands
-----------
simulate
    Run seeded single-cell sweeps over (k, n, eta) grids; write pooled
    per-interval count summaries and raw inter-transmission gaps.
analytic
    Evaluate the closed-form/quadrature laws on the same grids: mean and
    moments of the gap, mean transmissions per interval (exact ratio and
    large-n form), and density/CDF curves on a t-grid.
compare
    Run both sides, bin the empirical gaps against the analytic density,
    and report a Kolmogorov-Smirnov statistic per combination with a
    pass/fail verdict against a configurable threshold.
multicell
    Grid-network sweeps over (k, R, eta): simulated transmissions per
    interval, the cell-decomposition estimate, and their ratio theta.
markov-validate
    Self-check battery for the residual-chain library (closed-form fixed
    points, collapse identities, sampler agreement, transform check).

Configuration is flags-first; ``--spec FILE`` points at a flat key/value
file (one ``key = value`` per line, ``#`` comments, lists comma-separated)
whose entries override flags.  Each setting is one row of `_SETTINGS`: its
flag, its spec-file key and the text parser that both go through.
Profiles bundle replication counts: ``--profile quick`` is the CI size
(50 x 100 units), ``--profile paper`` the full size (1000 x 100 units).

Exit codes: 0 success; 1 a validation threshold was exceeded; 2
configuration error (bad flags or spec file, rejected before any work is
done; or too short a run to measure anything) or an i/o error; 3
numerical failure.  Any other exception is a bug and propagates with its
traceback.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import analytics as an
from . import residual as rm
from .core import TrickleConfig
from .csvio import fmt_value, version_string, write_csv, write_float_groups
from .engine import SimRunConfig, replicate
from .topology import Grid, SingleCell, cell_size
from .quadrature import QuadratureError, quad

__all__ = ["ExperimentSpec", "SpecError", "load_spec_file", "build_spec", "main"]

PROFILES = {"quick": (50, 100.0), "paper": (1000, 100.0)}
MODES = ("simulate", "analytic", "compare", "multicell", "markov-validate")


class SpecError(ValueError):
    """Bad experiment configuration (flags or spec file)."""


@dataclass
class ExperimentSpec:
    """A fully resolved experiment: mode, parameter grid, sizes, output."""

    name: str
    mode: str
    k: list[int] = field(default_factory=list)
    n: list[int] = field(default_factory=list)
    side: int = 50
    radio_range: list[float] = field(default_factory=list)
    eta: list[float] = field(default_factory=lambda: [0.0])
    replications: int = 1000
    duration: float = 100.0
    warmup: float = 10.0
    seed: int = 1
    output_dir: Path = Path(".")
    histogram_bins: int = 60
    ks_threshold: float = 0.05

    def validate(self) -> None:
        if self.mode not in MODES:
            raise SpecError(f"unknown mode {self.mode!r}")
        if self.replications < 1:
            raise SpecError(f"replications must be >= 1, got {self.replications}")
        if self.histogram_bins < 1:
            raise SpecError(f"bins must be >= 1, got {self.histogram_bins}")
        if not self.duration > self.warmup >= 0 or math.isinf(self.duration):
            raise SpecError(
                f"need finite duration > warmup >= 0, got duration={self.duration} "
                f"warmup={self.warmup}"
            )
        # Runs use unit intervals, so windows are [w, w+1) for integer w.
        if math.floor(self.duration) - math.ceil(self.warmup) < 1:
            raise SpecError(
                f"no whole unit window between warmup={self.warmup:g} and "
                f"duration={self.duration:g}"
            )
        if self.seed < 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.ks_threshold <= 1.0:
            raise SpecError(f"ks threshold must be in (0, 1], got {self.ks_threshold}")
        if self.mode in ("simulate", "analytic", "compare"):
            if not self.k or not self.n or not self.eta:
                raise SpecError(f"mode {self.mode} needs non-empty --k, --n, --eta grids")
        if self.mode == "multicell":
            if not self.k or not self.radio_range or not self.eta:
                raise SpecError("mode multicell needs non-empty --k, --range, --eta grids")
            if self.side < 1:
                raise SpecError(f"side must be >= 1, got {self.side}")
        for e in self.eta:
            if not 0.0 <= e <= 1.0:
                raise SpecError(f"eta must be in [0, 1], got {e}")
            if self.mode == "compare" and e == 1.0:
                raise SpecError("compare needs eta < 1: at eta=1 the gap law has no density")
        for k in self.k:
            if k < 1:
                raise SpecError(f"k must be >= 1, got {k}")
        for n in self.n:
            if n < 1:
                raise SpecError(f"n must be >= 1, got {n}")
        for r in self.radio_range:
            if not r > 0:
                raise SpecError(f"range must be positive, got {r}")

    def comment(self) -> str:
        """Deterministic one-line record of every setting but the output
        directory, for CSV headers."""
        parts = [f"mode={self.mode}"] + [
            f"{key}={_text(getattr(self, attr))}" for key, attr, *_ in _SETTINGS if key != "out"
        ]
        return "spec: " + " ".join(parts) + f" | {version_string()}"


def _int(text: str) -> int:
    """An integer, written as one or as an integral float such as ``1e3``;
    a value that is not text must be an integer already."""
    if not isinstance(text, str):
        try:
            return operator.index(text)
        except TypeError as exc:
            raise ValueError(f"not an integer: {text!r}") from exc
    try:
        return int(text)
    except ValueError:
        f = float(text)
        if not f.is_integer():
            raise
        return int(f)


def _list(conv):
    """Parser of a comma-separated list of `conv` values."""
    return lambda text: [conv(piece) for piece in text.split(",") if piece.strip()]


def _text(value) -> str:
    """A setting's value as `comment` writes it."""
    if isinstance(value, list):
        return ",".join(_text(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


# Every setting, in `comment` order: (flag name and spec-file key, its
# ExperimentSpec field, the parser of its text, help).  The defaults are the
# fields' own; flags and spec-file entries go through the same parser.
_SETTINGS = (
    ("name", "name", str, "output file prefix (default: the mode)"),
    ("k", "k", _list(_int), "comma-separated redundancy constants"),
    ("n", "n", _list(_int), "comma-separated single-cell node counts"),
    ("side", "side", _int, "grid side length (multicell)"),
    ("range", "radio_range", _list(float), "comma-separated radio ranges (multicell)"),
    ("eta", "eta", _list(float), "comma-separated listen-only fractions"),
    ("replications", "replications", _int, "replications per combination"),
    ("duration", "duration", float, "virtual time units per run"),
    ("warmup", "warmup", float, "initial span excluded from statistics"),
    ("seed", "seed", _int, "master seed"),
    ("bins", "histogram_bins", _int, "histogram/curve grid bins"),
    ("ks_threshold", "ks_threshold", float, "KS pass/fail threshold for compare"),
    ("out", "output_dir", Path, "output directory"),
)


def load_spec_file(path) -> dict[str, str]:
    """Parse the flat key/value format: ``key = value`` per line, ``#``
    comments and blank lines ignored."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def build_spec(mode: str, args: argparse.Namespace) -> ExperimentSpec:
    """Resolve precedence: built-in defaults < profile < flags < spec file."""
    entries = load_spec_file(args.spec) if args.spec else {}
    unknown = set(entries) - {key for key, *_ in _SETTINGS} - {"profile"}
    if unknown:
        raise SpecError(f"unknown spec file keys: {sorted(unknown)}")
    profile = entries.get("profile", args.profile)
    if profile is not None and profile not in PROFILES:
        raise SpecError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    fields = {"name": mode}
    if profile:
        fields["replications"], fields["duration"] = PROFILES[profile]
    for key, attr, parse, _ in _SETTINGS:
        text = entries.get(key, getattr(args, key))
        if text is not None:
            try:
                fields[attr] = parse(text)
            except ValueError as exc:
                raise SpecError(f"bad {key} value {text!r}") from exc
    spec = ExperimentSpec(mode=mode, **fields)
    spec.validate()
    return spec


# --------------------------------------------------------------------------
# shared pieces

def _run_config(spec: ExperimentSpec, topology, k: int, eta: float) -> SimRunConfig:
    """A run of `topology` at (k, eta) with unit intervals over the spec's span."""
    return SimRunConfig(
        trickle=TrickleConfig(k=k, tau_l=1.0, tau_h=1.0, eta=eta),
        topology=topology,
        duration=spec.duration,
        warmup=spec.warmup,
        seed=spec.seed,
    )


def _analytic_cdf_callable(p: an.AnalyticParams, tmax: float):
    """Gap CDF over arrays; for k >= 2 `cdf_T` on a 1,025-point grid is
    monotonically interpolated (error far below statistical resolution)."""
    if p.k == 1:
        return lambda t: an.cdf_T1(t, p)
    grid = np.linspace(0.0, max(tmax, 1e-9), 1025)
    vals = np.maximum.accumulate(an.cdf_T(grid, p))
    interp = scipy.interpolate.PchipInterpolator(grid, vals, extrapolate=False)

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = interp(np.clip(t, grid[0], grid[-1]))
        return np.where(t >= grid[-1], 1.0, np.where(t <= 0.0, 0.0, out))

    return cdf


def _ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance of `sample` from the vectorized `cdf`,
    by the expressions of ``scipy.stats.kstest`` (so its value to the bit)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    f = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - f).max()
    d_minus = (f - np.arange(0.0, n) / n).max()
    return float(max(d_plus, d_minus))


# --------------------------------------------------------------------------
# subcommands

def cmd_simulate(spec: ExperimentSpec) -> int:
    count_rows, gaps = [], []
    for k in spec.k:
        for n in spec.n:
            for eta in spec.eta:
                cell = replicate(_run_config(spec, SingleCell(n), k, eta), spec.replications)
                count_rows.append(
                    (k, n, eta, cell.mean, cell.std, cell.ci_halfwidth, spec.replications)
                )
                gaps.append(((k, n, eta), cell.gaps))
                print(
                    f"simulate k={k} n={n} eta={eta:g}: "
                    f"mean {cell.mean:.5g} +- {cell.ci_halfwidth:.3g}"
                )
    out = spec.output_dir
    write_csv(
        out / f"{spec.name}_counts.csv",
        ["k", "n", "eta", "mean_N_sim", "std", "ci_halfwidth", "replications"],
        count_rows,
        spec.comment(),
    )
    write_float_groups(
        out / f"{spec.name}_gaps.csv", ["k", "n", "eta", "gap"], gaps, spec.comment()
    )
    return 0


def cmd_analytic(spec: ExperimentSpec) -> int:
    header = [
        "k", "n", "eta", "t", "pdf", "cdf",
        "mean_T", "mean_N", "mean_N_asymptotic", "moment_2", "moment_3",
    ]
    rows = []
    for k in spec.k:
        for n in spec.n:
            for eta in spec.eta:
                p = an.AnalyticParams(k=k, n=n, eta=eta)
                m1 = an.moment_T(1, p)
                m2 = an.moment_T(2, p)
                m3 = an.moment_T(3, p)
                summary = (m1, an.mean_N(p), an.mean_N_asymptotic(p), m2, m3)
                if eta == 1.0:
                    rows.append((k, n, eta, "", "", "") + summary)
                    continue
                tmax = m1 + 6.0 * math.sqrt(max(m2 - m1 * m1, 1e-30))
                ts = np.linspace(0.0, tmax, spec.histogram_bins + 1)
                curves = zip(ts.tolist(), an.pdf_T(ts, p).tolist(), an.cdf_T(ts, p).tolist())
                rows.extend((k, n, eta, *curve) + summary for curve in curves)
                print(f"analytic k={k} n={n} eta={eta:g}: mean_N {an.mean_N(p):.6g}")
    write_csv(spec.output_dir / f"{spec.name}_analytic.csv", header, rows, spec.comment())
    return 0


def cmd_compare(spec: ExperimentSpec) -> int:
    # Every combination is computed before any file is written, so a
    # combination that fails leaves no partial output behind.
    hists = []
    summary_rows = []
    failures = 0
    for k in spec.k:
        for n in spec.n:
            for eta in spec.eta:
                gaps = replicate(_run_config(spec, SingleCell(n), k, eta), spec.replications).gaps
                p = an.AnalyticParams(k=k, n=n, eta=eta)
                if gaps.size == 0:
                    raise SpecError(
                        f"no gaps collected for k={k} n={n} eta={eta:g}; "
                        "increase duration or replications"
                    )
                tmax = float(gaps.max())
                ks = _ks_statistic(gaps, _analytic_cdf_callable(p, tmax))
                edges = np.linspace(0.0, tmax, spec.histogram_bins + 1)
                emp, _ = np.histogram(gaps, bins=edges, density=True)
                centers = 0.5 * (edges[:-1] + edges[1:])
                ana = an.pdf_T(centers, p).tolist()
                hist_rows = zip(edges[:-1].tolist(), edges[1:].tolist(), emp.tolist(), ana)
                hists.append((f"k{k}_n{n}_eta{eta:g}", hist_rows))
                if k > 2 * (n - 1):
                    # no node is ever suppressed: it hears at most two fires
                    # of each other node between its interval start and fire
                    status = "out-of-model"
                elif ks <= spec.ks_threshold:
                    status = "pass"
                else:
                    status = "fail"
                    failures += 1
                summary_rows.append((k, n, eta, int(gaps.size), ks, spec.ks_threshold, status))
                print(f"compare k={k} n={n} eta={eta:g}: KS {ks:.4f} [{status}]")
    for tag, hist_rows in hists:
        write_csv(
            spec.output_dir / f"{spec.name}_hist_{tag}.csv",
            ["t_bin_lo", "t_bin_hi", "empirical_density", "analytic_density"],
            hist_rows,
            spec.comment(),
        )
    write_csv(
        spec.output_dir / f"{spec.name}_compare.csv",
        ["k", "n", "eta", "num_gaps", "ks_stat", "ks_threshold", "status"],
        summary_rows,
        spec.comment(),
    )
    return 1 if failures else 0


def cmd_multicell(spec: ExperimentSpec) -> int:
    rows = []
    for k in spec.k:
        for r in spec.radio_range:
            for eta in spec.eta:
                grid = Grid(side=spec.side, radio_range=r)
                s_cell = cell_size(grid)
                mean_sim = replicate(_run_config(spec, grid, k, eta), spec.replications).mean
                if mean_sim == 0:
                    raise SpecError(
                        f"no transmissions measured for k={k} R={r:g} eta={eta:g}; "
                        "increase duration or replications"
                    )
                g = an.GridParams(side=spec.side, radio_range=r, eta=eta, k=k)
                estimate = an.multicell_estimate(g, s_cell)
                theta = an.multicell_ratio(mean_sim, g, s_cell)
                rows.append((k, r, eta, s_cell, mean_sim, estimate, theta))
                print(
                    f"multicell k={k} R={r:g} eta={eta:g}: "
                    f"S={s_cell} sim {mean_sim:.4g} est {estimate:.4g} theta {theta:.4f}"
                )
    write_csv(
        spec.output_dir / f"{spec.name}_theta.csv",
        ["k", "R", "eta", "S", "mean_sim", "estimate", "theta"],
        rows,
        spec.comment(),
    )
    return 0


def _markov_checks(seed: int):
    """The validation battery: (check name, observed, bound) triples."""
    checks = []
    ygrid = np.linspace(0.0, 4.0, 17)

    for m in (1, 2, 3):
        spec_e = rm.ChainSpec(rm.exponential(1.0), m)
        err = max(
            abs(rm.stationary_cdf(spec_e, float(y)) - (-math.expm1(-y))) for y in ygrid
        )
        checks.append((f"exp_fixed_point_m{m}", err, 1e-8))

    spec_u = rm.ChainSpec(rm.uniform(0.0, 1.0), 1)
    err = max(
        abs(rm.stationary_cdf(spec_u, float(y)) - (1.0 - (1.0 - min(y, 1.0)) ** 2))
        for y in np.linspace(0.0, 1.0, 11)
    )
    checks.append(("uniform_m1_equilibrium", err, 1e-8))

    g = math.exp
    lhs, rhs = rm.simplex_integral_check(2, lambda x: g(-x))
    checks.append(("orthant_collapse_m2", abs(lhs - rhs), 1e-6))
    lhs, rhs = rm.double_integral_check(1, 1, lambda x: g(-x))
    checks.append(("double_collapse_m1_j1", abs(lhs - rhs), 1e-6))

    spec_e2 = rm.ChainSpec(rm.exponential(1.0), 2)
    mom = rm.stationary_moment(spec_e2, 2)
    tail = quad(lambda y: 2.0 * y * rm.stationary_sf(spec_e2, y), 0.0, math.inf)
    checks.append(("moment_vs_tail_quadrature", abs(mom - tail) / abs(mom), 1e-6))

    lt = rm.laplace_transform(spec_e2, [1.0, 2.0], verify=True, mc_samples=100_000, seed=seed)
    checks.append(("laplace_verify_exp_m2", abs(lt - 1.0 / 6.0), 1e-6))

    sample = rm.sample_chain(rm.ChainSpec(rm.exponential(1.0), 1), 101_000, 1000, seed)
    ks = _ks_statistic(sample, lambda y: 1.0 - np.exp(-y))
    checks.append(("sampler_ks_exp_m1", ks, 0.02))
    return checks


def cmd_markov_validate(spec: ExperimentSpec) -> int:
    rows = []
    failures = 0
    for name, observed, bound in _markov_checks(spec.seed):
        status = "pass" if observed <= bound else "fail"
        failures += status == "fail"
        rows.append((name, observed, bound, status))
        print(f"markov-validate {name}: {fmt_value(observed)} <= {bound:g} [{status}]")
    write_csv(
        spec.output_dir / f"{spec.name}_markov.csv",
        ["check", "observed", "bound", "status"],
        rows,
        spec.comment(),
    )
    return 1 if failures else 0


# --------------------------------------------------------------------------
# entry point

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricklesim",
        description="Broadcast-suppression timing: simulation sweeps and analytic tables.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        sp = sub.add_parser(mode, help=f"{mode} mode")
        for key, _, _, text in _SETTINGS:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=text)
        sp.add_argument("--spec", help="key=value spec file; overrides flags")
        sp.add_argument("--profile", choices=sorted(PROFILES), help="size preset")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "analytic": cmd_analytic,
    "compare": cmd_compare,
    "multicell": cmd_multicell,
    "markov-validate": cmd_markov_validate,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        spec = build_spec(args.mode, args)
        return _COMMANDS[spec.mode](spec)
    except SpecError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
