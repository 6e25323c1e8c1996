"""Experiment runners and result-table plumbing for the CLI.

Each runner is a pure function of its ExperimentConfig: sample draws come
from seeds derived with SeedSequence, grid cells are evaluated in a
deterministic order, and rows are sorted on the key columns before emission,
so a rerun with the same config is byte-identical.

Default grids:

* convergence: d in {2, 10, 25, 50, 100}, n in {16 .. 512}, 10 replicates,
  gaussian kernel, unit sample scale.
* mean-shift: n = 64, d = 10, sample scale 0.25, shifts in [-3, 3],
  both kernel families, 5 replicates.
* variance-scale: n = 24, d = 25, sample scale 0.25, blue-set scale in
  {0.25, 0.5, 1, 2, 4}, both kernel families, 5 replicates.
* tripartite: n = 64 vs m = 96 two-dimensional sets, gaussian kernel,
  orders {1.5, 2}, shift and scale sweeps, 5 replicates.

The sample scales were tuned so the Gram spectra stay well conditioned at
the default sizes; at low dimension with unit-scale draws the bipartite
estimators are dominated by eigenvector noise between independent sets.

The convergence ``nonmirrored``/``mirrored`` rows compare the Grams of two
unpaired sets index by index: row i of each Gram belongs to a different,
independent sample. Their values therefore change when one set is
reordered, and they estimate no distributional quantity. The tripartite
measure is the one for unpaired sets.
"""

import csv
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError
from .estimators import _Pair, tripartite_cross_entropy
from .kernels import (
    EXP_INNER_PRODUCT,
    FAMILIES,
    GAUSSIAN,
    KernelSpec,
    SampleSet,
    gram_cross,
    gram_univariate,
    normalize_trace,
)

EXPERIMENTS = ("convergence", "mean-shift", "variance-scale", "tripartite", "properties")

RESULT_COLUMNS = (
    "experiment",
    "kernel",
    "alpha",
    "parameter",
    "measure",
    "value",
    "n",
    "m",
    "d",
    "seed",
)

MEASURE_NONMIRRORED = "nonmirrored"
MEASURE_MIRRORED = "mirrored"
MEASURE_TRIPARTITE_SHIFT = "tripartite-shift"
MEASURE_TRIPARTITE_SCALE = "tripartite-scale"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a runner needs; seed included, so runs are reproducible.

    ``kernel`` of None means the runner's default family selection (gaussian
    for convergence and tripartite, both families for the two sweep
    experiments). ``replicates`` is the number of independent sample draws;
    the output ``seed`` column carries the replicate index.
    """

    experiment: str
    kernel: KernelSpec | None = None
    alpha_grid: tuple = (0.5, 1.5, 2.0, 4.0)
    n_grid: tuple = (16, 32, 64, 128, 256, 512)
    d_grid: tuple = (2, 10, 25, 50, 100)
    shift_grid: tuple = (0.0,)
    scale_grid: tuple = (1.0,)
    seed: int = 0
    replicates: int = 1
    sample_scale: float = 1.0
    m: int | None = None
    output_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ArgumentError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        for name in ("alpha_grid", "n_grid", "d_grid", "shift_grid", "scale_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ArgumentError(f"{name} must be non-empty")
        if self.replicates < 1:
            raise ArgumentError("replicates must be >= 1")
        if not (self.sample_scale > 0):
            raise ArgumentError("sample_scale must be positive")
        if self.out_format not in ("csv", "json"):
            raise ArgumentError(f"format must be csv or json, got {self.out_format!r}")


_MEAN_SHIFT_GRID = tuple(float(x) for x in np.linspace(-3.0, 3.0, 9))
_TRI_SHIFT_GRID = tuple(float(x) for x in np.linspace(-2.0, 2.0, 9))


def default_config(experiment, **overrides):
    """The pinned per-experiment defaults; keyword overrides win."""
    base = {
        "convergence": dict(
            alpha_grid=(0.5, 1.5, 2.0, 4.0),
            n_grid=(16, 32, 64, 128, 256, 512),
            d_grid=(2, 10, 25, 50, 100),
            replicates=10,
            sample_scale=1.0,
        ),
        "mean-shift": dict(
            alpha_grid=(0.5, 1.5, 2.0, 4.0),
            n_grid=(64,),
            d_grid=(10,),
            shift_grid=_MEAN_SHIFT_GRID,
            replicates=5,
            sample_scale=0.25,
        ),
        "variance-scale": dict(
            alpha_grid=(0.5, 1.5, 2.0, 4.0),
            n_grid=(24,),
            d_grid=(25,),
            scale_grid=(0.25, 0.5, 1.0, 2.0, 4.0),
            replicates=5,
            sample_scale=0.25,
        ),
        "tripartite": dict(
            alpha_grid=(1.5, 2.0),
            n_grid=(64,),
            d_grid=(2,),
            shift_grid=_TRI_SHIFT_GRID,
            scale_grid=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
            replicates=5,
            sample_scale=1.0,
            m=96,
        ),
        "properties": dict(),
    }
    if experiment not in base:
        raise ArgumentError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}"
        )
    kwargs = dict(base[experiment])
    kwargs.update(overrides)
    return ExperimentConfig(experiment=experiment, **kwargs)


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    kernel: str
    alpha: float
    parameter: float
    measure: str
    value: float
    n: int
    m: int
    d: int
    seed: int

    def key(self):
        return (
            self.experiment,
            self.kernel,
            self.alpha,
            self.parameter,
            self.measure,
            self.n,
            self.m,
            self.d,
            self.seed,
        )


def load_csv(path):
    """Read a rectangular numeric CSV (optional single header row) as samples."""
    with open(path, newline="") as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise ParseError(path, 1, "empty file")
    first = [c.strip() for c in raw[0]]
    if first in ([], [""]):
        raise ParseError(path, 1, "blank first line")
    is_header = False
    try:
        for c in first:
            float(c)
    except ValueError:
        is_header = True
    width = len(first)
    body = raw[1:] if is_header else raw
    first_line = 2 if is_header else 1
    if not body:
        raise ParseError(path, first_line, "no data rows")
    rows = []
    for offset, cells in enumerate(body):
        line_no = first_line + offset
        cells = [c.strip() for c in cells]
        if len(cells) != width:
            raise ParseError(
                path, line_no, f"expected {width} columns, found {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return SampleSet(np.asarray(rows, dtype=float))


def sample_gaussian(seed, n, d, mean=0.0, scale=1.0):
    """n seeded draws from an isotropic Gaussian with the given mean and scale."""
    if not (scale > 0):
        raise ArgumentError(f"scale must be positive, got {scale!r}")
    mean = np.broadcast_to(np.asarray(mean, dtype=float), (d,))
    rng = np.random.default_rng(seed)
    return SampleSet(mean + scale * rng.standard_normal((n, d)))


def _child_seed(base, *path):
    ss = np.random.SeedSequence([int(base)] + [int(p) for p in path])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _families(config, default):
    if config.kernel is not None:
        return (config.kernel.family,)
    return default


def _bandwidth(config):
    return config.kernel.bandwidth if config.kernel is not None else 1.0


def _bipartite_rows(experiment, family, K1, K2, parameter, d, r, alpha_grid):
    """Nonmirrored and mirrored rows of one Gram pair over every order, all
    read off one decomposition of the pair."""
    n = K1.n
    pair = _Pair(K1, K2)
    return [
        ResultRow(
            experiment, family, float(a), float(parameter),
            measure, value, n, n, d, r,
        )
        for a in alpha_grid
        for measure, value in (
            (MEASURE_NONMIRRORED, pair.nonmirrored(a).value),
            (MEASURE_MIRRORED, pair.mirrored(a, a).value),
        )
    ]


def run_convergence(config):
    """Same-distribution pairs over the (d, n) grid, gaussian kernel.

    X and Y are independent draws, and the bipartite rows compare their
    trace-normalized Grams index by index. Reordering the rows of Y alone
    changes both values, so they depend on sample order.
    """
    if config.experiment != "convergence":
        raise ArgumentError("config.experiment must be 'convergence'")
    spec = config.kernel or KernelSpec(GAUSSIAN, _bandwidth(config))
    rows = []
    for di, d in enumerate(config.d_grid):
        for ni, n in enumerate(config.n_grid):
            for r in range(config.replicates):
                X = sample_gaussian(
                    _child_seed(config.seed, r, di, ni, 0), n, d,
                    scale=config.sample_scale,
                )
                Y = sample_gaussian(
                    _child_seed(config.seed, r, di, ni, 1), n, d,
                    scale=config.sample_scale,
                )
                rows += _bipartite_rows(
                    "convergence", spec.family,
                    normalize_trace(gram_univariate(spec, X)),
                    normalize_trace(gram_univariate(spec, Y)),
                    n, d, r, config.alpha_grid,
                )
    return sorted(rows, key=ResultRow.key)


def _sweep_rows(config, sweep_name, grid, blue_builder):
    """Shared bipartite sweep: fixed red set, blue set transformed per cell."""
    n = config.n_grid[0]
    d = config.d_grid[0]
    rows = []
    for family in _families(config, (GAUSSIAN, EXP_INNER_PRODUCT)):
        spec = KernelSpec(family, _bandwidth(config))
        for r in range(config.replicates):
            red = sample_gaussian(
                _child_seed(config.seed, r, 0), n, d, scale=config.sample_scale
            )
            blue_base = np.random.default_rng(
                _child_seed(config.seed, r, 1)
            ).standard_normal((n, d))
            K_red = normalize_trace(gram_univariate(spec, red))
            for p in grid:
                blue = SampleSet(blue_builder(blue_base, float(p), config))
                rows += _bipartite_rows(
                    sweep_name, family, K_red,
                    normalize_trace(gram_univariate(spec, blue)),
                    p, d, r, config.alpha_grid,
                )
    return sorted(rows, key=ResultRow.key)


def _shifted_blue(base, shift, config):
    out = config.sample_scale * base
    out[:, 0] += shift
    return out


def _scaled_blue(base, scale, config):
    return (scale * config.sample_scale) * base


def run_mean_shift(config):
    """Blue-set mean swept along the first coordinate; red set fixed."""
    if config.experiment != "mean-shift":
        raise ArgumentError("config.experiment must be 'mean-shift'")
    return _sweep_rows(config, "mean-shift", config.shift_grid, _shifted_blue)


def run_variance_scale(config):
    """Blue-set standard deviation swept over scale_grid; red set fixed."""
    if config.experiment != "variance-scale":
        raise ArgumentError("config.experiment must be 'variance-scale'")
    return _sweep_rows(config, "variance-scale", config.scale_grid, _scaled_blue)


def run_tripartite(config):
    """Shift and scale sweeps of the tripartite measure, gaussian kernel."""
    if config.experiment != "tripartite":
        raise ArgumentError("config.experiment must be 'tripartite'")
    spec = config.kernel or KernelSpec(GAUSSIAN, 1.0)
    if spec.family != GAUSSIAN:
        raise ArgumentError("tripartite runs use the gaussian kernel")
    n = config.n_grid[0]
    m = config.m if config.m is not None else n
    d = config.d_grid[0]
    rows = []
    sweeps = (
        (MEASURE_TRIPARTITE_SHIFT, config.shift_grid, _shifted_blue),
        (MEASURE_TRIPARTITE_SCALE, config.scale_grid, _scaled_blue),
    )
    for r in range(config.replicates):
        X = sample_gaussian(
            _child_seed(config.seed, r, 0), n, d, scale=config.sample_scale
        )
        base = np.random.default_rng(_child_seed(config.seed, r, 1)).standard_normal(
            (m, d)
        )
        K1 = gram_univariate(spec, X)
        for measure, grid, builder in sweeps:
            for p in grid:
                Y = SampleSet(builder(base, float(p), config))
                K2 = gram_univariate(spec, Y)
                K12 = gram_cross(spec, X, Y)
                for a in config.alpha_grid:
                    value = tripartite_cross_entropy(K1, K12, K2, a).value
                    rows.append(
                        ResultRow(
                            "tripartite", spec.family, float(a), float(p),
                            measure, value, n, m, d, r,
                        )
                    )
    return sorted(rows, key=ResultRow.key)


RUNNERS = {
    "convergence": run_convergence,
    "mean-shift": run_mean_shift,
    "variance-scale": run_variance_scale,
    "tripartite": run_tripartite,
}


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def emit_results(table, path, out_format="csv"):
    """Write rows as CSV (fixed column order) or a JSON array of objects.

    Floats carry 17 significant digits so a round-trip through load/parse
    reproduces them bit-exactly. path of None writes to stdout.
    """
    if out_format not in ("csv", "json"):
        raise ArgumentError(f"format must be csv or json, got {out_format!r}")
    buf = io.StringIO()
    if out_format == "csv":
        buf.write(",".join(RESULT_COLUMNS) + "\n")
        for row in table:
            buf.write(
                ",".join(_fmt(getattr(row, col)) for col in RESULT_COLUMNS) + "\n"
            )
    else:
        payload = [
            {col: getattr(row, col) for col in RESULT_COLUMNS} for row in table
        ]
        json.dump(payload, buf, indent=1)
        buf.write("\n")
    text = buf.getvalue()
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def parse_results_csv(path):
    """Round-trip reader for emit_results CSV output."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RESULT_COLUMNS):
            raise ParseError(path, 1, f"unexpected header {header!r}")
        rows = []
        for i, cells in enumerate(reader, start=2):
            if len(cells) != len(RESULT_COLUMNS):
                raise ParseError(path, i, "wrong column count")
            rows.append(
                ResultRow(
                    experiment=cells[0],
                    kernel=cells[1],
                    alpha=float(cells[2]),
                    parameter=float(cells[3]),
                    measure=cells[4],
                    value=float(cells[5]),
                    n=int(cells[6]),
                    m=int(cells[7]),
                    d=int(cells[8]),
                    seed=int(cells[9]),
                )
            )
    return rows
