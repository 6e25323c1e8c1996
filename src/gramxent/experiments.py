"""Experiment runners and result-table plumbing for the CLI.

Each runner is a pure function of its ExperimentConfig: sample draws come
from seeds derived with SeedSequence, grid cells are evaluated in a
deterministic order, and rows are sorted on the key columns before emission,
so a rerun with the same config is byte-identical at a fixed BLAS thread
count (``OPENBLAS_NUM_THREADS=1`` reproduces a file on another machine).

Each experiment's defaults are the ExperimentConfig field defaults with the
entries of ``_DEFAULTS`` on top. The sweep sample scales were tuned so the
Gram spectra stay well conditioned at the default sizes; at low dimension
with unit-scale draws the bipartite estimators are dominated by eigenvector
noise between independent sets. The two sweeps and the tripartite runner
evaluate one (n, d) cell, so their n and d grids take exactly one value.

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
import typing
from dataclasses import dataclass, fields

import numpy as np

from .errors import ArgumentError, NumericalDegeneracyError, ParseError
from .estimators import _Pair, _spectrum, _Triple, _orders
from .kernels import (
    FAMILIES,
    GAUSSIAN,
    KernelSpec,
    SampleSet,
    gram_cross,
    gram_univariate,
    normalize_trace,
)
from .psd_linalg import sym_eig

MEASURE_NONMIRRORED = "nonmirrored"
MEASURE_MIRRORED = "mirrored"
MEASURE_TRIPARTITE_SHIFT = "tripartite-shift"
MEASURE_TRIPARTITE_SCALE = "tripartite-scale"
OUTPUT_FORMATS = ("csv", "json")


def _check_grid(name, grid):
    """A grid must be non-empty with distinct entries: a repeat runs a cell twice."""
    if len(grid) == 0:
        raise ArgumentError(f"{name} must be non-empty")
    if len(set(grid)) < len(grid):
        raise ArgumentError(f"{name} entries must be distinct, got {grid}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a runner needs; seed included, so runs are reproducible.

    ``kernel`` is a family name; None means the runner's default family
    selection (gaussian for convergence and tripartite, both families for the
    two sweep experiments). ``sigma`` is the bandwidth of every family the run
    uses. ``replicates`` is the number of independent sample draws; the output
    ``seed`` column carries the replicate index. No grid repeats an entry.
    """

    experiment: str
    kernel: str | None = None
    sigma: float = 1.0
    alpha_grid: tuple[float, ...] = (0.5, 1.5, 2.0, 4.0)
    n_grid: tuple[int, ...] = (16, 32, 64, 128, 256, 512)
    d_grid: tuple[int, ...] = (2, 10, 25, 50, 100)
    shift_grid: tuple[float, ...] = (0.0,)
    scale_grid: tuple[float, ...] = (1.0,)
    seed: int = 0
    replicates: int = 1
    sample_scale: float = 1.0
    m: int | None = None
    output_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.experiment not in _DEFAULTS:
            raise ArgumentError(
                f"unknown experiment {self.experiment!r}; choose from {tuple(_DEFAULTS)}"
            )
        # the runners build their KernelSpec later; its checks run here, before any draw
        KernelSpec(self.kernel or GAUSSIAN, self.sigma)
        for f in fields(self):
            if typing.get_origin(f.type) is tuple:
                _check_grid(f.name, getattr(self, f.name))
        _orders(self.alpha_grid)
        for name in ("n_grid", "d_grid"):
            if min(getattr(self, name)) < 1:
                raise ArgumentError(f"{name} entries must be >= 1, got {getattr(self, name)}")
        if self.m is not None and self.m < 1:
            raise ArgumentError(f"m must be >= 1, got {self.m}")
        if not all(0 < x < np.inf for x in self.scale_grid):
            raise ArgumentError(
                f"scale_grid entries must be positive and finite, got {self.scale_grid}"
            )
        if not all(np.isfinite(self.shift_grid)):
            raise ArgumentError(f"shift_grid entries must be finite, got {self.shift_grid}")
        if self.replicates < 1:
            raise ArgumentError("replicates must be >= 1")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.sample_scale < np.inf):
            raise ArgumentError(
                f"sample_scale must be positive and finite, got {self.sample_scale}"
            )
        if self.out_format not in OUTPUT_FORMATS:
            raise ArgumentError(f"format must be one of {OUTPUT_FORMATS}, got {self.out_format!r}")


# Each experiment's departures from the ExperimentConfig field defaults.
_DEFAULTS = {
    "convergence": dict(replicates=10),
    "mean-shift": dict(
        n_grid=(64,),
        d_grid=(10,),
        shift_grid=tuple(float(x) for x in np.linspace(-3.0, 3.0, 9)),
        replicates=5,
        sample_scale=0.25,
    ),
    "variance-scale": dict(
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
        shift_grid=tuple(float(x) for x in np.linspace(-2.0, 2.0, 9)),
        scale_grid=(0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0),
        replicates=5,
        m=96,
    ),
}


def default_config(experiment, **overrides):
    """The pinned per-experiment defaults; keyword overrides win."""
    return ExperimentConfig(experiment, **{**_DEFAULTS.get(experiment, {}), **overrides})


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
        """Every column but the value, in column order."""
        return tuple(getattr(self, col) for col in RESULT_COLUMNS if col != "value")


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))


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
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if not np.isfinite(row).all():
            raise ParseError(path, line_no, "non-finite entry")
        rows.append(row)
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


def _check_unread(config, *names):
    """Reject a field the runner never reads unless it keeps its field default,
    so a setting is never dropped without a word."""
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    for name in names:
        if getattr(config, name) != defaults[name]:
            raise ArgumentError(f"{config.experiment} does not use {name}; leave it unset")


def _cell_rows(experiment, family, parameter, n, m, d, r, alpha_grid, measures):
    """The rows of one cell at every order, ``measures(a)`` giving its (measure,
    value) pairs at order a; a collapsed trace propagates with the cell named."""
    rows = []
    for a in alpha_grid:
        try:
            rows += [
                ResultRow(experiment, family, float(a), float(parameter), *measured, n, m, d, r)
                for measured in measures(a)
            ]
        except NumericalDegeneracyError as exc:
            cell = f"kernel {family}, order {_fmt(a)}, parameter {_fmt(parameter)}, replicate {r}"
            exc.args = (f"{experiment} ({cell}): {exc}",)
            raise
    return rows


def _bipartite_rows(experiment, family, pair, parameter, d, r, alpha_grid):
    """Nonmirrored and mirrored rows of one decomposed ``_Pair`` at every order; a
    runner builds the pair in the call, so no two draws' pairs are alive at once."""
    return _cell_rows(
        experiment, family, parameter, pair.n, pair.n, d, r, alpha_grid,
        lambda a: zip((MEASURE_NONMIRRORED, MEASURE_MIRRORED), pair.measures(a)),
    )


def _unit_spectrum(spec, S):
    """The spectrum of S's trace-normalized Gram, which is released on return."""
    return _spectrum(normalize_trace(gram_univariate(spec, S)))


def run_convergence(config):
    """Same-distribution pairs over the (d, n) grid, gaussian kernel.

    X and Y are independent draws, replicate r of cell (d_grid[di], n_grid[ni])
    at seed paths (r, di, ni, 0) and (r, di, ni, 1). The bipartite rows
    compare their trace-normalized Grams index by index: reordering the rows
    of Y alone changes both values, so they depend on sample order.
    """
    if config.experiment != "convergence":
        raise ArgumentError("config.experiment must be 'convergence'")
    _check_unread(config, "shift_grid", "scale_grid", "m")
    spec = KernelSpec(config.kernel or GAUSSIAN, config.sigma)
    rows = []
    for di, d in enumerate(config.d_grid):
        for ni, n in enumerate(config.n_grid):
            for r, X, base in _draws(config, n, n, d, di, ni):
                Y = SampleSet(config.sample_scale * base)
                rows += _bipartite_rows(
                    "convergence", spec.family,
                    _Pair(_unit_spectrum(spec, X), _unit_spectrum(spec, Y)),
                    n, d, r, config.alpha_grid,
                )
    return sorted(rows, key=ResultRow.key)


def _one_value(config, name):
    """The single value of a grid the runner evaluates as one cell."""
    grid = getattr(config, name)
    if len(grid) != 1:
        raise ArgumentError(
            f"{config.experiment} takes one value in {name}, got {len(grid)}"
        )
    return grid[0]


def _draws(config, n, m, d, *cell):
    """Per replicate r: r, n red draws (seed path (r, *cell, 0)) and an m x d
    standard-normal blue base (seed path (r, *cell, 1)); ``cell`` is the grid
    cell's indices, empty for a runner with one cell."""
    for r in range(config.replicates):
        path = (config.seed, r, *cell)
        red = sample_gaussian(_child_seed(*path, 0), n, d, scale=config.sample_scale)
        base = np.random.default_rng(_child_seed(*path, 1)).standard_normal((m, d))
        yield r, red, base


def _sweep_rows(config, grid, blue_builder):
    """Shared bipartite sweep: fixed red set, blue set transformed per cell."""
    n = _one_value(config, "n_grid")
    d = _one_value(config, "d_grid")
    rows = []
    for family in (config.kernel,) if config.kernel else FAMILIES:
        spec = KernelSpec(family, config.sigma)
        for r, red, blue_base in _draws(config, n, n, d):
            s_red = _unit_spectrum(spec, red)  # serves every cell of the replicate
            for p in grid:
                blue = SampleSet(blue_builder(blue_base, float(p), config))
                rows += _bipartite_rows(
                    config.experiment, spec.family,
                    _Pair(s_red, _unit_spectrum(spec, blue)),
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
    _check_unread(config, "scale_grid", "m")
    return _sweep_rows(config, config.shift_grid, _shifted_blue)


def run_variance_scale(config):
    """Blue-set standard deviation swept over scale_grid; red set fixed."""
    if config.experiment != "variance-scale":
        raise ArgumentError("config.experiment must be 'variance-scale'")
    _check_unread(config, "shift_grid", "m")
    return _sweep_rows(config, config.scale_grid, _scaled_blue)


def run_tripartite(config):
    """Shift and scale sweeps of the tripartite measure, gaussian kernel."""
    if config.experiment != "tripartite":
        raise ArgumentError("config.experiment must be 'tripartite'")
    if config.kernel not in (None, GAUSSIAN):
        raise ArgumentError("tripartite runs use the gaussian kernel")
    spec = KernelSpec(GAUSSIAN, config.sigma)
    n = _one_value(config, "n_grid")
    m = config.m if config.m is not None else n
    d = _one_value(config, "d_grid")
    rows = []
    sweeps = (
        (MEASURE_TRIPARTITE_SHIFT, config.shift_grid, _shifted_blue),
        (MEASURE_TRIPARTITE_SCALE, config.scale_grid, _scaled_blue),
    )
    for r, X, base in _draws(config, n, m, d):
        K1 = gram_univariate(spec, X)
        # K1 depends only on the replicate: one spectrum serves every cell
        e1 = sym_eig(K1, vectors=False)
        for measure, grid, builder in sweeps:
            for p in grid:
                Y = SampleSet(builder(base, float(p), config))
                triple = _Triple(K1, gram_cross(spec, X, Y), gram_univariate(spec, Y), e1)
                rows += _cell_rows(
                    "tripartite", spec.family, p, n, m, d, r, config.alpha_grid,
                    lambda a: [(measure, triple.result(a).value)],
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
    if out_format not in OUTPUT_FORMATS:
        raise ArgumentError(f"format must be one of {OUTPUT_FORMATS}, got {out_format!r}")
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
    _write_text(buf.getvalue(), path)


def _write_text(text, path):
    """Write text to path as is, or to stdout when path is None."""
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
            rows.append(ResultRow(*(f.type(c) for f, c in zip(fields(ResultRow), cells))))
    return rows
