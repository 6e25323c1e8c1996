"""Sample loading, experiment runners, result serialization, and the CLI."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import numpy.testing as npt
import pytest

import gramxent.estimators
from gramxent import (
    ArgumentError,
    ExperimentConfig,
    KernelSpec,
    NumericalDegeneracyError,
    ParseError,
    ResultRow,
    SampleSet,
    default_config,
    emit_results,
    gram_cross,
    gram_univariate,
    load_csv,
    mirrored_cross_entropy,
    nonmirrored_cross_entropy,
    normalize_trace,
    parse_results_csv,
    run_convergence,
    run_mean_shift,
    run_property_suite,
    run_tripartite,
    run_variance_scale,
    sample_gaussian,
    tripartite_cross_entropy,
)
from gramxent.cli import _PROPERTY_KEYS, build_parser, main
from gramxent.experiments import RESULT_COLUMNS, RUNNERS, _child_seed, _scaled_blue, _shifted_blue


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------- load_csv

def test_load_numeric_csv(tmp_path):
    path = write(tmp_path, "a.csv", "1.0,2.0,3.0\n4.0,5.0,6.5\n")
    X = load_csv(path)
    assert (X.n, X.d) == (2, 3)
    npt.assert_array_equal(X.data, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])


def test_load_csv_skips_header(tmp_path):
    path = write(tmp_path, "b.csv", "x1,x2\n1,2\n3,4\n5,6\n7,8\n")
    X = load_csv(path)
    assert (X.n, X.d) == (4, 2)


def test_load_csv_ragged_row(tmp_path):
    path = write(tmp_path, "c.csv", "1,2\n3,4,5\n")
    with pytest.raises(ParseError, match="c.csv:2") as exc:
        load_csv(path)
    assert exc.value.line == 2
    assert "expected 2 columns, found 3" in str(exc.value)


def test_load_csv_non_numeric_cell(tmp_path):
    """A cell that is not a finite number is a ParseError naming its path and line."""
    for cell in ("oops", "nan", "inf", "-inf"):
        path = write(tmp_path, "d.csv", f"h1,h2\n1,2\n3,{cell}\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert (exc.value.path, exc.value.line) == (path, 3), cell


def test_load_csv_empty_file(tmp_path):
    path = write(tmp_path, "e.csv", "")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.line == 1


def test_load_csv_blank_first_line(tmp_path):
    path = write(tmp_path, "f.csv", "\n1,2\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_load_csv_header_without_rows(tmp_path):
    path = write(tmp_path, "g.csv", "x1,x2\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(path)


# ------------------------------------------------------------ sample_gaussian

def test_sample_gaussian_deterministic():
    npt.assert_array_equal(
        sample_gaussian(42, 6, 3).data, sample_gaussian(42, 6, 3).data
    )


def test_sample_gaussian_collapses_to_mean_at_tiny_scale():
    X = sample_gaussian(0, 50, 4, mean=2.5, scale=1e-12)
    assert np.max(np.abs(X.data - 2.5)) < 1e-10


def test_sample_gaussian_vector_mean():
    mean = np.array([1.0, -2.0, 0.5])
    X = sample_gaussian(1, 10, 3, mean=mean, scale=1e-12)
    npt.assert_allclose(X.data, np.broadcast_to(mean, (10, 3)), atol=1e-10)


def test_sample_gaussian_law_of_large_numbers():
    X = sample_gaussian(2, 100_000, 2, mean=0.0, scale=1.0)
    assert np.max(np.abs(X.data.mean(axis=0))) < 0.02
    assert np.max(np.abs(X.data.std(axis=0) - 1.0)) < 0.02


def test_sample_gaussian_rejects_bad_scale():
    with pytest.raises(ArgumentError):
        sample_gaussian(0, 5, 2, scale=0.0)


# --------------------------------------------------------------------- config

def test_default_config_pins_experiment_geometry():
    ms = default_config("mean-shift")
    assert len(ms.shift_grid) == 9
    assert ms.replicates == 5
    assert ms.sample_scale == 0.25
    tri = default_config("tripartite")
    assert tri.m == 96
    assert tri.alpha_grid == (1.5, 2.0)


def test_default_config_overrides_win():
    cfg = default_config("convergence", n_grid=(8,), replicates=1)
    assert cfg.n_grid == (8,)
    assert cfg.replicates == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(experiment="frobnicate"),
        dict(experiment="convergence", alpha_grid=()),
        dict(experiment="convergence", replicates=0),
        dict(experiment="convergence", sample_scale=0.0),
        dict(experiment="convergence", out_format="xml"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ArgumentError):
        ExperimentConfig(**kwargs)


def test_every_runner_has_defaults_and_nothing_else():
    for name in RUNNERS:
        assert default_config(name).experiment == name
    with pytest.raises(ArgumentError, match="unknown experiment"):
        default_config("properties")


def test_runner_rejects_mismatched_config():
    with pytest.raises(ArgumentError):
        run_convergence(default_config("mean-shift"))
    for runner, other in (
        (run_mean_shift, "convergence"),
        (run_variance_scale, "tripartite"),
        (run_tripartite, "variance-scale"),
    ):
        with pytest.raises(ArgumentError, match="config.experiment must be"):
            runner(default_config(other))


# -------------------------------------------------------------------- runners

def test_convergence_row_grid():
    cfg = default_config(
        "convergence", n_grid=(8, 12), d_grid=(2,), alpha_grid=(2.0,), replicates=2
    )
    rows = run_convergence(cfg)
    # 2 sizes x 1 dim x 1 alpha x 2 replicates x 2 measures
    assert len(rows) == 8
    assert all(r.experiment == "convergence" for r in rows)
    assert all(r.kernel == "gaussian" for r in rows)
    assert all(r.parameter == r.n and r.m == r.n for r in rows)
    assert sorted({r.seed for r in rows}) == [0, 1]
    assert rows == sorted(rows, key=ResultRow.key)


def test_mean_shift_covers_both_kernels_by_default():
    cfg = default_config(
        "mean-shift", n_grid=(8,), d_grid=(2,), alpha_grid=(2.0,),
        shift_grid=(-1.0, 0.0, 1.0), replicates=1,
    )
    rows = run_mean_shift(cfg)
    assert len(rows) == 12
    assert sorted({r.kernel for r in rows}) == [
        "exponential-inner-product", "gaussian",
    ]


def test_mean_shift_explicit_kernel_restricts_families():
    cfg = default_config(
        "mean-shift", n_grid=(8,), d_grid=(2,), alpha_grid=(2.0,),
        shift_grid=(0.0,), replicates=1, kernel="gaussian", sigma=2.0,
    )
    rows = run_mean_shift(cfg)
    assert len(rows) == 2
    assert {r.kernel for r in rows} == {"gaussian"}


def test_variance_scale_finite_at_default_geometry():
    cfg = default_config("variance-scale", scale_grid=(1e-3,), replicates=1)
    rows = run_variance_scale(cfg)
    assert len(rows) == 16
    assert all(math.isfinite(r.value) for r in rows)


def test_variance_scale_reports_divergence_as_inf():
    """A degenerate blue set trips the support gate; the sweep reports the
    sentinel instead of crashing."""
    cfg = default_config(
        "variance-scale", scale_grid=(1e-3,), n_grid=(16,), d_grid=(3,),
        replicates=1, alpha_grid=(2.0,),
    )
    rows = run_variance_scale(cfg)
    assert all(r.value == math.inf for r in rows)


def test_tripartite_runner_handles_unequal_sizes():
    cfg = default_config(
        "tripartite", n_grid=(6,), m=9, d_grid=(2,), alpha_grid=(1.5, 2.0),
        shift_grid=(0.0, 1.0), scale_grid=(1.0,), replicates=1,
    )
    rows = run_tripartite(cfg)
    assert len(rows) == 6
    assert all(r.m == 9 and r.n == 6 for r in rows)
    assert all(math.isfinite(r.value) for r in rows)
    assert {r.measure for r in rows} == {"tripartite-shift", "tripartite-scale"}


def test_tripartite_runner_matches_public_estimator():
    """The runner reads every cell off one spectrum of K1 per replicate; each
    row equals tripartite_cross_entropy on the same draws, bit for bit."""
    cfg = default_config(
        "tripartite", n_grid=(6,), m=9, d_grid=(2,), alpha_grid=(0.5, 1.5, 2.0),
        shift_grid=(0.0, 1.0), scale_grid=(0.5, 2.0), replicates=2,
    )
    spec = KernelSpec("gaussian", 1.0)
    expected = {}
    for r in range(cfg.replicates):
        X = sample_gaussian(_child_seed(cfg.seed, r, 0), 6, 2, scale=cfg.sample_scale)
        base = np.random.default_rng(_child_seed(cfg.seed, r, 1)).standard_normal((9, 2))
        for measure, grid, builder in (
            ("tripartite-shift", cfg.shift_grid, _shifted_blue),
            ("tripartite-scale", cfg.scale_grid, _scaled_blue),
        ):
            for p in grid:
                Y = SampleSet(builder(base, p, cfg))
                K1, K12, K2 = (
                    gram_univariate(spec, X), gram_cross(spec, X, Y), gram_univariate(spec, Y)
                )
                for a in cfg.alpha_grid:
                    value = tripartite_cross_entropy(K1, K12, K2, a).value
                    expected[(a, p, measure, r)] = value
    rows = run_tripartite(cfg)
    assert len(rows) == len(expected) == 24
    for row in rows:
        assert row.value == expected[(row.alpha, row.parameter, row.measure, row.seed)]


def test_convergence_runner_matches_public_estimators():
    """Replicate r of cell (d_grid[di], n_grid[ni]) draws X and Y at seed paths
    (r, di, ni, 0) and (r, di, ni, 1); each row equals the public estimator on
    the normalized Grams of those draws, bit for bit."""
    cfg = default_config(
        "convergence", n_grid=(5, 8), d_grid=(2, 3), alpha_grid=(0.5, 2.0), replicates=2,
        sample_scale=0.5,
    )
    spec = KernelSpec("gaussian", 1.0)
    expected = {}
    for di, d in enumerate(cfg.d_grid):
        for ni, n in enumerate(cfg.n_grid):
            for r in range(cfg.replicates):
                X, Y = (
                    sample_gaussian(
                        _child_seed(cfg.seed, r, di, ni, side), n, d, scale=cfg.sample_scale
                    )
                    for side in (0, 1)
                )
                K1, K2 = (normalize_trace(gram_univariate(spec, S)) for S in (X, Y))
                for a in cfg.alpha_grid:
                    expected[(a, "nonmirrored", n, d, r)] = nonmirrored_cross_entropy(K1, K2, a)
                    expected[(a, "mirrored", n, d, r)] = mirrored_cross_entropy(K1, K2, a)
    rows = run_convergence(cfg)
    assert len(rows) == len(expected) == 32
    for row in rows:
        key = (row.alpha, row.measure, row.n, row.d, row.seed)
        assert row.value == expected[key].value


def test_tripartite_rejects_non_gaussian_kernel():
    cfg = default_config("tripartite", kernel="exponential-inner-product")
    with pytest.raises(ArgumentError):
        run_tripartite(cfg)


def test_runners_deterministic():
    cfg = default_config(
        "mean-shift", n_grid=(8,), d_grid=(2,), alpha_grid=(0.5,),
        shift_grid=(0.0, 1.0), replicates=2,
    )
    assert run_mean_shift(cfg) == run_mean_shift(cfg)


# -------------------------------------------------------------- serialization

RESULT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": list(RESULT_COLUMNS),
        "properties": {
            "experiment": {"type": "string"},
            "kernel": {"type": "string"},
            "alpha": {"type": "number"},
            "parameter": {"type": "number"},
            "measure": {"type": "string"},
            "value": {"type": "number"},
            "n": {"type": "integer"},
            "m": {"type": "integer"},
            "d": {"type": "integer"},
            "seed": {"type": "integer"},
        },
        "additionalProperties": False,
    },
}


def small_table():
    cfg = default_config(
        "convergence", n_grid=(8,), d_grid=(2,), alpha_grid=(0.5, 2.0), replicates=1
    )
    return run_convergence(cfg)


def test_emit_empty_table_writes_header_only(tmp_path):
    path = str(tmp_path / "empty.csv")
    emit_results([], path)
    assert open(path).read() == ",".join(RESULT_COLUMNS) + "\n"
    assert parse_results_csv(path) == []


def test_csv_round_trip_is_exact(tmp_path):
    rows = small_table()
    path = str(tmp_path / "out.csv")
    emit_results(rows, path)
    assert parse_results_csv(path) == rows


def test_seventeen_digit_float_fidelity(tmp_path):
    row = ResultRow("convergence", "gaussian", 1.0 / 3.0, 8.0, "nonmirrored",
                    math.pi, 8, 8, 2, 0)
    path = str(tmp_path / "pi.csv")
    emit_results([row], path)
    back = parse_results_csv(path)[0]
    assert back.value == math.pi
    assert back.alpha == 1.0 / 3.0


def test_json_output_matches_schema(tmp_path):
    rows = small_table()
    path = str(tmp_path / "out.json")
    emit_results(rows, path, out_format="json")
    payload = json.load(open(path))
    jsonschema.validate(payload, RESULT_SCHEMA)
    assert len(payload) == len(rows)
    assert payload[0]["experiment"] == "convergence"


def test_emit_to_stdout(capsys):
    emit_results(small_table()[:1], None)
    out = capsys.readouterr().out
    assert out.startswith(",".join(RESULT_COLUMNS))
    assert len(out.strip().splitlines()) == 2


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ArgumentError):
        emit_results([], str(tmp_path / "x"), out_format="xml")


def test_parse_rejects_foreign_header(tmp_path):
    path = write(tmp_path, "bad.csv", "a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        parse_results_csv(path)


def test_parse_rejects_a_row_of_the_wrong_width(tmp_path):
    path = write(tmp_path, "short.csv", ",".join(RESULT_COLUMNS) + "\n1,2,3\n")
    with pytest.raises(ParseError, match=":2: wrong column count"):
        parse_results_csv(path)


# ------------------------------------------------------------------------ CLI

FAST_SHIFT = [
    "mean-shift", "--kernel", "gaussian", "--n", "8", "--d", "2",
    "--alpha", "2", "--shift", "0", "--shift", "1",
]


def run_properties_cli(tmp_path, *extra):
    out = str(tmp_path / "props.json")
    code = main([
        "properties", "--n", "4", "--seeds", "1",
        "--alpha", "0.5", "--alpha", "2.0", "--out", out, *extra,
    ])
    return code, json.load(open(out))


def test_cli_experiment_writes_parseable_csv(tmp_path):
    out = str(tmp_path / "rows.csv")
    assert main([*FAST_SHIFT, "--out", out]) == 0
    rows = parse_results_csv(out)
    # 2 shifts x 1 alpha x 2 measures x the default 5 replicates
    assert len(rows) == 20
    assert {r.kernel for r in rows} == {"gaussian"}
    assert sorted({r.seed for r in rows}) == [0, 1, 2, 3, 4]


def test_cli_reruns_are_byte_identical(tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main([*FAST_SHIFT, "--seed", "7", "--out", a]) == 0
    assert main([*FAST_SHIFT, "--seed", "7", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


# The eleven experiment flags, each once, and the arguments they parse to.
EXPERIMENT_ARGV = [
    "--kernel", "gaussian", "--sigma", "2", "--alpha", "2", "--n", "8", "--d", "2",
    "--shift", "0.5", "--scale", "1.5", "--seed", "3", "--out", "rows.csv",
    "--format", "json", "--config", "cfg.json",
]
EXPERIMENT_ARGS = {
    "kernel": "gaussian", "sigma": 2.0, "alpha_grid": [2.0], "n_grid": [8], "d_grid": [2],
    "shift_grid": [0.5], "scale_grid": [1.5], "seed": 3, "output_path": "rows.csv",
    "out_format": "json", "config": "cfg.json",
}


@pytest.mark.parametrize("command", sorted(RUNNERS))
def test_cli_experiment_flags(command):
    """Every experiment takes the same eleven flags and no other."""
    args = build_parser().parse_args([command, *EXPERIMENT_ARGV])
    assert vars(args) == {"command": command, **EXPERIMENT_ARGS}


def test_cli_properties_flags():
    """properties takes the experiments' --alpha, --seed, --out and --config."""
    argv = ["properties", "--alpha", "2", "--seed", "3", "--out", "o", "--config", "c"]
    args = build_parser().parse_args(argv)
    assert vars(args) == {
        "command": "properties", "alpha_grid": [2.0], "seed": 3, "output_path": "o",
        "config": "c", "sizes": None, "n_seeds": None,
    }


def test_cli_calls_in_one_process_are_independent(tmp_path):
    """main() parses with one parser per process; repeatable flags, argparse
    usage errors (exit 1, since 2 means a suite failure), --help (exit 0) and
    another subcommand in between leave no trace in a later call."""
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main([*FAST_SHIFT, "--out", str(first)]) == 0
    alone = str(tmp_path / "alone.csv")
    assert main([*FAST_SHIFT[:-4], "--shift", "2", "--out", alone]) == 0
    assert {r.parameter for r in parse_results_csv(alone)} == {2.0}
    assert main(["mean-shift", "--n", "x"]) == 1
    assert main(["properties", "--bogus"]) == 1
    assert main(["properties", "--tamper", "scaling"]) == 1
    assert main(["properties", "--help"]) == 0
    assert main(["properties", "--seeds", "1", "--n", "4", "--out", str(tmp_path / "p.json")]) == 0
    assert main([*FAST_SHIFT, "--out", str(again)]) == 0
    assert first.read_bytes() == again.read_bytes()


def test_importing_the_cli_builds_no_parser():
    """The parser is built on the first main() call: a process that imports the
    CLI and never calls it pays nothing for it."""
    src = os.path.dirname(os.path.dirname(inspect.getfile(main)))
    code = "import gramxent.cli as cli; raise SystemExit(cli._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_json_format(tmp_path):
    out = str(tmp_path / "rows.json")
    assert main([*FAST_SHIFT, "--format", "json", "--out", out]) == 0
    jsonschema.validate(json.load(open(out)), RESULT_SCHEMA)


def test_cli_properties_pass(tmp_path):
    code, payload = run_properties_cli(tmp_path)
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["properties"]) == 11


def test_cli_properties_exits_2_on_a_wrong_raw_trace(tmp_path, monkeypatch):
    """A real fault, every raw log tr(K1) off by log 2, fails the scaling law
    alone; the report is still written and the exit code is 2."""
    monkeypatch.setattr(
        gramxent.estimators, "_positive_trace", lambda tr, name: 2.0 * tr
    )
    code, payload = run_properties_cli(tmp_path)
    assert code == 2
    assert payload["passed"] is False
    failed = [p["name"] for p in payload["properties"] if not p["passed"]]
    assert failed == ["scaling-law"]


def test_cli_properties_writes_its_report_to_stdout(tmp_path, capsys):
    """Without --out the report goes to stdout, byte for byte the --out file."""
    code, payload = run_properties_cli(tmp_path)
    argv = ["properties", "--n", "4", "--seeds", "1", "--alpha", "0.5", "--alpha", "2.0"]
    assert main(argv) == code
    text = capsys.readouterr().out
    assert text == open(tmp_path / "props.json").read()
    assert json.loads(text) == payload


def test_cli_properties_report_restates_settings_as_typed(tmp_path, capsys):
    """An integer order from a config file is reported as the float the suite runs."""
    config = {"alpha_grid": [0.5, 2], "sizes": [4], "n_seeds": 1}
    cfg = write(tmp_path, "cfg.json", json.dumps(config))
    assert main(["properties", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert '"alpha_grid": [\n  0.5,\n  2.0\n ]' in text
    payload = json.loads(text)
    assert [payload[k] for k in ("seed", "sizes", "n_seeds")] == [0, [4], 1]


def test_cli_reports_a_collapsed_trace_not_a_math_domain_error(capsys):
    """At order 2000 the tripartite entropy term underflows to 0."""
    argv = ["tripartite", "--alpha", "2000", "--n", "16", "--shift", "0", "--scale", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "trace collapsed" in err
    assert "math domain error" not in err


def test_cli_reports_an_overflowed_trace_not_an_inf_row(capsys):
    """At order 300 the mean-shift pairs' traces overflow the float range; every
    pair's support is included, so no row may read as the support gate's +inf."""
    assert main(["mean-shift", "--alpha", "300", "--shift", "0", "--shift", "1"]) == 1
    captured = capsys.readouterr()
    assert "trace collapsed" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,cell",
    [
        (
            ["mean-shift", "--alpha", "2", "--alpha", "300", "--shift", "0"],
            "mean-shift (kernel gaussian, order 300, parameter 0, replicate 0)",
        ),
        (
            ["tripartite", "--alpha", "2000", "--n", "16", "--shift", "0.5", "--scale", "1"],
            "tripartite (kernel gaussian, order 2000, parameter 0.5, replicate 0)",
        ),
    ],
    ids=["mean-shift", "tripartite"],
)
def test_cli_names_the_cell_of_a_collapsed_trace(argv, cell, capsys):
    """A collapsed trace names the experiment, kernel, order, parameter and
    replicate it collapsed in, and still writes nothing; the error keeps its
    trace value and clamp count, in the message once."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"gramxent: error: {cell}: " in captured.err
    assert "trace collapsed (trace argument" in captured.err
    assert captured.err.count("trace argument") == 1


def test_a_runner_names_the_cell_and_keeps_the_diagnostics():
    """The runner's error is the estimator's, with the cell in front: the same
    trace value and clamp count, and the message's own suffix once."""
    config = default_config("variance-scale", alpha_grid=(300.0,), scale_grid=(2.0,))
    with pytest.raises(NumericalDegeneracyError) as exc:
        run_variance_scale(config)
    assert (exc.value.trace_value, exc.value.clamp_count) == (math.inf, 0)
    assert str(exc.value) == (
        "variance-scale (kernel gaussian, order 300, parameter 2, replicate 0): "
        "nonmirrored trace collapsed (trace argument inf, 0 eigenvalues clamped)"
    )


def test_cli_seed_precedence(tmp_path):
    cfg = write(tmp_path, "cfg.json", json.dumps({"seed": 3}))
    _, payload = run_properties_cli(tmp_path, "--config", cfg, "--seed", "5")
    assert payload["seed"] == 5  # explicit flag beats file
    _, payload = run_properties_cli(tmp_path, "--config", cfg)
    assert payload["seed"] == 3  # file beats the built-in default
    _, payload = run_properties_cli(tmp_path)
    assert payload["seed"] == 0


def test_cli_config_file_feeds_experiment(tmp_path):
    cfg = write(tmp_path, "cfg.json", json.dumps({
        "n_grid": [8], "d_grid": [2], "alpha_grid": [2.0],
        "shift_grid": [0.0], "kernel": "gaussian", "replicates": 1,
    }))
    out = str(tmp_path / "rows.csv")
    assert main(["mean-shift", "--config", cfg, "--out", out]) == 0
    assert len(parse_results_csv(out)) == 2


def test_cli_flags_override_config_file(tmp_path):
    cfg = write(tmp_path, "cfg.json", json.dumps({
        "n_grid": [8], "d_grid": [2], "alpha_grid": [2.0],
        "shift_grid": [0.0, 1.0], "kernel": "gaussian", "replicates": 1,
    }))
    out = str(tmp_path / "rows.csv")
    assert main(["mean-shift", "--config", cfg, "--shift", "0", "--out", out]) == 0
    assert len(parse_results_csv(out)) == 2  # one shift, not two


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", json.dumps({"n_grid": [8], "bogus": 1}))
    assert main(["mean-shift", "--config", cfg]) == 1
    assert "bogus" in capsys.readouterr().err


def test_cli_rejects_non_object_config(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", "[1, 2]")
    assert main(["mean-shift", "--config", cfg]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_reports_missing_config_file(tmp_path, capsys):
    assert main(["mean-shift", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_names_the_file_and_line_of_a_malformed_config(tmp_path, capsys):
    """A config that is not JSON is a ParseError naming its path and line."""
    cfg = write(tmp_path, "cfg.json", '{"n_grid": [8],\n "d_grid": [2,]}\n')
    assert main(["mean-shift", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"gramxent: error: {cfg}:2: Expecting value" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["convergence", "--n", "16", "--n", "16", "--d", "2"], "n_grid"),
        (["mean-shift", "--shift", "1", "--shift", "1"], "shift_grid"),
        (["variance-scale", "--alpha", "2", "--alpha", "2.0"], "alpha_grid"),
        (["tripartite", "--shift", "0", "--shift", "-0"], "shift_grid"),
        (["properties", "--n", "4", "--n", "4", "--seeds", "1"], "sizes"),
        (["properties", "--n", "4", "--alpha", "2", "--alpha", "2", "--seeds", "1"], "alpha_grid"),
    ],
    ids=[
        "convergence", "mean-shift", "variance-scale", "tripartite",
        "properties-n", "properties-alpha",
    ],
)
def test_cli_rejects_a_repeated_grid_entry(argv, named, capsys):
    """A repeated entry would write two rows under one key, or count the
    suite's checks twice; it is an error naming the grid."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: {named} entries must be distinct" in err
    assert "Traceback" not in err


def test_cli_sigma_applies_to_the_default_families(tmp_path):
    """--sigma sets the bandwidth of every family the run uses; it does not
    narrow the default family selection to the gaussian."""
    plain, sigma = str(tmp_path / "plain.csv"), str(tmp_path / "sigma.csv")
    assert main(["mean-shift", "--shift", "0", "--out", plain]) == 0
    assert main(["mean-shift", "--sigma", "1", "--shift", "0", "--out", sigma]) == 0
    assert open(plain, "rb").read() == open(sigma, "rb").read()
    out = str(tmp_path / "scale.csv")
    assert main(["variance-scale", "--sigma", "0.5", "--scale", "1", "--out", out]) == 0
    assert {r.kernel for r in parse_results_csv(out)} == {
        "gaussian", "exponential-inner-product",
    }


# Per config-file key, which lands on the field of its name: the file value
# and the value it gives there, then a flag (or None when the key has none)
# and the value the flag gives over the file.
CONFIG_KEY_CASES = {
    "kernel": (
        "exponential-inner-product", "exponential-inner-product",
        ["--kernel", "gaussian"], "gaussian",
    ),
    "sigma": (2.0, 2.0, ["--sigma", "3"], 3.0),
    "alpha_grid": ([0.5, 1.5], (0.5, 1.5), ["--alpha", "2"], (2.0,)),
    "n_grid": ([8], (8,), ["--n", "12"], (12,)),
    "d_grid": ([3], (3,), ["--d", "4"], (4,)),
    "shift_grid": ([1.0], (1.0,), ["--shift", "2"], (2.0,)),
    "scale_grid": ([2.0], (2.0,), ["--scale", "3"], (3.0,)),
    "seed": (3, 3, ["--seed", "5"], 5),
    "replicates": (2, 2, None, None),
    "sample_scale": (0.5, 0.5, None, None),
    "m": (7, 7, None, None),
    "output_path": ("file.csv", "file.csv", ["--out", "flag.csv"], "flag.csv"),
    "out_format": ("json", "json", ["--format", "csv"], "csv"),
}


def test_config_key_cases_cover_every_config_field():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(CONFIG_KEY_CASES) == fields - {"experiment"}


@pytest.mark.parametrize("key", sorted(CONFIG_KEY_CASES))
def test_config_file_key_lands_on_its_field_and_flag_wins(key, tmp_path, monkeypatch):
    file_value, from_file, flag, from_flag = CONFIG_KEY_CASES[key]
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setitem(RUNNERS, "mean-shift", lambda config: seen.append(config) or [])
    write(tmp_path, "cfg.json", json.dumps({key: file_value}))
    assert main(["mean-shift", "--config", "cfg.json"]) == 0
    assert getattr(seen[-1], key) == from_file
    if flag is not None:
        assert main(["mean-shift", "--config", "cfg.json", *flag]) == 0
        assert getattr(seen[-1], key) == from_flag


@pytest.mark.parametrize(
    "argv, grid",
    [
        (["mean-shift", "--n", "8", "--n", "16"], "n_grid"),
        (["variance-scale", "--d", "2", "--d", "3"], "d_grid"),
        (["tripartite", "--n", "8", "--n", "16"], "n_grid"),
    ],
)
def test_single_cell_runners_reject_several_sizes(argv, grid, capsys):
    """The sweeps and the tripartite runner evaluate one (n, d) cell; a second
    value would be dropped without a word."""
    assert main(argv) == 1
    assert grid in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, named", [(["--seeds", "0"], "n_seeds"), (["--n", "1"], "sizes")]
)
def test_cli_properties_refuses_vacuous_runs(extra, named, capsys):
    assert main(["properties", *extra]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("mean-shift", {"n_grid": 8}, "n_grid"),
        ("mean-shift", {"replicates": "2"}, "replicates"),
        ("properties", {"sizes": 4}, "sizes"),
    ],
)
def test_cli_rejects_wrongly_typed_config_value(command, config, key, tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", json.dumps(config))
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err


def test_cli_properties_rejects_unknown_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", json.dumps({"n_seed": 1}))
    assert main(["properties", "--config", cfg]) == 1
    assert "n_seed" in capsys.readouterr().err


def test_result_columns_pin_the_csv_header_and_the_sort_key():
    assert RESULT_COLUMNS == (
        "experiment", "kernel", "alpha", "parameter", "measure",
        "value", "n", "m", "d", "seed",
    )
    row = small_table()[0]
    assert row.key() == (
        row.experiment, row.kernel, row.alpha, row.parameter, row.measure,
        row.n, row.m, row.d, row.seed,
    )


@pytest.mark.parametrize("command", ["tripartite", "properties"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_names_a_negative_seed(command, source, tmp_path, capsys):
    """A negative seed is rejected by name before any draw is seeded."""
    argv = [command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        argv += ["--config", write(tmp_path, "cfg.json", json.dumps({"seed": -1}))]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, config, named",
    [
        ("convergence", ["--shift", "3"], {}, "shift_grid"),
        ("convergence", ["--scale", "9"], {}, "scale_grid"),
        ("convergence", [], {"m": 7}, "m"),
        ("mean-shift", ["--scale", "2"], {}, "scale_grid"),
        ("mean-shift", [], {"m": 7}, "m"),
        ("variance-scale", ["--shift", "1"], {}, "shift_grid"),
        ("variance-scale", [], {"m": 7}, "m"),
    ],
)
def test_runners_reject_fields_they_never_read(command, extra, config, named, tmp_path, capsys):
    """A setting the runner would drop is an error that names it."""
    cfg = write(tmp_path, "cfg.json", json.dumps({
        "n_grid": [8], "d_grid": [2], "alpha_grid": [2.0], "replicates": 1, **config,
    }))
    assert main([command, "--config", cfg, *extra]) == 1
    assert f"does not use {named};" in capsys.readouterr().err


def test_unread_field_at_its_default_is_accepted():
    cfg = default_config(
        "convergence", n_grid=(8,), d_grid=(2,), alpha_grid=(2.0,), replicates=1,
        shift_grid=(0.0,), scale_grid=(1.0,), m=None,
    )
    assert len(run_convergence(cfg)) == 2


@pytest.mark.parametrize(
    "command, extra, config, named",
    [
        ("variance-scale", ["--scale", "-2"], {}, "scale_grid"),
        ("variance-scale", ["--scale", "0"], {}, "scale_grid"),
        ("variance-scale", ["--scale", "inf"], {}, "scale_grid"),
        ("tripartite", [], {"scale_grid": [1.0, -0.5]}, "scale_grid"),
        ("convergence", ["--n", "-1"], {}, "n_grid"),
        ("mean-shift", ["--n", "0"], {}, "n_grid"),
        ("convergence", ["--d", "0"], {}, "d_grid"),
        ("tripartite", [], {"m": 0}, "m"),
        ("convergence", ["--alpha", "1", "--n", "512", "--d", "2"], {}, "alpha_grid"),
        ("properties", ["--alpha", "1"], {}, "alpha_grid"),
        ("mean-shift", ["--alpha", "2", "--alpha", "0"], {}, "alpha_grid"),
        ("tripartite", [], {"alpha_grid": [2.0, math.inf]}, "alpha_grid"),
        ("properties", [], {"alpha_grid": [0.5, 1.0000001]}, "alpha_grid"),
    ],
)
def test_cli_names_a_nonpositive_size_or_scale(
    command, extra, config, named, tmp_path, monkeypatch, capsys
):
    """A size below 1, a scale that is not positive and finite, or an order
    that no measure takes is rejected by name before any draw or
    decomposition."""

    def no_decomposition(*args, **kwargs):
        raise AssertionError("decomposed before the settings were checked")

    monkeypatch.setattr(np.linalg, "eigh", no_decomposition)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_decomposition)
    cfg = write(tmp_path, "cfg.json", json.dumps(config))
    assert main([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert f"error: {named} " in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, extra, config, named",
    [
        ("mean-shift", ["--shift", "nan"], {}, "shift_grid"),
        ("mean-shift", ["--shift", "inf"], {}, "shift_grid"),
        ("tripartite", [], {"shift_grid": [0.0, -math.inf]}, "shift_grid"),
        ("mean-shift", [], {"sample_scale": math.inf}, "sample_scale"),
        ("variance-scale", [], {"sample_scale": math.nan}, "sample_scale"),
        ("mean-shift", ["--sigma", "inf", "--n", "8"], {}, "bandwidth"),
        ("tripartite", ["--sigma", "inf"], {}, "bandwidth"),
    ],
)
def test_cli_names_a_nonfinite_shift_scale_or_bandwidth(
    command, extra, config, named, tmp_path, capsys
):
    """A shift, sample scale or bandwidth that is not finite is rejected by
    name, not as non-finite samples, and no numpy warning escapes."""
    cfg = write(tmp_path, "cfg.json", json.dumps(config))
    assert main([command, "--config", cfg, *extra]) == 1
    err = capsys.readouterr().err
    assert f"error: {named} " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["mean-shift", "tripartite"])
def test_cli_huge_bandwidth_runs_at_the_exact_limit(command, tmp_path):
    """sigma * d^2 overflows to inf and exp(-inf) = 0: finite rows and no
    numpy warning (the suite turns one into an error). The
    exponential-inner-product family overflows at this bandwidth instead."""
    out = str(tmp_path / "rows.csv")
    argv = [command, "--kernel", "gaussian", "--sigma", "1e308", "--n", "8", "--out", out]
    assert main(argv) == 0
    rows = parse_results_csv(out)
    assert rows and all(math.isfinite(r.value) for r in rows)


def test_cli_huge_sample_scale_runs_at_the_exact_limit(tmp_path, capsys):
    """Samples at 1e200 have squared distances past the float range, so the
    gaussian Grams are exactly the identity, with no numpy warning; the
    exponential-inner-product family, in the default family set, overflows."""
    cfg = write(tmp_path, "cfg.json", json.dumps({"sample_scale": 1e200}))
    out = str(tmp_path / "rows.csv")
    argv = ["mean-shift", "--config", cfg, "--n", "8"]
    assert main([*argv, "--kernel", "gaussian", "--out", out]) == 0
    rows = parse_results_csv(out)
    assert rows and all(abs(r.value) < 1e-14 for r in rows)  # C(I/n || I/n) = 0
    assert main(argv) == 1
    assert "exponential-inner-product overflow" in capsys.readouterr().err


def test_cli_huge_exponential_inner_product_bandwidth_overflows(capsys):
    argv = ["mean-shift", "--kernel", "exponential-inner-product", "--sigma", "1e308"]
    assert main([*argv, "--n", "8"]) == 1
    assert "exponential-inner-product overflow" in capsys.readouterr().err


# Per property-suite config key: the file value and the argument it gives,
# then a flag and the argument the flag gives over the file.
PROPERTY_KEY_CASES = {
    "seed": (3, 3, ["--seed", "5"], 5),
    "sizes": ([4], (4,), ["--n", "8"], (8,)),
    "alpha_grid": ([0.5, 2], (0.5, 2), ["--alpha", "4"], (4.0,)),
    "n_seeds": (2, 2, ["--seeds", "1"], 1),
}


def test_property_keys_are_the_suite_parameters():
    params = set(inspect.signature(run_property_suite).parameters)
    assert set(_PROPERTY_KEYS) == params
    assert set(PROPERTY_KEY_CASES) == set(_PROPERTY_KEYS)


@pytest.mark.parametrize("key", sorted(PROPERTY_KEY_CASES))
def test_property_key_lands_on_its_parameter_and_flag_wins(key, tmp_path, monkeypatch):
    file_value, from_file, flag, from_flag = PROPERTY_KEY_CASES[key]
    monkeypatch.chdir(tmp_path)
    seen = []
    monkeypatch.setattr(
        "gramxent.cli.run_property_suite", lambda **kwargs: seen.append(kwargs) or []
    )
    write(tmp_path, "cfg.json", json.dumps({key: file_value}))
    assert main(["properties", "--config", "cfg.json", "--out", "out.json"]) == 0
    assert seen[-1][key] == from_file
    assert main(["properties", "--config", "cfg.json", "--out", "out.json", *flag]) == 0
    assert seen[-1][key] == from_flag


def test_property_config_leaves_unset_keys_at_the_suite_defaults(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(
        "gramxent.cli.run_property_suite", lambda **kwargs: seen.append(kwargs) or []
    )
    assert main(["properties", "--out", str(tmp_path / "out.json")]) == 0
    params = inspect.signature(run_property_suite).parameters
    assert seen == [{name: p.default for name, p in params.items()}]


def test_cli_properties_rejects_an_unknown_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "cfg.json", json.dumps({"n_seed": 1}))
    assert main(["properties", "--config", cfg]) == 1
    assert "unknown config keys: ['n_seed']" in capsys.readouterr().err
