"""Command-line front end.

One subcommand per experiment plus ``properties`` for the invariant suite.
An experiment's settings are the ExperimentConfig fields and the suite's are
the parameters of run_property_suite: each flag or config key is copied onto
its field or parameter as is, a flag over the config file over the default.
Exit codes: 0 success (``--help`` too), 1 any error (a usage error too), 2
a property of the suite failed (its report is still written).
"""

import argparse
import dataclasses
import functools
import inspect
import json
import sys
import typing

from .errors import ArgumentError, GramxentError, ParseError
from .experiments import (
    OUTPUT_FORMATS,
    RUNNERS,
    ExperimentConfig,
    _write_text,
    default_config,
    emit_results,
)
from .kernels import FAMILIES
from .verification import run_property_suite

# Config-file keys and their types: an experiment takes every ExperimentConfig
# field but its name; flag dests carry the same names.
_EXPERIMENT_KEYS = {
    f.name: f.type for f in dataclasses.fields(ExperimentConfig) if f.name != "experiment"
}
# The property suite's keys, types and defaults are its parameters.
_SUITE = inspect.signature(run_property_suite)
_PROPERTY_KEYS = {name: p.annotation for name, p in _SUITE.parameters.items()}


def _fits(value, kind):
    """Whether a JSON value has the type a config key is annotated with."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    kinds = typing.get_args(kind) or (kind,)
    if float in kinds:
        kinds += (int,)
    return isinstance(value, kinds) and not isinstance(value, bool)


def _load_config_file(path, known):
    """The JSON object in path; every key must be in known, a mapping from
    key to type, and every value of that type."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg) from None
    if not isinstance(data, dict):
        raise ArgumentError(f"{path}: config must be a JSON object")
    unknown = set(data) - set(known)
    if unknown:
        raise ArgumentError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        kind = known[key]
        if not _fits(value, kind):
            name = kind.__name__ if isinstance(kind, type) else kind
            raise ArgumentError(f"config key {key!r} must be {name}, got {value!r}")
    return data


def _settings(args, known):
    """Flag values over config-file values for the keys in known, each grid a
    tuple of its annotated item type; a key set by neither is left out."""
    values = _load_config_file(args.config, known) if args.config else {}
    for key in known:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        if isinstance(values.get(key), list):
            values[key] = tuple(map(typing.get_args(known[key])[0], values[key]))
    return values


def _run_experiment(experiment, args):
    config = default_config(experiment, **_settings(args, _EXPERIMENT_KEYS))
    rows = RUNNERS[experiment](config)
    emit_results(rows, config.output_path, config.out_format)
    return 0


def _run_properties(args):
    call = _SUITE.bind(**_settings(args, _PROPERTY_KEYS))
    call.apply_defaults()
    reports = run_property_suite(**call.arguments)
    # the report restates the resolved settings, in the suite's parameter order
    payload = {
        **call.arguments,
        "passed": all(r.passed for r in reports),
        "properties": [dataclasses.asdict(r) for r in reports],
    }
    _write_text(json.dumps(payload, indent=1) + "\n", args.output_path)
    return 0 if payload["passed"] else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gramxent",
        description="Matrix-based cross-entropy experiments and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags every subcommand takes, declared once
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--alpha", dest="alpha_grid", metavar="ALPHA", type=float, action="append")
    shared.add_argument("--seed", type=int, default=None)
    shared.add_argument(
        "--out", dest="output_path", metavar="OUT", help="output path (default: stdout)"
    )
    shared.add_argument("--config", default=None, help="JSON config file; flags override")
    # the experiment flags, declared once and copied into each experiment
    flags = argparse.ArgumentParser(add_help=False, parents=[shared])
    flags.add_argument("--kernel", choices=FAMILIES, default=None)
    flags.add_argument("--sigma", type=float, default=None, help="kernel bandwidth")
    flags.add_argument("--n", dest="n_grid", metavar="N", type=int, action="append")
    flags.add_argument("--d", dest="d_grid", metavar="D", type=int, action="append")
    flags.add_argument("--shift", dest="shift_grid", metavar="SHIFT", type=float, action="append")
    flags.add_argument("--scale", dest="scale_grid", metavar="SCALE", type=float, action="append")
    flags.add_argument("--format", dest="out_format", choices=OUTPUT_FORMATS)
    for name in RUNNERS:
        sub.add_parser(name, parents=[flags], help=f"run the {name} experiment")
    p = sub.add_parser("properties", parents=[shared], help="run the invariant suite")
    p.add_argument(
        "--n", dest="sizes", metavar="N", type=int, action="append", help="matrix sizes"
    )
    p.add_argument(
        "--seeds", dest="n_seeds", metavar="SEEDS", type=int, help="instances per size"
    )
    return parser


@functools.cache
def _parser():
    """The parser, built on the first main() call rather than at import; a
    parse leaves it unchanged, so every later call in the process reuses it."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is the suite's
        return 1 if exc.code else 0
    try:
        if args.command == "properties":
            return _run_properties(args)
        return _run_experiment(args.command, args)
    except (GramxentError, OSError, ValueError) as exc:
        print(f"gramxent: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
