"""The public surface: the export list and the order in which arguments are checked."""

import inspect
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import gramxent
from gramxent import ArgumentError, CrossGram, GramMatrix, Partition


def test_all_is_sorted_and_is_every_public_non_module_global():
    public = [
        name
        for name, value in vars(gramxent).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert gramxent.__all__ == sorted(public)
    assert "estimators" not in gramxent.__all__


def test_readme_python_examples_run():
    """The README's python blocks run in order in one namespace, with no
    RuntimeWarning."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for block in blocks:
            exec(block, namespace)
    assert np.isfinite(namespace["res"].value)


def test_the_library_runs_on_its_declared_dependency_alone(tmp_path):
    """numpy is the one declared dependency: with scipy, mpmath and hypothesis
    unimportable, gramxent imports and a convergence and a properties run
    exit 0."""
    code = f"""
import sys
for m in ("scipy", "mpmath", "hypothesis"):
    sys.modules[m] = None
import gramxent
from gramxent import cli
out = {str(tmp_path)!r}
runs = (
    ["convergence", "--n", "16", "--d", "2", "--alpha", "2", "--out", out + "/c.csv"],
    ["properties", "--seeds", "1", "--n", "4", "--out", out + "/p.json"],
)
raise SystemExit(max(cli.main(argv) for argv in runs))
"""
    src = str(Path(gramxent.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_star_import_binds_the_api_and_no_module():
    namespace = {}
    exec("from gramxent import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == gramxent.__all__
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


# Raw inputs for every matrix parameter of an order-taking function: they fail
# the bipartite unit-trace contract and the tripartite cross-Gram shape check.
RAW_ARGS = {
    "K": GramMatrix(np.eye(2)),
    "K1": GramMatrix(np.eye(2)),
    "K2": GramMatrix(np.eye(2)),
    "K12": CrossGram(np.eye(3)),
    "beta": 1.0,
}
ORDER_TAKERS = [
    name
    for name in gramxent.__all__
    if inspect.isfunction(getattr(gramxent, name))
    and "alpha" in inspect.signature(getattr(gramxent, name)).parameters
]


@pytest.mark.parametrize("name", ORDER_TAKERS)
def test_order_is_checked_before_the_matrices(name):
    fn = getattr(gramxent, name)
    args = {p: RAW_ARGS[p] for p in inspect.signature(fn).parameters if p in RAW_ARGS}
    with pytest.raises(ArgumentError, match="order must be a positive finite real"):
        fn(alpha=0.0, **args)


def test_every_order_taking_estimator_is_covered():
    assert set(ORDER_TAKERS) == {
        "conditional_entropy",
        "joint_entropy",
        "matrix_renyi_entropy",
        "mirrored_cross_entropy",
        "mirrored_cross_entropy_two_param",
        "mutual_information",
        "nonmirrored_cross_entropy",
        "tripartite_cross_entropy",
    }


# Every public function whose matrices must be GramMatrix instances. The
# spectral primitive sym_eig takes plain arrays too, by design.
GRAM_TAKERS = [
    "conditional_entropy",
    "hadamard_joint",
    "joint_entropy",
    "matrix_renyi_entropy",
    "mirrored_cross_entropy",
    "mirrored_cross_entropy_two_param",
    "mirrored_limit_umegaki",
    "mutual_information",
    "nonmirrored_cross_entropy",
    "normalize_trace",
    "pinch",
    "trace_distance_bounds",
    "tripartite_cross_entropy",
]
ARRAY_TAKERS = {"sym_eig"}
GRAM_PARAMS = {"G", "G1", "G2", "K", "K1", "K2"}


def _plain_array_args(fn):
    valid = {
        "alpha": 2.0,
        "beta": 2.0,
        "K12": CrossGram(np.eye(2)),
        "partition": Partition(((0,), (1,))),
    }
    return {
        p: np.eye(2) / 2 if p in GRAM_PARAMS else valid[p]
        for p in inspect.signature(fn).parameters
        if p in GRAM_PARAMS or p in valid
    }


@pytest.mark.parametrize("name", GRAM_TAKERS)
def test_a_plain_array_for_a_gram_is_an_argument_error(name):
    fn = getattr(gramxent, name)
    with pytest.raises(ArgumentError, match="must be a GramMatrix"):
        fn(**_plain_array_args(fn))


def test_every_gram_taking_function_is_covered():
    takers = {
        name
        for name in gramxent.__all__
        if inspect.isfunction(getattr(gramxent, name))
        and GRAM_PARAMS & set(inspect.signature(getattr(gramxent, name)).parameters)
    }
    assert takers == set(GRAM_TAKERS) | ARRAY_TAKERS
