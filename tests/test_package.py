"""The package namespace: every public name, loaded on first use."""

import importlib
import json
import os
import subprocess
import sys

import shsym

# the public names of the package, by the module that defines each
PUBLIC = {
    "harmonic": (
        "Decomposition HarmonicBasis basis_element decompose depth_ss dim_h harmonic_basis"
        " is_harmonic lambda_star_basis leading_term_check unusual_identity_check"
    ),
    "operators": (
        "commutator d_op d_op_n delta_lambda delta_n dualize_apply e_hat euler_op"
        " falling_factorial kelvin laplacian q2_hat"
    ),
    "partitions": (
        "FrobeniusCoords Partition c_set count_partitions enumerate_min_part"
        " enumerate_partitions format_partition frobenius parse_partition"
    ),
    "qseries": "QSeries d_series eisenstein partition_gf q_bracket",
    "quasimodular": (
        "QMForm RecognitionError InsufficientOrderError bracket_form d_hat depth expand"
        " format_qmform frak_d is_modular_bracket monomials_of_weight ramanujan_d recognize w_hat"
    ),
    "ssym": "Monomial ParseError SSPoly beta eval_at eval_qk format_poly parse_poly",
}


def _public():
    for module, names in PUBLIC.items():
        for name in names.split():
            yield name, getattr(importlib.import_module(f"shsym.{module}"), name)


def test_every_public_name_is_its_module_object():
    for name, obj in _public():
        scope = {}
        exec(f"from shsym import {name}", scope)
        assert scope[name] is obj, name
        assert getattr(shsym, name) is obj, name


def test_dir_and_star_import_list_every_public_name():
    # dir() in a fresh interpreter, before any name has been loaded
    script = "import json, shsym; print(json.dumps(dir(shsym)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shsym.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    listed = json.loads(proc.stdout)
    scope = {}
    exec("from shsym import *", scope)
    for name, obj in _public():
        assert name in listed, name
        assert scope[name] is obj, name
    assert scope["__version__"] == shsym.__version__


def test_unknown_name_is_an_attribute_error():
    import pytest

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        shsym.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from shsym import no_such_name", {})
