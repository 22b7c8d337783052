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


def test_readme_library_snippet_shows_its_values():
    # The snippet runs one statement at a time.  A comment with a digit in
    # it shows the value of its statement's last target, after an optional
    # "label: "; a decomposition shows as the tuple of its slots.
    import ast
    import re

    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        code = fh.read().split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = code.splitlines()
    body = ast.parse(code).body
    scope = {}
    shown = 0
    for stmt, nxt in zip(body, body[1:] + [None]):
        exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
        span = lines[stmt.lineno - 1 : nxt.lineno - 1 if nxt else len(lines)]
        comment = " ".join(line.split("#", 1)[1].strip() for line in span if "#" in line)
        if not re.search(r"\d", comment):
            continue
        target = stmt.targets[0]
        value = scope[(target.elts[-1] if isinstance(target, ast.Tuple) else target).id]
        if isinstance(value, shsym.Decomposition):
            text = "(" + ", ".join(map(str, value.components)) + ")"
        else:
            text = str(value)
        assert text == comment.rsplit(": ", 1)[-1], stmt.lineno
        shown += 1
    assert shown == 4


def test_every_source_file_parses_at_the_declared_python_floor():
    # pyproject.toml declares the oldest Python the package supports; a file
    # that only a newer grammar accepts fails here on any interpreter
    import ast
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', (root / "pyproject.toml").read_text(), re.M)
    assert floor
    files = sorted(path for top in ("src", "tests", "perfbench") for path in (root / top).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor[1])))
