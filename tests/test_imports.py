"""Import cost: `import maxdiv` and the CLI load a layer only when it runs.

Each case starts a fresh interpreter, since this one has loaded the
package already.  `-X importtime` lists every module the run imported.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import maxdiv
from maxdiv import Family, LawKind, cli

LAYERS = ("algebra", "ar1", "exponents", "extremal", "ksstats", "laws", "rng", "verify")
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maxdiv.__file__)))
verify_module = importlib.import_module("maxdiv.verify")  # maxdiv.verify is the function


def _python(*args, env=ENV):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _imported(run) -> set[str]:
    return {line.rpartition("|")[2].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize(
    "args, code",
    [
        (["-c", "import maxdiv"], 0),
        (["-c", "import maxdiv.cli"], 0),
        (["-m", "maxdiv.cli", "--help"], 0),
        (["-m", "maxdiv.cli", "ar1", "--help"], 0),
        (["-m", "maxdiv.cli", "table", "--kind", "cauchy"], 2),
        (["-m", "maxdiv.cli", "ep", "--path", "--compound", "gamma"], 2),
    ],
    ids=["import", "import-cli", "help", "command-help", "bad-choice", "both-modes"],
)
def test_help_and_usage_errors_load_no_layer_and_no_numpy(args, code):
    run = _python("-X", "importtime", *args)
    assert run.returncode == code, run.stderr
    imported = _imported(run)
    assert "maxdiv" in imported
    assert "numpy" not in imported
    assert not imported & {f"maxdiv.{layer}" for layer in LAYERS}


def test_shell_completion_loads_no_numpy():
    env = dict(ENV, _MAXDIV_COMPLETE="bash_complete", COMP_WORDS="maxdiv ta", COMP_CWORD="1")
    run = _python("-X", "importtime", "-c", "from maxdiv.cli import main; main(prog_name='maxdiv')", env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["plain,table"]
    assert "numpy" not in _imported(run)


def test_a_command_loads_only_its_layers():
    run = _python("-X", "importtime", "-m", "maxdiv.cli", "table", "--grid", "1:2:2")
    assert run.returncode == 0, run.stderr
    assert {f"maxdiv.{layer}" for layer in LAYERS} & _imported(run) == {"maxdiv.exponents", "maxdiv.laws", "maxdiv.rng"}


@pytest.mark.parametrize("load", ["import maxdiv.verify", "importlib.import_module('maxdiv.verify')"])
def test_verify_is_the_function_when_its_module_loads_first(load):
    code = f"import importlib, sys\n{load}\nimport maxdiv\nprint(maxdiv.verify is sys.modules['maxdiv.verify'].verify)"
    run = _python("-c", code)
    assert run.stdout == "True\n", run.stderr


def test_star_import_binds_the_public_names():
    code = """
import importlib, json
namespace = {}
exec("from maxdiv import *", namespace)
layers = [importlib.import_module(f"maxdiv.{layer}") for layer in %r]
same = all(namespace[name] is getattr(layer, name) for layer in layers for name in layer.__all__)
print(json.dumps([sorted(set(namespace) - {"__builtins__"}), same]))
""" % (LAYERS,)
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    bound, same = json.loads(run.stdout)
    assert bound == maxdiv.__all__
    assert len(bound) == 52
    assert same


def test_dir_lists_the_public_names():
    run = _python("-c", "import json, maxdiv; print(json.dumps(dir(maxdiv)))")
    assert run.returncode == 0, run.stderr
    assert set(maxdiv.__all__) <= set(json.loads(run.stdout))


def test_cli_literals_are_the_library_values():
    assert cli._KINDS == tuple(kind.value for kind in LawKind)
    assert cli._FAMILIES == tuple(family.value for family in Family)
    assert cli.AR1_CHECK_CHAINS == verify_module.MC_SIZE
    assert cli.AR1_CHECK_LAG == verify_module.AR1_LAG
