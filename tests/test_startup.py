"""Start-up: ``import ppclab`` loads nothing, and the CLI starts numpy's OpenBLAS single-threaded.

The package resolves its public names lazily from one table, so every
start-up case runs in a fresh child interpreter, where nothing is loaded
yet.  The guard tests check that table in process: a lazy name with a typo
would otherwise fail only at its first use.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ppclab
from ppclab import cli

ROOT = Path(__file__).resolve().parents[1]


def child(*argv: str, **env: str | None) -> str:
    """The stdout of ``python argv`` in a fresh interpreter that imports ppclab from ``src``.

    Each keyword sets that environment variable, or with None removes it.
    The child must exit 0 and write nothing to stderr.
    """
    environ = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key, value in env.items():
        environ.pop(key, None)
        if value is not None:
            environ[key] = value
    done = subprocess.run([sys.executable, *argv], env=environ, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout


def test_import_ppclab_loads_no_submodule_and_no_numpy():
    code = "import sys, ppclab; print(sorted(m for m in sys.modules if m.partition('.')[0] in ('numpy', 'ppclab')))"
    assert child("-c", code).split() == ["['ppclab']"]


THREADS = """
import os, sys
{before}
import ppclab.cli
status = open("/proc/self/status").read() if sys.platform.startswith("linux") else ""
threads = [line.split()[1] for line in status.splitlines() if line.startswith("Threads:")]
print(os.environ.get("OPENBLAS_NUM_THREADS"), threads[0] if threads else None)
"""


def test_the_cli_starts_openblas_single_threaded():
    value, threads = child("-c", THREADS.format(before=""), OPENBLAS_NUM_THREADS=None).split()
    assert value == "1"
    if sys.platform.startswith("linux"):
        assert threads == "1"


def test_a_preset_thread_count_wins():
    assert child("-c", THREADS.format(before=""), OPENBLAS_NUM_THREADS="2").split()[0] == "2"


def test_a_process_that_loaded_numpy_first_is_left_as_it_is():
    assert child("-c", THREADS.format(before="import numpy"), OPENBLAS_NUM_THREADS=None).split()[0] == "None"


def test_python_m_ppclab_cli_prints_what_main_prints(capsys):
    argv = ["verify", "lemma512", "--lmax", "30"]
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    assert child("-m", "ppclab.cli", *argv) == expected
    assert json.loads(expected)["checked"] == 40920


def traced_names() -> list[str]:
    """``TRACED`` of ``bench/replay.py``, read without running that script."""
    tree = ast.parse((ROOT / "bench" / "replay.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("bench/replay.py defines no TRACED")


REPLAY = """
import sys
import ppclab.cli
import ppclab
for name in sys.argv[1:]:
    fn = getattr(ppclab, name, None)
    if fn is None:
        print(name, None)
    else:
        print(name, fn.__module__, callable(fn) and getattr(sys.modules[fn.__module__], name) is fn)
"""


def test_the_bench_replay_finds_each_traced_function_on_the_package():
    names = traced_names()
    assert "main" in names and len(names) > 1
    found = dict(line.split(" ", 1) for line in child("-c", REPLAY, *names).splitlines())
    for name in names:
        if name == "main":
            assert found[name] == "None"  # the replay wraps ppclab.cli.main, not a package name
        else:
            assert found[name] == f"ppclab.{ppclab._MODULE[name]} True", name


@pytest.mark.parametrize("name", sorted(ppclab._MODULE))
def test_each_lazy_name_is_its_submodules_object(name):
    module = importlib.import_module(f"ppclab.{ppclab._MODULE[name]}")
    assert getattr(ppclab, name) is getattr(module, name)


def test_dir_all_and_import_star_agree_with_the_table():
    assert len(set(ppclab.__all__)) == len(ppclab.__all__)
    assert set(ppclab.__all__) == {"__version__", *ppclab._MODULE}
    assert dir(ppclab) == sorted(ppclab.__all__)
    namespace = {}
    exec("from ppclab import *", namespace)
    for name in ppclab.__all__:
        assert namespace[name] is getattr(ppclab, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=re.escape("module 'ppclab' has no attribute 'pair_corelation'")):
        ppclab.pair_corelation
    with pytest.raises(ImportError):
        exec("from ppclab import no_such_name", {})
    from ppclab import sequences

    assert sequences is sys.modules["ppclab.sequences"]
