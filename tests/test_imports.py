"""Which modules a critickit process loads.

A command imports the modules it runs and no others, importing the package
loads none of them until a public name is read, and no module imports
``dataclasses``.  Every probe runs in a fresh interpreter, since this one
has loaded the whole package already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import critickit

SRC = str(Path(critickit.__file__).resolve().parents[1])
SEARCH_MODULES = {"covers", "listcoloring", "lemmas"}

PROBE = """
import json, sys
from critickit.cli import run_command
status, text = run_command({argv!r})
print(json.dumps({{"status": status, "text": text, "modules": sorted(sys.modules)}}))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _probe(argv: list[str]) -> dict:
    """``run_command(argv)`` in a fresh interpreter: its exit status, its
    output and the names of the modules loaded."""
    proc = _python("-c", PROBE.format(argv=argv))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _package_modules(modules: list[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("critickit.")}


# (argv, the search modules the command must not load)
COMMANDS = {
    "gen": (["gen", "--cycle", "5"], SEARCH_MODULES),
    "chi plain": (["chi", "plain", "--cycle", "5"], SEARCH_MODULES),
    "check critical": (["check", "critical", "--cycle", "5"], SEARCH_MODULES),
    "count colorings": (["count", "colorings", "-k", "3", "--cycle", "5"], SEARCH_MODULES),
    "count chromatic-poly": (["count", "chromatic-poly", "--cycle", "5"], SEARCH_MODULES),
    "usage: no graph source": (["chi", "plain"], SEARCH_MODULES),
    "usage: unknown command": (["frobnicate"], SEARCH_MODULES),
    "usage: missing -k": (["count", "colorings", "--cycle", "5"], SEARCH_MODULES),
    "check robust": (["check", "robust", "--cycle", "5"], {"listcoloring", "lemmas"}),
    "chi dp": (["chi", "dp", "--cycle", "5"], {"listcoloring", "lemmas"}),
    "count pdp": (["count", "pdp", "-k", "3", "--cycle", "5"], {"listcoloring", "lemmas"}),
    "count transversals": (
        ["count", "transversals", "-k", "3", "--cycle", "5"], {"listcoloring", "lemmas"}
    ),
    "check strong": (["check", "strong", "--cycle", "5"], {"covers", "lemmas"}),
    "chi list": (["chi", "list", "--cycle", "5"], {"covers", "lemmas"}),
    "lemma excess": (
        ["lemma", "excess", "--cycle", "5", "--sizes", "2,2,2,2,3"], {"listcoloring"}
    ),
    "lemma full-extension": (["lemma", "full-extension", "--cycle", "5"], {"listcoloring"}),
    "lemma pair": (
        ["lemma", "pair", "--ekab", "4", "2", "2", "-x", "0", "-y", "3"], {"listcoloring"}
    ),
    "lemma induction": (
        [
            "lemma", "induction", "--cycle", "5", "--clique", "1", "--join",
            "--independent-set", "5",
        ],
        {"listcoloring"},
    ),
    "lemma join": (["lemma", "join", "--cycle", "5", "-t", "1"], {"listcoloring"}),
}


@pytest.mark.parametrize("argv,unused", COMMANDS.values(), ids=list(COMMANDS))
def test_command_loads_only_what_it_runs(argv, unused):
    result = _probe(["--json", *argv])
    loaded = _package_modules(result["modules"])
    assert "dataclasses" not in result["modules"]
    assert "cli" in loaded
    assert loaded.isdisjoint(unused), sorted(loaded & unused)


@pytest.mark.parametrize("text", [None, '{"graph6": "A_", "k": 2,'], ids=["unreadable", "not JSON"])
def test_cover_input_errors_load_no_search_module(tmp_path, text):
    path = tmp_path / "cover.json"
    if text is not None:
        path.write_text(text)
    result = _probe(["--json", "count", "transversals", "--cover", str(path)])
    assert result["status"] == 64
    assert _package_modules(result["modules"]).isdisjoint(SEARCH_MODULES)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--cycle", "5", "--edgelist"],
        ["chi", "dp", "--cycle", "5"],
        ["check", "strong", "--cycle", "4"],
        ["count", "chromatic-poly", "--clique", "4"],
        ["lemma", "pair", "--cycle", "5", "-x", "0", "-y", "2"],
    ],
    ids=["gen", "chi", "check", "count", "lemma"],
)
def test_module_entry_point_matches_run_command(argv):
    expected = _probe(["--json", *argv])
    proc = _python("-m", "critickit.cli", "--json", *argv)
    assert (proc.returncode, proc.stdout) == (expected["status"], expected["text"])
    assert proc.stderr == ""


def test_package_loads_whole_api_on_first_use():
    code = (
        "import json, sys, critickit\n"
        "before = sorted(sys.modules)\n"
        "names = dir(critickit)\n"
        "critickit.cycle\n"
        "print(json.dumps([before, names, sorted(sys.modules), critickit._EXPORTS]))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    before, names, after, exports = json.loads(proc.stdout)
    assert _package_modules(before) == set()
    assert {name for listed in exports.values() for name in listed} <= set(names)
    assert _package_modules(after) >= set(exports)
    assert "dataclasses" not in after


def test_unknown_package_name_loads_nothing():
    code = (
        "import sys, critickit\n"
        "try:\n"
        "    critickit.no_such_name\n"
        "except AttributeError:\n"
        "    print(sorted(m for m in sys.modules if m.startswith('critickit')))\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['critickit']\n"
