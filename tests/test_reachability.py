"""What ships is what runs: every function under src/grflop is reached by
verify-all or a leaf command, save an allowlist whose entries say why."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import grflop
from helpers import command_argvs

PACKAGE = Path(grflop.__file__).resolve().parent

# "module:qualname" -> why no command reaches it.
ALLOWED = {
    "homog:Cohomology.__repr__": "a debugging aid: no command prints a repr",
    "homog:HomogeneousBundle.__repr__": "a debugging aid: no command prints a repr",
    "homog:HomogeneousBundle.dual": "the bundle-object reference of the tests (Serre "
                                    "duality, ext_groups' oracle); ext_groups and the "
                                    "live rows work on weights",
    "homog:HomogeneousBundle.tensor": "the same reference; perfbench/layers.py traces it "
                                      "by name (homog.HomogeneousBundle.tensor.calls)",
    "value:Value.__repr__": "a debugging aid: no command prints a repr",
    "value:Value.__setattr__": "immutability guard: only a caller that assigns a field runs it",
    "value:Value.__delattr__": "immutability guard: only a caller that deletes a field runs it",
    "value:Value.__reduce__": "the immutability guards' counterpart, for pickle, which "
                              "cannot restore fields through __setattr__; no command pickles",
}

# Profiles the import and one run of each argv, in one fresh process (so no
# memo of an earlier test hides a call), and prints the (file, first line) of
# every code object that was entered.
_PROFILE = """
import io, json, sys
reached = set()

def profile(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import grflop.cli
sys.stdout = io.StringIO()
for argv in json.loads(sys.argv[1]):
    grflop.cli.main(argv)
sys.setprofile(None)
sys.__stdout__.write(json.dumps(sorted(reached)))
"""


def _defined() -> dict:
    """(file, first line) -> "module:qualname" for every function defined in
    the package, nested ones included; a decorated function's code starts at
    its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for file in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(file.read_text()), str(file), f"{file.stem}:")
    return out


def test_every_function_is_reached(tmp_path):
    src = str(PACKAGE.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _PROFILE, json.dumps(command_argvs(tmp_path))],
                         env=dict(os.environ, PYTHONPATH=pythonpath), check=True,
                         capture_output=True, text=True, timeout=300).stdout
    reached = {(str(Path(f).resolve()), line) for f, line in json.loads(out)}
    defined = _defined()
    assert len(defined) > 150
    unreached = sorted(name for key, name in defined.items() if key not in reached)
    assert [name for name in unreached if name not in ALLOWED] == []
    # An allowlist entry that a command does reach, or that names nothing, goes.
    assert sorted(ALLOWED) == unreached
