"""The package's public functions are there for a run, not for the tests.

A function that only the tests call belongs next to them in conftest.py,
so each public function of the qsdsim namespace must be named by some
module that runs: another module of the package, a script or a bench
file.
"""
import inspect
import re
from pathlib import Path

import qsdsim

SRC = Path(qsdsim.__file__).resolve().parent
ROOT = SRC.parents[1]


def test_every_public_function_has_a_caller_outside_the_tests():
    # __init__.py only re-exports, so its names are not callers
    callers = {path: path.read_text() for path in
               [*SRC.glob("*.py"), *ROOT.glob("scripts/*.py"),
                *ROOT.glob("bench/*.py")] if path != SRC / "__init__.py"}
    unused = []
    for name, obj in sorted(vars(qsdsim).items()):
        if not inspect.isfunction(obj) or name.startswith("_"):
            continue
        home = SRC / f"{obj.__module__.rpartition('.')[2]}.py"
        word = re.compile(rf"\b{name}\b")
        if not any(word.search(text) for path, text in callers.items()
                   if path != home):
            unused.append(f"{obj.__module__}.{name}")
    assert not unused, ("public functions that no module outside the tests "
                        f"calls: {', '.join(unused)}")
