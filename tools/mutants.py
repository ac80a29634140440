"""Run the fast test suite against a fixed list of mutants and list the survivors.

    python3 tools/mutants.py

Each mutant replaces one piece of text (``old``, which must occur exactly
once) in one file of this checkout with another (``new``). For each, the
checkout's ``src``, ``tests`` and ``configs`` and its ``pyproject.toml``
are copied into a fresh temporary directory, the edit is made there, and
the fast suite runs on the copy with ``-x``: every test under ``tests``
except the acceptance, digests, bench_json and mutants tests (perfbench's
own tests live outside ``tests``). A mutant whose suite passes survived.
A suite that runs past ``TIMEOUT_S`` counts as a kill (a mutant may
deadlock the worker protocol) and says so. The checkout itself is never
written. The output is one line per mutant, ``killed`` with the first
failing test or ``SURVIVED``, and the exit status is 1 if any survived
that is not marked ``equivalent``. Standard library only.

A mutant marked ``equivalent`` cannot change any output of the code as it
is, for the reason given; it stays on the list so that its kill, once a
change makes the reason false, shows that the tests see the difference.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

COPIED = ("src", "tests", "configs", "pyproject.toml")
SKIPPED_TESTS = ("test_acceptance.py", "test_digests.py", "test_bench_json.py",
                 "test_mutants.py")
TIMEOUT_S = 600  # one suite run takes about 20 s


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    equivalent: str = ""  # why no test can tell it apart, if none can


TRAIN = "src/fusionpose/train.py"

MUTANTS = (
    Mutant("worker frame added after the next parent frame", TRAIN,
           """    for i, key in enumerate(keys):
        if key not in g:
            continue  # the loss does not depend on this frame
        if worker and i % 2:
            _add(grads, worker.gradients())
            worker.release()
        else:
            _add(grads, _frame_gradients(model, store, frames[key], g[key]))
""", """    late = None
    for i, key in enumerate(keys):
        if key not in g:
            continue  # the loss does not depend on this frame
        if worker and i % 2:
            late = worker.gradients()
        else:
            _add(grads, _frame_gradients(model, store, frames[key], g[key]))
            if late is not None:
                _add(grads, late)
                worker.release()
                late = None
    if late is not None:
        _add(grads, late)
        worker.release()
"""),
    Mutant("slot released before it is added", TRAIN,
           """            _add(grads, worker.gradients())
            worker.release()
""", """            part = worker.gradients()
            worker.release()
            _add(grads, part)
"""),
    Mutant("phase-2 gradients added last", TRAIN,
           """    _add(grads, g)
    if worker:
        worker.backprop([g.get(key) for key in keys[1::2]])
    for i, key in enumerate(keys):
        if key not in g:
            continue  # the loss does not depend on this frame
        if worker and i % 2:
            _add(grads, worker.gradients())
            worker.release()
        else:
            _add(grads, _frame_gradients(model, store, frames[key], g[key]))
    return grads, means
""", """    if worker:
        worker.backprop([g.get(key) for key in keys[1::2]])
    for i, key in enumerate(keys):
        if key not in g:
            continue  # the loss does not depend on this frame
        if worker and i % 2:
            _add(grads, worker.gradients())
            worker.release()
        else:
            _add(grads, _frame_gradients(model, store, frames[key], g[key]))
    _add(grads, g)
    return grads, means
""", equivalent="phase 2 reaches only temporal.* and phase 3 only the encoders, "
                "so the two parts never add into one sum"),
    Mutant("one slot for every worker frame", TRAIN,
           "        return self.slots[n % 2]\n", "        return self.slots[0]\n"),
    Mutant("parameters not copied before a step", TRAIN,
           """        for path, tensor in store.items():
            np.copyto(self.params[path], tensor.data)
""", ""),
    Mutant("leaf gradients sent in reverse", TRAIN,
           "worker.backprop([g.get(key) for key in keys[1::2]])",
           "worker.backprop([g.get(key) for key in keys[1::2]][::-1])"),
    Mutant("worker's error lost when a send finds it gone", TRAIN,
           """            if self._conn.poll():  # the worker failed and said why before it ended
                self._recv()
""", ""),
)


def fast_suite(tree: Path) -> list[str]:
    """The pytest command of the fast suite in ``tree``."""
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            str(tree / "tests"),
            *(f"--ignore={tree / 'tests' / name}" for name in SKIPPED_TESTS)]


def apply(mutant: Mutant, tree: Path) -> None:
    path = tree / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"mutants: error: {mutant.name!r}: the text to replace occurs "
                         f"{text.count(mutant.old)} times in {mutant.file}, not once")
    path.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str:
    """``killed by <test>``, ``killed by timeout`` or ``SURVIVED``."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", "data", "checkpoints", "reports"))
            else:
                shutil.copy2(source, tree / name)
        apply(mutant, tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(fast_suite(tree), cwd=tree, env=env, timeout=TIMEOUT_S,
                                  capture_output=True, text=True)
        except subprocess.TimeoutExpired:
            return "killed by timeout"
    if done.returncode == 0:
        return "SURVIVED"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.MULTILINE)
    return f"killed by {failed.group(1) if failed else f'exit status {done.returncode}'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    survivors = []
    for mutant in MUTANTS:
        outcome = run(mutant)
        if outcome == "SURVIVED":
            survivors.append(mutant)
        note = f" (equivalent: {mutant.equivalent})" if mutant.equivalent else ""
        print(f"{mutant.file}: {mutant.name}: {outcome}{note}", flush=True)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    return 1 if any(not m.equivalent for m in survivors) else 0


if __name__ == "__main__":
    sys.exit(main())
