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
    Mutant("the worker adds before its turn", TRAIN,
           """                    conn.recv()  # the parent's turn: the frame before is added
                    _add(self.grads, part)
""", """                    _add(self.grads, part)
                    conn.recv()  # the parent's turn: the frame before is added
"""),
    Mutant("the parent adds before the worker's frame is in", TRAIN,
           """        if worker and i:
            worker.wait()  # the worker has added frame i - 1
        _add(grads, part)
""", """        _add(grads, part)
        if worker and i:
            worker.wait()  # the worker has added frame i - 1
"""),
    Mutant("no wait for the worker's last frame", TRAIN,
           """    if worker and len(keys) % 2 == 0:
        worker.wait()  # the last frame is the worker's
""", ""),
    Mutant("the sum not zeroed between steps", TRAIN,
           """        for arr in grads.values():
            arr.fill(0.0)
""", ""),
    Mutant("phase-2 gradients added last", TRAIN,
           """    _add(grads, g)
    if worker:
        worker.backprop([g.get(key) for key in keys[1::2]])
    for i in range(0, len(keys), 2 if worker else 1):
        key = keys[i]  # the loss may not depend on this frame
        # before the wait, so that the two processes compute at the same time
        part = _frame_gradients(model, store, frames[key], g[key]) if key in g else {}
        if worker and i:
            worker.wait()  # the worker has added frame i - 1
        _add(grads, part)
        if worker and i + 1 < len(keys):
            worker.turn()  # frame i + 1 may go in
    if worker and len(keys) % 2 == 0:
        worker.wait()  # the last frame is the worker's
    return grads, means
""", """    if worker:
        worker.backprop([g.get(key) for key in keys[1::2]])
    for i in range(0, len(keys), 2 if worker else 1):
        key = keys[i]  # the loss may not depend on this frame
        # before the wait, so that the two processes compute at the same time
        part = _frame_gradients(model, store, frames[key], g[key]) if key in g else {}
        if worker and i:
            worker.wait()  # the worker has added frame i - 1
        _add(grads, part)
        if worker and i + 1 < len(keys):
            worker.turn()  # frame i + 1 may go in
    if worker and len(keys) % 2 == 0:
        worker.wait()  # the last frame is the worker's
    _add(grads, g)
    return grads, means
""", equivalent="phase 2 reaches only temporal.* and phase 3 only the encoders, "
                "so the two parts never add into one sum"),
    Mutant("Adam rebinds a parameter instead of updating it in place",
           "src/fusionpose/params.py",
           "np.subtract(tensor.data, self.step_size * update, out=tensor.data)",
           "tensor.data = tensor.data - self.step_size * update"),
    Mutant("leaf gradients sent in reverse", TRAIN,
           "worker.backprop([g.get(key) for key in keys[1::2]])",
           "worker.backprop([g.get(key) for key in keys[1::2]][::-1])"),
    Mutant("worker's error lost when a send finds it gone", TRAIN,
           """            if self._conn.poll():  # the worker failed and said why before it ended
                self._recv()
""", ""),
    Mutant("a read that ends exactly at the end of the file is refused",
           "src/fusionpose/binfile.py",
           "if self.pos + size > len(self.blob):", "if self.pos + size >= len(self.blob):"),
    Mutant("consistency summed over frames, not averaged", "src/fusionpose/losses.py",
           "    return ad.scale(total, 1.0 / len(features))\n", "    return total\n"),
    Mutant("attention scaled by 1/d, not 1/sqrt(d)", "src/fusionpose/model.py",
           "self.scale = 1.0 / np.sqrt(d)", "self.scale = 1.0 / d"),
    Mutant("a negative second moment loads", TRAIN,
           """        if key.startswith("__opt__.v.") and (arr < 0).any():
            raise CheckpointMismatchError(f"{path}: {key} holds negative values")
""", ""),
    Mutant("a run's first cut at offset 1 when the draw is 0", TRAIN,
           "int(rng.integers(bs)) or bs,", "int(rng.integers(bs)) or 1,"),
    Mutant("a pair at exactly the IoU threshold refused", "src/fusionpose/association.py",
           "if iou[i, j] >= iou_threshold]", "if iou[i, j] > iou_threshold]",
           equivalent="an IoU of two boxes from different sensors is never exactly "
                      "the configured threshold"),
    Mutant("a cloud of exactly the point budget subsampled", "src/fusionpose/dataio.py",
           "len(cloud) > point_budget:", "len(cloud) >= point_budget:",
           equivalent="choosing all of a cloud's points without replacement and "
                      "sorting them gives the cloud back"),
    Mutant("an entry's values written before its header", "src/fusionpose/params.py",
           "chunks += [head, np.ascontiguousarray(arr, dtype=\"<f8\").reshape(-1).view(np.uint8)]",
           "chunks += [np.ascontiguousarray(arr, dtype=\"<f8\").reshape(-1).view(np.uint8), head]"),
    Mutant("a written file not flushed to disk", "src/fusionpose/binfile.py",
           "            os.fsync(fh.fileno())\n", "",
           equivalent="the bytes a process reads back are the same whether or not "
                      "they reached the disk; only a crash of the machine tells"),
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
