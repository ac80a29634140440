import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_text_that_occurs_once(mutant):
    text = (ROOT / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_the_fast_suite_leaves_out_the_slow_tests_and_this_one(tmp_path):
    command = mutants.fast_suite(tmp_path)
    assert command[command.index("pytest") + 1] == "-x"
    ignored = {arg.split("=", 1)[1] for arg in command if arg.startswith("--ignore=")}
    assert ignored == {str(tmp_path / "tests" / name) for name in
                       ("test_acceptance.py", "test_digests.py", "test_bench_json.py",
                        "test_mutants.py")}
