"""tools/mutants.py's own rules, in process, with no mutant run."""

import importlib.util
import pathlib
import re

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

ROW = mutants.Mutant("row", "maxdiv/x.py", "a = 1\n", "a = 2\n", ("tests/test_x.py::test_x", "tests/test_x.py::test_y[3]"))


@pytest.mark.parametrize("text", ["b = 1\n", "a = 1\nb = a\na = 1\n"], ids=["absent", "twice"])
def test_a_row_whose_old_text_is_not_there_once_is_stale(text):
    with pytest.raises(mutants.StaleRow, match="occurs [02] times"):
        mutants.apply(text, ROW)


def test_applying_a_row_changes_its_one_occurrence_only():
    assert mutants.apply("x = 0\na = 1\nb = a + 1\n", ROW) == "x = 0\na = 2\nb = a + 1\n"


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_row_applies_to_src_and_names_tests_that_exist(row):
    source = (mutants.ROOT / "src" / row.file).read_text()
    compile(mutants.apply(source, row), row.file, "exec")
    assert row.kills
    for test_id in row.kills:
        path, name = test_id.split("::")
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(", (mutants.ROOT / path).read_text(), re.M), test_id


def test_mutant_names_are_unique():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize(
    "code, failed, verdict",
    [
        (1, ["tests/test_x.py::test_x[1]", "tests/test_x.py::test_y[3]"], (True, "killed")),
        (1, ["tests/test_x.py::test_x", "tests/test_x.py::test_y[30]"], (False, "PARTLY tests/test_x.py::test_y[3]")),
        (0, [], (False, "SURVIVED")),
        (4, [], (False, "ERROR")),  # pytest could not run the ids
        (10, [], (False, "ERROR")),  # the copy did not import
    ],
    ids=["killed", "partly", "survived", "usage-error", "import-error"],
)
def test_a_mutant_is_killed_when_every_named_test_fails(code, failed, verdict):
    assert mutants.verdict(ROW, mutants.Run(code, failed, 1.0, "")) == verdict
