"""tools/golden.py --compare: which differences between two golden listings
fail, given the rows a change lists as altered on purpose."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

HEADER = "# numpy 2.4.6  dispatch: X86_V3 X86_V4"
ROWS = {
    "maxdiv sample --n 20000 --seed 7": "3f" * 32,
    "maxdiv ar1 --p 0.5 --check --seed 5": "a0" * 32,
    "python -c: ar1_ensemble draws": "5c" * 32,
}
LABEL = "maxdiv sample --n 20000 --seed 7"


def listing(rows=ROWS, header=HEADER, exit_code=None):
    lines = [header] + [f"{digest}  {label}" for label, digest in rows.items()]
    if exit_code is not None:
        lines[2] += f"  (exit {exit_code})"
    return "\n".join(lines) + "\n"


def one_digit_changed(label=LABEL):
    digest = ROWS[label]
    return listing(dict(ROWS, **{label: digest[:-1] + ("0" if digest[-1] != "0" else "1")}))


def test_identical_listings_pass():
    assert golden.compare(listing(), listing(), "") == ([], [])


def test_an_unlisted_one_digit_change_fails():
    failures, _ = golden.compare(listing(), one_digit_changed(), "# nothing listed\n")
    assert failures == [f"changed, not listed in golden_changes.txt: {LABEL}"]


def test_a_listed_change_passes():
    failures, notes = golden.compare(listing(), one_digit_changed(), f"{LABEL} | the draws' last bit moved\n")
    assert failures == []
    assert notes == [f"changed, accepted (the draws' last bit moved): {LABEL}"]


def test_a_listed_row_that_did_not_change_fails():
    failures, _ = golden.compare(listing(), listing(), f"{LABEL} | expected to change\n")
    assert failures == [f"listed in golden_changes.txt but unchanged: {LABEL}"]


def test_a_changed_exit_mark_or_a_dropped_row_is_a_change():
    assert golden.compare(listing(exit_code=1), listing(), "")[0]
    dropped = listing({label: d for label, d in ROWS.items() if label != LABEL})
    assert golden.compare(listing(), dropped, "")[0] == [f"dropped, not listed in golden_changes.txt: {LABEL}"]
    # a new row has nothing to compare against
    added = listing(dict(ROWS, **{"maxdiv table": "77" * 32}))
    assert golden.compare(listing(), added, "") == ([], ["new: maxdiv table"])


def test_listings_of_different_builds_are_not_compared():
    failures, _ = golden.compare(listing(), listing(header="# numpy 2.4.6  dispatch: X86_V3"), "")
    assert len(failures) == 1 and "different builds" in failures[0]


def test_an_entry_without_a_reason_is_rejected():
    with pytest.raises(ValueError, match="label | reason"):
        golden.compare(listing(), one_digit_changed(), f"{LABEL}\n")


def test_the_command_exits_1_on_a_failure(tmp_path):
    base, head, changes = tmp_path / "base.txt", tmp_path / "head.txt", tmp_path / "changes.txt"
    base.write_text(listing())
    head.write_text(one_digit_changed())
    for text, code in (("", 1), (f"{LABEL} | the draws' last bit moved\n", 0)):
        changes.write_text(text)
        argv = [sys.executable, str(TOOL), "--compare", str(base), str(head), "--changes", str(changes)]
        run = subprocess.run(argv, capture_output=True, text=True)
        assert run.returncode == code, run.stdout + run.stderr
