"""README: the library quick start runs and prints what its comments say."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def quick_start():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_quick_start_values(quick_start):
    assert quick_start["law"].cdf(1.0) == pytest.approx(0.41905978, rel=0, abs=5e-9)
    assert quick_start["gap"] < 1e-12
    assert quick_start["ks_one_sample"](quick_start["draws"], quick_start["law"]).passed
