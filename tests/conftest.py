import numpy as np
import pytest

from spiralvis import SequenceSpec


@pytest.fixture(scope="session")
def golden():
    return SequenceSpec("golden-angle")


@pytest.fixture(scope="session")
def ladder():
    return SequenceSpec("rational-ladder")


@pytest.fixture(scope="session")
def constant_seq():
    return SequenceSpec("constant", d=1, v=np.array([1.0, 0.0]))


@pytest.fixture(scope="session")
def fib_sphere():
    return SequenceSpec("fibonacci-sphere", d=2)


def assert_same(got: str, want: str) -> None:
    """Equal texts; else fail naming the first differing line (a full diff of
    a thousand-row payload takes pytest minutes)."""
    if got != want:
        got_lines, want_lines = got.split("\n"), want.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
                 min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {i + 1}: wrote {got_lines[i:i + 1]}, want {want_lines[i:i + 1]}")
