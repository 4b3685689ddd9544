import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        action="store",
        type=int,
        default=20260819,
        help="base seed for randomized tests",
    )


@pytest.fixture
def seed(request) -> int:
    return request.config.getoption("--seed")


@pytest.fixture
def make_rng(seed):
    """Factory for independent, reproducible RNG streams.

    Each call site passes its own salt so adding a test never reshuffles
    the draws of another.
    """

    def factory(salt: int = 0) -> random.Random:
        return random.Random(seed * 2654435761 + salt)

    return factory


@pytest.fixture
def run_optimized():
    """Run a code snippet under ``python -O``, where asserts are stripped,
    so a test can show that an audit still raises there."""

    def runner(body: str) -> subprocess.CompletedProcess:
        code = "import sys\nassert not __debug__ and sys.flags.optimize\n" + textwrap.dedent(body)
        return subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env={"PYTHONPATH": SRC}, timeout=60)

    return runner
