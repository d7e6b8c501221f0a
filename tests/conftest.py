"""Fixtures shared by the test modules."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_CAP = 1_500_000 * 1024        # bytes, as `ulimit -v 1500000`


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


@pytest.fixture
def capped_python():
    """Run a child Python with src on its path and its address space capped
    at 1.5 GB, so a check that a huge argument allocates nothing fails with
    a MemoryError instead of taking the machine's memory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=_cap_address_space)
    return run
