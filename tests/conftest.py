import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE_CAP = 512 << 20


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


@pytest.fixture
def run_capped():
    """Run `python *argv` with padd importable and a 512 MB address-space cap,
    so that a memory regression fails the test instead of exhausting the machine."""

    def run(*argv, timeout=120):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout,
            preexec_fn=_cap_address_space,
        )

    return run
