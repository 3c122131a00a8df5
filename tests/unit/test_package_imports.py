"""Start-up: ``import repro`` leaves the service layer unloaded until used."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _run(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_repro_loads_no_service_module():
    script = (
        "import sys\n"
        "import repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))\n"
        "print(repro.CompileEngine.__module__)\n"
    )
    completed = _run("-c", script)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split("\n")[:2] == ["[]", "repro.service.engine"]


def test_http_module_runs_without_a_runtime_warning():
    completed = _run("-W", "error::RuntimeWarning", "-m", "repro.service.http", "--help")
    assert completed.returncode == 0, completed.stderr
    assert "--max-pending" in completed.stdout


def test_service_http_imports_no_asyncio():
    script = (
        "import sys\n"
        "import repro.service.http\n"
        "print('asyncio' in sys.modules)\n"
    )
    completed = _run("-c", script)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


@pytest.mark.parametrize(
    "module", ["repro.service", "repro.service.engine", "repro.service.verify"]
)
def test_engine_and_verify_modules_import_no_asyncio(module):
    completed = _run("-c", f"import sys, {module}; print('asyncio' in sys.modules)")
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
