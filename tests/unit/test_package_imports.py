"""Start-up: ``import repro`` leaves the service layer unloaded until used."""

import os
import subprocess
import sys
from pathlib import Path

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
