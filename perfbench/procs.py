"""Run demixeval CLI processes and account for their wall time, CPU and memory."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 150.0


@dataclass
class Outcome:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float  # user + system, the process and every child it waited for
    maxrss_mb: float  # largest resident set of the process or any waited child

    def problems(self) -> list:
        found = []
        if self.returncode != 0:
            found.append(f"exit code {self.returncode}")
        if "Traceback (most recent call last)" in self.stderr:
            found.append("traceback on stderr")
        return found


def cli_env(checkout: Path) -> dict:
    env = dict(os.environ)
    src = str(checkout / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(argv: list, env: dict, logs: Path) -> Outcome:
    """Run `argv` to completion; stdout and stderr go through files in `logs`.

    os.wait4 reaps the process itself, so its rusage covers exactly this
    process and the pool workers it joined.
    """
    out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        # own process group, so a timeout kills pool workers along with the parent
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, start_new_session=True)
        killer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the process and its workers down first
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        returncode=proc.returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
    )


def demixeval(args: list, env: dict, logs: Path) -> Outcome:
    return run([sys.executable, "-m", "demixeval", *args], env, logs)
