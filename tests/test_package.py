"""The lazy package namespace, and the entry point that pins OpenBLAS to one thread."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demixeval

SRC = str(Path(demixeval.__file__).parents[1])


def _python(code: str, **env) -> str:
    """stdout of `python -c code` in a fresh process that imports this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    environ = dict(os.environ, PYTHONPATH=path, **env)
    result = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_loads_no_layer_and_no_numpy():
    code = (
        "import sys, demixeval; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('demixeval.')))"
    )
    assert _python(code) == "[]"


def test_every_export_resolves_and_is_listed():
    listed = dir(demixeval)
    for name in demixeval.__all__:
        value = getattr(demixeval, name)
        module = importlib.import_module(value.__module__)
        assert getattr(module, name) is value
        assert name in listed
    assert demixeval.__version__ == "0.1.0"


def test_comparison_family_has_one_entry_point():
    # each global MAE, MSE, SI-SDR and BSS Eval v3 value comes from metric_suite alone
    metrics = importlib.import_module("demixeval.metrics")
    for name in ("si_sdr", "bsseval_v3_sdr", "global_mae", "global_mse"):
        assert name not in demixeval.__all__
        assert not hasattr(metrics, name)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        demixeval.no_such_name


def test_from_import_still_imports_a_submodule():
    assert _python("from demixeval import cli; print(cli.__name__, callable(cli.run))") == "demixeval.cli True"


def test_entry_point_runs_openblas_on_one_thread():
    # numpy's OpenBLAS starts one thread per core, up to OPENBLAS_NUM_THREADS
    code = (
        "import os, sys; sys.argv = ['demixeval', '--help']\n"
        "from demixeval.__main__ import main\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as exit:\n"
        "    code = exit.code\n"
        "print(code, 'numpy' in sys.modules, len(os.listdir('/proc/self/task')))\n"
    )
    # the last line follows the --help text
    assert _python(code, OPENBLAS_NUM_THREADS="4").splitlines()[-1] == "0 True 1"


def test_importing_the_cli_leaves_the_environment_alone():
    code = (
        "import os; before = dict(os.environ)\n"
        "import demixeval, demixeval.cli, demixeval.__main__\n"
        "print(dict(os.environ) == before, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    assert _python(code, OPENBLAS_NUM_THREADS="3") == "True 3"


@pytest.mark.parametrize("command, unused", [("suite", ["analysis", "harness", "oracle"]),
                                             ("analyze", ["harness", "oracle"])])
def test_a_process_loads_only_its_commands_layers(tmp_path, command, unused):
    from demixeval.audio_io import Waveform, write_wav

    reference = tmp_path / "reference.wav"
    write_wav(Waveform(np.linspace(-0.5, 0.5, 4000).reshape(2, 2000), 1000), reference)
    table = tmp_path / "table.csv"
    table.write_text("system_id,song_id,stem,global_sdr\ns,a,bass,1\ns,b,bass,2\n")
    argv = {"suite": ["--reference", str(reference), "--estimate", str(reference)],
            "analyze": ["--table", str(table), "--kind", "spearman"]}[command]
    code = (
        f"import sys; sys.argv = ['demixeval', {command!r}, *{argv!r}]\n"
        "from demixeval.__main__ import main\n"
        "try:\n"
        "    main()\n"
        "except SystemExit as exit:\n"
        "    code = exit.code\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('demixeval.')))\n"
    )
    loaded = _python(code).splitlines()[-1].split()
    assert loaded[0] == "0"
    assert not {f"demixeval.{layer}" for layer in unused} & set(loaded)
    assert f"demixeval.{'analysis' if command == 'analyze' else 'metrics'}" in loaded
