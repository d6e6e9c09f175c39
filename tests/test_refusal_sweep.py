"""Every rejected input ends in one error line: a sweep of single-leaf edits.

Each leaf of the synthetic manifest (for plan and validate), of a `score
--out` document (for rank) and of a metric table's header and first row (for
analyze) is set in turn to each of a fixed list of odd values, and each byte
of a short WAVE file's header to a few values (for suite). Each case runs
through cli.run with stdout and stderr taken as strict UTF-8, so text that
cannot be printed fails the case. A case passes if it exits 0, or prints
exactly one `error:` line and exits 1 with stdout empty where its command
prints nothing before its inputs are read. validate may also exit 1 on a
FAIL row.
"""

import contextlib
import csv
import io
import json
import math

import pytest

from demixeval.cli import run
from demixeval.synth import make_dataset

ODD_VALUES = [True, None, "", "\ud800", math.nan, 10**400, [[1]], -1, 0.5, {}, "../escape", "line\nbreak"]


def _leaves(node, keys=()):
    """The key paths of every leaf of a JSON document; an empty list or object counts as a leaf."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    found = [path for key, child in children for path in _leaves(child, (*keys, key))]
    return found or [keys]


def _edited(doc, keys, value):
    """A copy of doc with the leaf at keys set to value."""
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return copy


def _run(args):
    """(exit code, stdout, stderr) of cli.run, with both streams strict UTF-8."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    texts = []
    for stream in (out, err):
        stream.flush()
        texts.append(stream.buffer.getvalue().decode("utf-8"))
    return (code, *texts)


def _broken(args):
    """None if the case keeps the contract, else a line saying how it breaks it."""
    try:
        code, out, err = _run(args)
    except Exception as exc:  # a traceback is what the sweep looks for
        return f"{args}: raised {type(exc).__name__}: {exc}"
    if code == 0 or (args[0] == "validate" and code == 1 and not err and ",FAIL," in out):
        return None
    if code != 1 or not err.startswith("error: ") or err.count("\n") != 1 or not err.endswith("\n"):
        return f"{args}: exit {code}, stderr {err!r}"
    # validate prints a row per song as it checks it, so only its manifest's refusals leave stdout empty
    if out and (args[0] != "validate" or err.startswith(f"error: {args[2]}: ")):
        return f"{args}: stdout {out[:80]!r} with {err!r}"
    return None


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(directory, manifest, score document, metric table rows, WAVE file) to edit."""
    root = tmp_path_factory.mktemp("sweep")
    manifest = make_dataset(root / "data", n_songs=4, duration=0.05, sample_rate=4000, seed=1,
                            demo_song_indices=(3,), silent_bass_indices=(1,))
    args = ["score", "--manifest", str(manifest), "--estimates", str(manifest.parent), "--system", "refs",
            "--leaderboard", "B", "--jobs", "1", "--out", str(root / "refs")]
    assert _run(args)[0] == 0
    table = [["system_id", "song_id", "stem", "global_sdr", "global_si_sdr"],
             *([system, song, "vocals", str(index), str(index % 3)]
               for index, (system, song) in enumerate((s, a) for s in "xyz" for a in "ab"))]
    wav = manifest.parent / "syn_000" / "vocals.wav"
    return root, json.loads(manifest.read_text()), json.loads((root / "refs.json").read_text()), table, wav


def test_every_odd_leaf_ends_in_exit_0_or_one_error_line(inputs):
    root, manifest, document, table, wav = inputs
    broken = []
    manifest_path = root / "data" / "edited.json"  # beside the manifest, so its stem paths still resolve
    for keys in _leaves(manifest):
        for value in ODD_VALUES:
            manifest_path.write_text(json.dumps(_edited(manifest, keys, value)))
            broken.append(_broken(["plan", "--manifest", str(manifest_path), "--seed", "0"]))
            broken.append(_broken(["validate", "--manifest", str(manifest_path)]))
    document_path = root / "edited_scores.json"
    for keys in _leaves(document):
        for value in ODD_VALUES:
            document_path.write_text(json.dumps(_edited(document, keys, value)))
            broken.append(_broken(["rank", "--scores", str(document_path)]))
    table_path = root / "edited_table.csv"
    for column in range(len(table[0])):
        for row in (0, 1):  # the header and a row
            for value in ODD_VALUES:
                rows = [list(cells) for cells in table]
                rows[row][column] = value if isinstance(value, str) else json.dumps(value)
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\n").writerows(rows)
                table_path.write_bytes(buffer.getvalue().encode("utf-8", "surrogatepass"))
                broken.append(_broken(["analyze", "--table", str(table_path), "--kind", "pearson"]))
    original = wav.read_bytes()
    wav_path = root / "edited.wav"
    for offset in range(original.index(b"data") + 8):
        for byte in {0x00, 0xFF, original[offset] ^ 0x01}:
            wav_path.write_bytes(original[:offset] + bytes([byte]) + original[offset + 1:])
            broken.append(_broken(["suite", "--reference", str(wav_path), "--estimate", str(wav)]))
    broken = [line for line in broken if line is not None]
    assert not broken, f"{len(broken)} case(s) broke the contract:\n" + "\n".join(broken[:20])
