import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from demixeval.analysis import DEFAULT_CORRELATION_THRESHOLD, CorrelationKind, MetricTable, metric_table_to_csv
from demixeval.audio_io import DEFAULT_MIX_TOLERANCE, StemKind, Waveform, load_manifest, read_wav, write_wav
from demixeval.cli import build_parser, run
from demixeval.harness import (ROUNDS, Leaderboard, ScoreDocument, evaluate_submission, load_score_document, rank,
                               scores_to_document)
from demixeval.metrics import DEFAULT_EPSILON, MetricId
from demixeval.oracle import KINDS, OracleConfig
from demixeval.synth import make_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_dataset")
    manifest = make_dataset(
        root, n_songs=4, duration=0.6, sample_rate=4000, seed=2, demo_song_indices=(3,)
    )
    return manifest


@pytest.fixture(scope="module")
def baseline_submission(dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_baseline")
    manifest = load_manifest(dataset)
    for entry in manifest.songs:
        song_dir = root / entry.song_id
        song_dir.mkdir()
        mixture = read_wav(entry.mixture_path)
        for kind in StemKind:
            write_wav(mixture, song_dir / f"{kind.value}.wav")
    return root


def test_usage_error_exits_2(capsys):
    assert run(["score", "--bogus-flag"]) == 2
    assert run(["not-a-command"]) == 2


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert "validate" in out and "oracle" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "demixeval", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "demixeval" in result.stdout


def test_validate_passes_on_synthetic(dataset, capsys):
    assert run(["validate", "--manifest", str(dataset)]) == 0
    out = capsys.readouterr().out
    assert "# command = validate" in out
    assert out.count("PASS") == 4


def test_validate_fails_on_broken_stem(dataset, tmp_path, capsys):
    import shutil

    broken_root = tmp_path / "broken"
    shutil.copytree(dataset.parent, broken_root)
    victim = broken_root / "syn_000" / "drums.wav"
    truncated = read_wav(victim)
    write_wav(
        Waveform(truncated.samples[:, :-10], truncated.sample_rate), victim
    )
    assert run(["validate", "--manifest", str(broken_root / "manifest.json")]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_plan_deterministic(dataset, capsys):
    assert run(["plan", "--manifest", str(dataset), "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert run(["plan", "--manifest", str(dataset), "--seed", "9"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "song_id,round" in first
    assert "syn_003" not in first.split("song_id,round")[1]  # demo song not planned


def test_score_writes_artifacts_and_is_reproducible(
    dataset, baseline_submission, tmp_path, capsys
):
    args = [
        "score",
        "--manifest", str(dataset),
        "--estimates", str(baseline_submission),
        "--system", "baseline",
        "--leaderboard", "B",
        "--training-data", "none",
        "--seed", "4",
        "--jobs", "1",
        "--out", str(tmp_path / "baseline_scores"),
    ]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "baseline_scores.csv").is_file()
    assert (tmp_path / "baseline_scores.json").is_file()
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "system_id,song_id" in first
    assert first.count("baseline,syn_") == 3  # demo song left out


def test_score_out_prefix_keeps_dotted_name(dataset, baseline_submission, tmp_path, capsys):
    # <out>.csv and <out>.json are appended to the prefix, never swapped for a
    # dotted last component, so sys.a and sys.b keep separate score files
    for system in ("sys.a", "sys.b"):
        args = [
            "score",
            "--manifest", str(dataset),
            "--estimates", str(baseline_submission),
            "--system", system,
            "--leaderboard", "B",
            "--training-data", "none",
            "--jobs", "1",
            "--out", str(tmp_path / "r" / system),
        ]
        assert run(args) == 0
    capsys.readouterr()
    written = sorted(path.name for path in (tmp_path / "r").iterdir())
    assert written == ["sys.a.csv", "sys.a.json", "sys.b.csv", "sys.b.json"]
    for system in ("sys.a", "sys.b"):
        assert json.loads((tmp_path / "r" / f"{system}.json").read_text())["system_id"] == system
        assert (tmp_path / "r" / f"{system}.csv").read_text().splitlines()[1].startswith(f"{system},")


def test_score_missing_estimates_exits_1(dataset, tmp_path, capsys):
    code = run(
        [
            "score",
            "--manifest", str(dataset),
            "--estimates", str(tmp_path / "nowhere"),
            "--system", "ghost",
            "--leaderboard", "B",
            "--jobs", "1",
        ]
    )
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_score_error_leaves_stdout_empty(dataset, baseline_submission, tmp_path, capsys):
    estimates = tmp_path / "estimates"
    shutil.copytree(baseline_submission, estimates)
    missing = estimates / "syn_000" / "vocals.wav"
    missing.unlink()
    args = ["score", "--manifest", str(dataset), "--estimates", str(estimates), "--system", "s",
            "--leaderboard", "B", "--jobs", "1"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: submission s is missing 1 estimate file(s):\n{missing}\n"


def test_score_out_under_a_file_prints_nothing(dataset, baseline_submission, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    args = ["score", "--manifest", str(dataset), "--estimates", str(baseline_submission), "--system", "s",
            "--leaderboard", "B", "--jobs", "1", "--out", str(tmp_path / "afile" / "sub" / "s")]
    assert run(args) == 1
    _assert_one_error_line(capsys, f"error: [Errno 20] Not a directory: '{tmp_path / 'afile' / 'sub'}'\n")
    assert list(tmp_path.rglob("*")) == [tmp_path / "afile"]


def test_score_json_path_a_directory_leaves_no_csv(dataset, baseline_submission, tmp_path, capsys):
    (tmp_path / "s.json").mkdir()
    args = ["score", "--manifest", str(dataset), "--estimates", str(baseline_submission), "--system", "s",
            "--leaderboard", "B", "--jobs", "1", "--out", str(tmp_path / "s")]
    assert run(args) == 1
    _assert_one_error_line(capsys, f"error: [Errno 21] Is a directory: '{tmp_path / 's.json'}'\n")
    assert list(tmp_path.rglob("*")) == [tmp_path / "s.json"]


def test_rank_out_under_a_file_prints_nothing(score_document, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(score_document))
    (tmp_path / "afile").write_text("")
    assert run(["rank", "--scores", str(scores), "--out", str(tmp_path / "afile" / "x.csv")]) == 1
    _assert_one_error_line(capsys, f"error: [Errno 20] Not a directory: '{tmp_path / 'afile' / 'x.csv'}'\n")
    assert sorted(tmp_path.rglob("*")) == [tmp_path / "afile", scores]


@pytest.fixture(scope="module")
def silent_bass_scores(tmp_path_factory):
    """(manifest path, `score --out` JSON path) of the references scored as
    their own estimates, over songs with a demo and a silent bass."""
    root = tmp_path_factory.mktemp("cli_silent_bass")
    manifest = make_dataset(root / "data", n_songs=5, duration=0.5, sample_rate=4000, seed=3,
                            demo_song_indices=(4,), silent_bass_indices=(1,))
    args = ["score", "--manifest", str(manifest), "--estimates", str(manifest.parent), "--system", "refs",
            "--leaderboard", "A", "--seed", "2", "--jobs", "1", "--out", str(root / "refs")]
    assert run(args) == 0
    return manifest, root / "refs.json"


def test_score_document_reserializes_to_its_own_bytes(silent_bass_scores):
    _, path = silent_bass_scores
    assert '"excluded_stems": {\n        "bass": "silent reference"' in path.read_text()
    assert json.dumps(scores_to_document(load_score_document(path)), indent=2) + "\n" == path.read_text()


def test_rank_takes_evaluate_submission_as_it_takes_its_score_file(silent_bass_scores):
    manifest, path = silent_bass_scores
    submission = ScoreDocument("refs", Leaderboard.A, "MUSDB18-HQ", ROUNDS, 2, DEFAULT_EPSILON)
    document = evaluate_submission(submission, load_manifest(manifest), manifest.parent)
    assert document == load_score_document(path)
    assert rank([document]) == rank([load_score_document(path)])


def test_score_board_a_rejects_bad_declaration(dataset, baseline_submission, capsys):
    code = run(
        [
            "score",
            "--manifest", str(dataset),
            "--estimates", str(baseline_submission),
            "--system", "cheater",
            "--leaderboard", "A",
            "--training-data", "MUSDB18-HQ plus my private stems",
            "--jobs", "1",
        ]
    )
    assert code == 1
    assert "leaderboard A" in capsys.readouterr().err


def test_oracle_then_score_matches_baseline(dataset, baseline_submission, tmp_path, capsys):
    oracle_root = tmp_path / "oracle_base"
    assert (
        run(
            [
                "oracle",
                "--manifest", str(dataset),
                "--kind", "baseline",
                "--out", str(oracle_root),
                "--jobs", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    common = [
        "--manifest", str(dataset),
        "--leaderboard", "B",
        "--training-data", "none",
        "--seed", "4",
        "--jobs", "1",
    ]
    assert run(["score", "--estimates", str(oracle_root), "--system", "x", *common]) == 0
    from_oracle = capsys.readouterr().out.split("\n")
    assert (
        run(["score", "--estimates", str(baseline_submission), "--system", "x", *common])
        == 0
    )
    from_copies = capsys.readouterr().out.split("\n")
    # identical numbers apart from the config line naming the estimates dir
    assert [l for l in from_oracle if not l.startswith("#")] == [
        l for l in from_copies if not l.startswith("#")
    ]


def test_rank_from_score_files(dataset, baseline_submission, tmp_path, capsys):
    swf_root = tmp_path / "swf"
    assert (
        run(
            [
                "oracle",
                "--manifest", str(dataset),
                "--kind", "swf",
                "--out", str(swf_root),
                "--fft", "512",
                "--hop", "128",
                "--jobs", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    for system, estimates in (("oracle_swf", swf_root), ("baseline", baseline_submission)):
        assert (
            run(
                [
                    "score",
                    "--manifest", str(dataset),
                    "--estimates", str(estimates),
                    "--system", system,
                    "--leaderboard", "B",
                    "--training-data", "none",
                    "--seed", "4",
                    "--jobs", "1",
                    "--out", str(tmp_path / f"{system}_scores"),
                ]
            )
            == 0
        )
    capsys.readouterr()
    assert (
        run(
            [
                "rank",
                "--scores",
                str(tmp_path / "oracle_swf_scores.json"),
                str(tmp_path / "baseline_scores.json"),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "# rounds = 1,2,3\n" in out
    lines = [l for l in out.split("\n") if l and not l.startswith("#")]
    assert lines[0].startswith("rank,system_id")
    assert lines[1].startswith("1,oracle_swf")
    assert lines[2].startswith("2,baseline")


def test_rank_rejects_mixed_leaderboards(dataset, baseline_submission, tmp_path, capsys):
    for system, board in (("sys_a", "A"), ("sys_b", "B")):
        declaration = "MUSDB18-HQ" if board == "A" else "none"
        assert (
            run(
                [
                    "score",
                    "--manifest", str(dataset),
                    "--estimates", str(baseline_submission),
                    "--system", system,
                    "--leaderboard", board,
                    "--training-data", declaration,
                    "--seed", "4",
                    "--jobs", "1",
                    "--out", str(tmp_path / system),
                ]
            )
            == 0
        )
    capsys.readouterr()
    code = run(
        [
            "rank",
            "--scores", str(tmp_path / "sys_a.json"), str(tmp_path / "sys_b.json"),
        ]
    )
    assert code == 1
    assert "mix leaderboards" in capsys.readouterr().err


def test_suite_identical_files(dataset, tmp_path, capsys):
    manifest = load_manifest(dataset)
    reference = manifest.songs[0].stem_paths[StemKind.VOCALS]
    assert (
        run(["suite", "--reference", str(reference), "--estimate", str(reference)]) == 0
    )
    out = capsys.readouterr().out
    lines = dict(
        line.split(",", 1) for line in out.strip().split("\n") if not line.startswith("#") and "," in line
    )
    assert float(lines["global_mae"]) == 0.0
    assert float(lines["global_mse"]) == 0.0
    assert float(lines["global_si_sdr"]) == 120.0
    energy = float(np.sum(read_wav(reference).samples ** 2))
    expected = 10 * np.log10((energy + 1e-7) / 1e-7)
    assert float(lines["global_sdr"]) == pytest.approx(expected, rel=1e-5)
    # 30 s frames do not fit in a short song: absent, rendered as empty
    assert lines["bsseval_v3_framewise_sdr_mean"] == ""


def test_suite_byte_identical(dataset, capsys):
    manifest = load_manifest(dataset)
    reference = str(manifest.songs[0].stem_paths[StemKind.BASS])
    estimate = str(manifest.songs[0].stem_paths[StemKind.DRUMS])
    assert run(["suite", "--reference", reference, "--estimate", estimate]) == 0
    first = capsys.readouterr().out
    assert run(["suite", "--reference", reference, "--estimate", estimate]) == 0
    assert capsys.readouterr().out == first


def test_analyze_table(tmp_path, rng, capsys):
    table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.BSSEVAL_V3_SDR))
    for i in range(12):
        value = float(rng.standard_normal())
        table.add_row(
            ("sys", f"song{i}", "bass"),
            {
                MetricId.GLOBAL_SDR: value,
                MetricId.BSSEVAL_V3_SDR: value + 1e-6 * float(rng.standard_normal()),
            },
        )
    path = tmp_path / "table.csv"
    path.write_text(metric_table_to_csv(table))
    assert run(["analyze", "--table", str(path), "--kind", "pearson"]) == 0
    out = capsys.readouterr().out
    assert "metric,global_sdr,bsseval_v3_sdr" in out
    assert "no defined pair falls below the threshold" in out
    assert run(["analyze", "--table", str(path), "--kind", "spearman"]) == 0


def test_score_parallel_jobs_match_serial(dataset, baseline_submission, tmp_path, capsys):
    common = [
        "score",
        "--manifest", str(dataset),
        "--estimates", str(baseline_submission),
        "--system", "baseline",
        "--leaderboard", "B",
        "--training-data", "none",
        "--seed", "4",
    ]
    assert run([*common, "--jobs", "1"]) == 0
    serial = [
        l for l in capsys.readouterr().out.split("\n") if not l.startswith("#")
    ]
    assert run([*common, "--jobs", "2"]) == 0
    parallel = [
        l for l in capsys.readouterr().out.split("\n") if not l.startswith("#")
    ]
    assert serial == parallel


def _assert_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_oracle_rejects_hop_beyond_half_window(dataset, tmp_path, capsys):
    args = [
        "oracle",
        "--manifest", str(dataset),
        "--kind", "swf",
        "--out", str(tmp_path / "swf"),
        "--fft", "1024",
        "--hop", "1024",
        "--jobs", "1",
    ]
    assert run(args) == 1
    _assert_error_line(capsys)
    assert not (tmp_path / "swf").exists()


def test_rank_score_document_without_scores(tmp_path, capsys):
    path = tmp_path / "noscores.json"
    path.write_text('{"system_id": "x", "leaderboard": "B"}')
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_error_line(capsys)


def test_rank_non_json_file(tmp_path, capsys):
    path = tmp_path / "notjson.json"
    path.write_text("system_id,song_id\n")
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_error_line(capsys)


def test_analyze_non_numeric_cell(tmp_path, capsys):
    path = tmp_path / "table.csv"
    path.write_text("system_id,song_id,stem,global_sdr\nsys,song0,bass,loud\n")
    assert run(["analyze", "--table", str(path), "--kind", "pearson"]) == 1
    _assert_error_line(capsys)


def test_analyze_duplicate_metric_column(tmp_path, capsys):
    # read column by column, the two global_sdr columns correlate at -0.5
    path = tmp_path / "table.csv"
    path.write_text("system_id,song_id,stem,global_sdr,global_sdr\n"
                    "s,a,bass,1,3\ns,b,bass,2,1\ns,c,bass,3,2\n")
    assert run(["analyze", "--table", str(path), "--kind", "pearson"]) == 1
    _assert_one_error_line(capsys, f"{path}: duplicate column global_sdr")


@pytest.mark.parametrize(
    "rows, message",
    [("s,a,bass,1\ns,a,bass,2\n", "line 3: duplicate row key"), ("s,a,bass,inf\n", "line 2: non-finite value")],
    ids=["repeated-row", "inf-cell"],
)
def test_analyze_row_error_names_table_and_line(tmp_path, capsys, rows, message):
    path = tmp_path / "table.csv"
    path.write_text("system_id,song_id,stem,global_sdr\n" + rows)
    assert run(["analyze", "--table", str(path), "--kind", "pearson"]) == 1
    _assert_one_error_line(capsys, f"{path}: {message}")


def test_plan_non_integer_sample_rate(dataset, tmp_path, capsys):
    doc = json.loads(dataset.read_text())
    doc["sample_rate"] = "abc"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert run(["plan", "--manifest", str(path), "--seed", "0"]) == 1
    _assert_error_line(capsys)


def _assert_one_error_line(capsys, message, prefix="error: "):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["plan", "score"])
def test_negative_seed_rejected(dataset, baseline_submission, capsys, command):
    args = [command, "--manifest", str(dataset), "--seed=-3"]
    if command == "score":
        args += ["--estimates", str(baseline_submission), "--system", "s", "--leaderboard", "B",
                 "--training-data", "none", "--jobs", "1"]
    assert run(args) == 1
    _assert_one_error_line(capsys, "seed must be >= 0, got -3")


@pytest.mark.parametrize(
    "command, song_id",
    [("oracle", "../escape"), ("oracle", "ABSOLUTE"), ("score", "../escape"), ("plan", 'a,"b"'),
     ("validate", 'a,"b"')],
    ids=["oracle-parent", "oracle-absolute", "score-parent", "plan-csv-cell", "validate-csv-cell"],
)
def test_unsafe_song_id_ends_in_error_and_writes_nothing(dataset, baseline_submission, tmp_path, capsys,
                                                         command, song_id):
    if song_id == "ABSOLUTE":
        song_id = str(tmp_path / "escaped")
    doc = json.loads(dataset.read_text())
    for record in doc["songs"]:  # absolute paths, so the manifest can live in tmp_path
        record["mixture"] = str(dataset.parent / record["mixture"])
        record["stems"] = {k: str(dataset.parent / v) for k, v in record["stems"].items()}
    doc["songs"][0]["song_id"] = song_id
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "work" / "out"
    args = {
        "oracle": ["--kind", "baseline", "--out", str(out), "--jobs", "1"],
        "score": ["--estimates", str(baseline_submission), "--system", "s", "--leaderboard", "B",
                  "--jobs", "1", "--out", str(out / "scores")],
        "plan": ["--seed", "0"],
        "validate": [],
    }[command]
    assert run([command, "--manifest", str(manifest), *args]) == 1
    _assert_one_error_line(capsys, f"{manifest}: song record 0: song_id {song_id!r} must be a non-empty name")
    assert [p for p in tmp_path.rglob("*")] == [manifest]


def _set(*keys, value):
    """An edit of a JSON document that sets doc[keys[0]][keys[1]]... to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _drop(*keys):
    """An edit of a JSON document that deletes doc[keys[0]][keys[1]]..."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


def _latin1_title(doc):
    doc["songs"][0]["title"] = "Caf\u00e9"
    return json.dumps(doc, ensure_ascii=False).encode("latin-1")


def _rate_of_5000_digits(doc):
    doc["sample_rate"] = 0
    return json.dumps(doc).replace('"sample_rate": 0', '"sample_rate": ' + "9" * 5000).encode()


_DEEP_JSON = b"[" * 200000 + b"]" * 200000  # past the decoder's recursion limit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_latin1_title, "not valid JSON ('utf-8' codec can't decode"),
        (_set("songs", value=5), "songs must be a JSON list, got 5"),
        (_set("songs", 0, "stems", "bass", value=3), "stem 'bass' path must be a JSON string, got 3"),
        (_set("songs", 0, "mixture", value=["mix.wav"]), "mixture path must be a JSON string, got ['mix.wav']"),
        (_set("songs", 0, "other_instruments", value=3), "other_instruments must be a JSON list, got 3"),
        (_set("songs", 0, "other_instruments", value="gtr"), "other_instruments must be a JSON list, got 'gtr'"),
        (_set("songs", 0, "silent_stems", value=3), "silent_stems must be a JSON list, got 3"),
        (_set("songs", 0, "silent_stems", value="bass"), "silent_stems must be a JSON list, got 'bass'"),
        (_set("songs", 0, "silent_stems", value=[3]), "unknown stem kind 3"),
        (_set("songs", 0, "is_demo", value="false"), "is_demo must be a JSON boolean, got 'false'"),
        ("system_id,song_id,stem,global_sdr\nsyst\u00e8me,a,bass,1.0\n".encode("latin-1"),
         "not UTF-8 text ('utf-8' codec can't decode"),
        (_set("songs", 0, "song_id", value=["a"]), "song record 0: song_id must be a JSON string, got ['a']"),
        (_set("songs", 0, "song_id", value=7), "song record 0: song_id must be a JSON string, got 7"),
        (_set("sample_rate", value=4000.9), "sample_rate must be a JSON integer, got 4000.9"),
        (_set("sample_rate", value=16000.0), "sample_rate must be a JSON integer, got 16000.0"),
        (_set("sample_rate", value="16000"), "sample_rate must be a JSON integer, got '16000'"),
        (_set("sample_rate", value=True), "sample_rate must be a JSON integer, got True"),
        (_set("songs", 0, "title", value=None), "song syn_000: title must be a JSON string, got None"),
        (_set("songs", 0, "genre", value=["rock"]), "song syn_000: genre must be a JSON string, got ['rock']"),
        (_set("songs", 0, "language", value=5), "song syn_000: language must be a JSON string, got 5"),
        (_set("songs", 0, "other_instruments", value=[None]),
         "song syn_000: other_instruments item must be a JSON string, got None"),
        (_set("name", value=None), "name must be a JSON string, got None"),
        (_set("sample_rate", value=0), "manifest sample_rate must be positive"),
        (_drop("songs", 0, "stems"), "song syn_000: missing stems object"),
        (_drop("songs", 0, "mixture"), "song syn_000: missing mixture path"),
        (_set("songs", 0, "stems", "piano", value="syn_000/piano.wav"), "song syn_000: unknown stem kind 'piano'"),
        (lambda doc: doc["songs"].append(doc["songs"][0]), "duplicate song_id 'syn_000'"),
        (_set("songs", value=[]), "manifest must list at least one song"),
        (_set("songs", 0, "stems", "bass", value="syn_000/ba\u0000ss.wav"),
         "song syn_000: stem 'bass' path must not contain NUL"),
        (lambda doc: _DEEP_JSON, "not valid JSON (maximum recursion depth exceeded"),
        (_rate_of_5000_digits, "not valid JSON (Exceeds the limit (4300 digits)"),
        (b"system_id,song_id,stem,global_sdr\ns,a,bass," + b"1" * 200000 + b"\n",
         "line 2: field larger than field limit (131072)"),
    ],
    ids=["manifest-latin-1", "songs", "stem-path", "mixture", "other-int", "other-str",
         "silent-int", "silent-str", "silent-member", "is-demo-str", "table-latin-1",
         "song-id-list", "song-id-int", "rate-fraction", "rate-float", "rate-str", "rate-bool",
         "title-null", "genre-list", "language-int", "other-member-null", "name-null", "rate-zero",
         "stems-missing", "mixture-missing", "stem-piano", "song-repeated", "songs-empty", "stem-path-nul",
         "deep-nesting", "rate-5000-digits", "table-cell-over-limit"],
)
def test_malformed_manifest_or_table_ends_in_error(dataset, tmp_path, capsys, edit, message):
    """edit is a metric table's bytes, or edits the synthetic manifest in place or returns its bytes."""
    path = tmp_path / "input"
    if isinstance(edit, bytes):
        path.write_bytes(edit)
        args = ["analyze", "--table", str(path), "--kind", "pearson"]
    else:
        doc = json.loads(dataset.read_text())
        path.write_bytes(edit(doc) or json.dumps(doc).encode())
        args = ["plan", "--manifest", str(path), "--seed", "0"]
    assert run(args) == 1
    _assert_one_error_line(capsys, message, prefix=f"error: {path}: ")


@pytest.fixture(scope="module")
def score_document(dataset, baseline_submission, tmp_path_factory):
    prefix = tmp_path_factory.mktemp("cli_scores") / "baseline"
    args = [
        "score",
        "--manifest", str(dataset),
        "--estimates", str(baseline_submission),
        "--system", "baseline",
        "--leaderboard", "B",
        "--training-data", "none",
        "--jobs", "1",
        "--out", str(prefix),
    ]
    assert run(args) == 0
    return json.loads(prefix.with_suffix(".json").read_text())


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("rounds", value="12"), "rounds must be a JSON list, got '12'"),
        (_set("rounds", value=[1, 2, 3, 7]), "rounds must be a non-empty list drawn from 1, 2, 3"),
        (lambda doc: doc["scores"].append(doc["scores"][0]), "repeated song_id 'syn_000'"),
        (_set("scores", 0, "sdr_song", value="1e9"), "sdr_song must be a JSON number, got '1e9'"),
        (_set("scores", 0, "sdr_song", value=float("nan")), "sdr_song must be finite, got nan"),
        (_set("scores", 0, "per_stem", "bass", value="inf"), "bass must be a JSON number, got 'inf'"),
        (_set("scores", 0, "per_stem", "bass", value=float("inf")), "bass must be finite, got inf"),
        (_set("seed", value=0.7), "seed must be a JSON integer, got 0.7"),
        (_set("scores", 0, "excluded_song", value="false"), "excluded_song must be a JSON boolean, got 'false'"),
        (_set("system_id", value=["baseline"]), "system_id must be a JSON string, got ['baseline']"),
        (_set("training_data_declaration", value=5),
         "malformed score document (training_data_declaration must be a JSON string, got 5)"),
    ],
    ids=["rounds-str", "rounds-7", "repeated-song", "sdr-str", "sdr-nan", "stem-str", "stem-inf",
         "seed-fraction", "excluded-str", "system-id-list", "board-b-declaration-number"],
)
def test_rank_rejects_mistyped_score_document(score_document, tmp_path, capsys, edit, message):
    doc = json.loads(json.dumps(score_document))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, message)


def test_rank_refuses_json_too_deep_to_decode(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_bytes(_DEEP_JSON)
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, "not valid JSON (maximum recursion depth exceeded", prefix=f"error: {path}: ")


def _drop_vocals_and_exclude_it(doc):
    del doc["scores"][0]["per_stem"]["vocals"]
    doc["scores"][0]["excluded_stems"] = {"vocals": "silent reference"}


def _shift_sdr_song(doc):
    doc["scores"][0]["sdr_song"] += 1.0


def _exclude_bass_for_another_reason(doc):
    record = doc["scores"][0]
    record["excluded_stems"] = {"bass": "other"}
    record["sdr_song"] = sum(record["per_stem"][k] for k in ("drums", "other", "vocals")) / 3


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("scores", value=[{"song_id": "a", "per_stem": {"bass": 1.0}, "sdr_song": 1.0}]),
         "song a: no value for drums, other, vocals"),
        (_drop_vocals_and_exclude_it, "song syn_000: no value for vocals"),
        (_set("scores", 0, "excluded_stems", value={k.value: "silent reference" for k in StemKind}),
         "song syn_000: every stem is excluded"),
        (_shift_sdr_song, "song syn_000: sdr_song"),
        (_set("scores", 0, "excluded_stems", value={"bass": "silent reference"}), "song syn_000: sdr_song"),
        # an edited excluded_song once dropped the song from the mean, and rank exited 0
        (_set("scores", 0, "excluded_song", value=True), "song syn_000: exclusions differ from what score writes"),
        (_set("scores", 0, "exclusion_reason", value="demo song"), "song syn_000: exclusions differ"),
        (_exclude_bass_for_another_reason, "song syn_000: exclusions differ"),
    ],
    ids=["only-bass", "excluded-without-value", "all-excluded", "sdr-not-mean", "sdr-four-stem-mean",
         "excluded-song", "song-reason", "stem-reason"],
)
def test_rank_rejects_inconsistent_song_record(score_document, tmp_path, capsys, edit, message):
    doc = json.loads(json.dumps(score_document))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, f"error: {path}: {message}")


@pytest.mark.parametrize("flag, values", [("--epsilon", ("1e-7", "1e-5")), ("--seed", ("4", "5"))])
def test_rank_refuses_documents_scored_differently(
    dataset, baseline_submission, tmp_path, capsys, flag, values
):
    paths = []
    for index, value in enumerate(values):
        system = f"sys_{index}"
        args = [
            "score",
            "--manifest", str(dataset),
            "--estimates", str(baseline_submission),
            "--system", system,
            "--leaderboard", "B",
            "--training-data", "none",
            "--jobs", "1",
            "--out", str(tmp_path / system),
            flag, value,
        ]
        if flag != "--seed":
            args += ["--seed", "4"]
        assert run(args) == 0
        paths.append(str(tmp_path / f"{system}.json"))
    capsys.readouterr()
    assert run(["rank", "--scores", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: score files disagree on {flag[2:]}")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "declaration, message",
    [
        (None, "score document has no 'training_data_declaration' field"),
        (5, "training_data_declaration must be a JSON string, got 5"),
        ("private corpus of 10000 songs", "leaderboard A requires a training data declaration naming only MUSDB18"),
    ],
    ids=["missing", "number", "other-corpus"],
)
def test_rank_applies_board_a_training_data_rule(score_document, tmp_path, capsys, declaration, message):
    doc = dict(score_document, leaderboard="A", training_data_declaration=declaration)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
    capsys.readouterr()
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, message)


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set("rounds", value=[1, 2, 3, 7]), "rounds must be a non-empty list drawn from 1, 2, 3, got [1, 2, 3, 7]"),
        (_set("seed", value=-1), "seed must be >= 0, got -1"),
        (lambda doc: doc["scores"].append(doc["scores"][0]), "repeated song_id 'syn_000'"),
        (lambda doc: doc.update(leaderboard="A", training_data_declaration="private corpus"),
         "system baseline: leaderboard A requires a training data declaration naming only MUSDB18 or "
         "MUSDB18-HQ, got 'private corpus'"),
        (_set("epsilon", value=0.0), "epsilon must be finite and > 0"),
        (_set("system_id", value=""), "system_id must be non-empty"),
        # printed as a leaderboard cell, the line break would forge the row 1,forged,9,9,9,9,9
        (_set("system_id", value="sys\n1,forged,9,9,9,9,9"),
         "system_id must not contain CR or LF, got 'sys\\n1,forged,9,9,9,9,9'"),
        *[(_set("scores", 0, "song_id", value=song_id),
           f"song record 0: song_id {song_id!r} must be a non-empty name, not '.' or '..', "
           "without '/', '\\', NUL, ',', '\"', CR or LF") for song_id in ("", "../escape", "line\nbreak")],
    ],
    ids=["rounds-7", "seed-negative", "repeated-song", "board-a-other-corpus", "epsilon-zero", "system-id-empty",
         "system-id-line-break", "song-id-empty", "song-id-escape", "song-id-line-break"],
)
def test_rank_rule_violation_is_not_called_malformed(score_document, tmp_path, capsys, edit, message):
    doc = json.loads(json.dumps(score_document))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rank", "--scores", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {message}\n"
    assert captured.out == ""


def test_rank_refuses_documents_on_different_rounds(score_document, tmp_path, capsys):
    paths = []
    for system, rounds in (("sys_0", [1, 2, 3]), ("sys_1", [1])):
        paths.append(tmp_path / f"{system}.json")
        paths[-1].write_text(json.dumps(dict(score_document, system_id=system, rounds=rounds)))
    capsys.readouterr()
    assert run(["rank", "--scores", *map(str, paths)]) == 1
    _assert_one_error_line(capsys, "error: score files disagree on rounds: [[1], [1, 2, 3]]")


@pytest.mark.parametrize("command", ["score", "oracle"])
def test_jobs_below_one_rejected(dataset, baseline_submission, tmp_path, capsys, command):
    if command == "score":
        args = [
            "score",
            "--manifest", str(dataset),
            "--estimates", str(baseline_submission),
            "--system", "baseline",
            "--leaderboard", "B",
            "--training-data", "none",
        ]
    else:
        args = ["oracle", "--manifest", str(dataset), "--kind", "baseline", "--out", str(tmp_path / "o")]
    assert run([*args, "--jobs", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: jobs must be >= 1")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_score_rejects_non_finite_epsilon(dataset, baseline_submission, tmp_path, capsys, value):
    prefix = tmp_path / "P"
    args = [
        "score",
        "--manifest", str(dataset),
        "--estimates", str(baseline_submission),
        "--system", "baseline",
        "--leaderboard", "B",
        "--training-data", "none",
        "--jobs", "1",
        f"--epsilon={value}",  # "-inf" as a separate word would parse as an option
        "--out", str(prefix),
    ]
    assert run(args) == 1
    _assert_error_line(capsys)
    assert not prefix.with_suffix(".json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_validate_rejects_bad_tolerance(dataset, capsys, value):
    assert run(["validate", "--manifest", str(dataset), f"--tolerance={value}"]) == 1
    _assert_error_line(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_analyze_rejects_non_finite_threshold(tmp_path, capsys, value):
    path = tmp_path / "table.csv"
    path.write_text("system_id,song_id,stem,global_sdr\nsys,song0,bass,1.0\n")
    args = ["analyze", "--table", str(path), "--kind", "pearson", f"--threshold={value}"]
    assert run(args) == 1
    _assert_error_line(capsys)


def test_oracle_parallel_jobs_byte_identical(dataset, tmp_path, capsys):
    root = tmp_path / "swf"
    outputs = {}
    for jobs in ("1", "2"):
        shutil.rmtree(root, ignore_errors=True)
        args = ["oracle", "--manifest", str(dataset), "--kind", "swf", "--out", str(root),
                "--fft", "256", "--hop", "64", "--jobs", jobs]
        assert run(args) == 0
        stdout = [l for l in capsys.readouterr().out.split("\n") if not l.startswith("# jobs = ")]
        files = {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()
        }
        outputs[jobs] = (stdout, files)
    assert outputs["1"][0] == outputs["2"][0]
    assert len(outputs["1"][1]) == 4 * len(load_manifest(dataset).songs)
    assert outputs["1"][1] == outputs["2"][1]


@pytest.mark.parametrize(
    "option, value",
    [("--system", "sys\nsyn_000,1,2,3,4,5,6,,"), ("--training-data", "none\r# rounds = 1")],
    ids=["system", "training-data"],
)
def test_score_refuses_line_breaks_in_arguments(dataset, baseline_submission, tmp_path, capsys, option, value):
    named = {"--system": "baseline", "--training-data": "none", option: value}
    args = ["score", "--manifest", str(dataset), "--estimates", str(baseline_submission), "--leaderboard", "B",
            "--jobs", "1", "--out", str(tmp_path / "scores"), *(item for pair in named.items() for item in pair)]
    assert run(args) == 1
    _assert_one_error_line(capsys, f"error: {option} must not contain CR or LF, got {value!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_rank_refuses_a_scores_path_with_a_line_break(score_document, tmp_path, capsys):
    good = tmp_path / "good.json"
    forged = tmp_path / "forged\n# rounds = 1.json"
    for name, path in (("good", good), ("forged", forged)):
        path.write_text(json.dumps({**score_document, "system_id": name}))
    assert run(["rank", "--scores", str(good), str(forged)]) == 1
    _assert_one_error_line(capsys, f"error: --scores must not contain CR or LF, got {str(forged)!r}\n")


@pytest.mark.parametrize(
    "command, field, value, message",
    [("validate", ("songs", 0, "stems", "bass"), "syn_000/b\ud800.wav",
      "song syn_000: stem 'bass' path must be valid Unicode text"),
     ("plan", ("songs", 0, "song_id"), "s\ud800", "song record 0: song_id must be valid Unicode text")],
    ids=["validate-stem-path", "plan-song-id"],
)
def test_manifest_text_that_cannot_be_printed_is_refused_at_load(dataset, tmp_path, capsys, command, field, value,
                                                                  message):
    # json.dumps writes the lone surrogate as the escape \ud800, which json.loads keeps
    doc = json.loads(dataset.read_text())
    _set(*field, value=value)(doc)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert run([command, "--manifest", str(path), *(["--seed", "0"] if command == "plan" else [])]) == 1
    _assert_one_error_line(capsys, message, prefix=f"error: {path}: ")


def test_rank_refuses_a_system_id_that_cannot_be_printed(score_document, tmp_path, capsys):
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps({**score_document, "system_id": "s\ud800"}))
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, f"error: {path}: malformed score document (system_id must be valid Unicode text)\n")


def test_score_refuses_an_argument_that_is_not_unicode(dataset, baseline_submission, tmp_path):
    # the byte 0xff reaches sys.argv as the lone surrogate \udcff
    args = [sys.executable, "-m", "demixeval", "score", "--manifest", str(dataset), "--estimates",
            str(baseline_submission), "--system", b"\xff", "--leaderboard", "B", "--jobs", "1",
            "--out", str(tmp_path / "scores")]
    result = subprocess.run(args, capture_output=True)
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr == b"error: --system must be valid Unicode text\n"
    assert list(tmp_path.iterdir()) == []


def test_score_checks_the_document_rules_before_the_manifests_song_count(dataset, baseline_submission, tmp_path,
                                                                         capsys):
    # each step's arguments still break every later rule: rounds, seed, epsilon, system_id,
    # leaderboard A's declaration, then the round plan's song count
    doc = json.loads(dataset.read_text())
    doc["songs"] = doc["songs"][:2]
    manifest = tmp_path / "two_songs.json"
    manifest.write_text(json.dumps(doc))
    named = {"--rounds": "7", "--seed": "-1", "--epsilon": "0", "--system": "", "--training-data": "private corpus"}
    steps = [
        ("rounds must be a non-empty list drawn from 1, 2, 3, got [7]", "--rounds", "1"),
        ("seed must be >= 0, got -1", "--seed", "0"),
        ("epsilon must be finite and > 0", "--epsilon", "1e-7"),
        ("system_id must be non-empty", "--system", "s"),
        ("system s: leaderboard A requires a training data declaration naming only MUSDB18 or MUSDB18-HQ, "
         "got 'private corpus'", "--training-data", "MUSDB18"),
        ("need at least 3 non-demo songs to plan rounds, got 2", None, None),
    ]
    for message, flag, mended in steps:
        args = ["score", "--manifest", str(manifest), "--estimates", str(baseline_submission), "--leaderboard", "A",
                "--jobs", "1", *(f"{k}={v}" for k, v in named.items())]
        assert run(args) == 1
        _assert_one_error_line(capsys, f"error: {message}\n")
        if flag is not None:
            named[flag] = mended


def test_analyze_lists_tied_flagged_pairs_in_column_order(tmp_path, rng, capsys):
    # global_sdr and global_mae hold the same values, so both correlate
    # with global_mse to the same bits
    path = tmp_path / "table.csv"
    table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE, MetricId.GLOBAL_MSE))
    for i in range(50):
        shared, independent = rng.standard_normal(2)
        table.add_row(("sys", f"song{i}", "bass"), {MetricId.GLOBAL_SDR: shared, MetricId.GLOBAL_MAE: shared,
                                                   MetricId.GLOBAL_MSE: independent})
    path.write_text(metric_table_to_csv(table))
    assert run(["analyze", "--table", str(path), "--kind", "pearson"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    flagged = [line for line in captured.out.splitlines() if line.startswith("below threshold: ")]
    assert [line.split(" = ")[0] for line in flagged] == [
        "below threshold: global_sdr vs global_mse",
        "below threshold: global_mae vs global_mse",
    ]
    assert flagged[0].split(" = ")[1] == flagged[1].split(" = ")[1]


def test_parser_defaults_are_their_layers_constants():
    parser = build_parser()
    score = parser.parse_args(["score", "--manifest", "m", "--estimates", "e", "--system", "s", "--leaderboard", "B"])
    oracle = parser.parse_args(["oracle", "--manifest", "m", "--kind", "swf", "--out", "o"])
    assert parser.parse_args(["validate", "--manifest", "m"]).tolerance == DEFAULT_MIX_TOLERANCE
    assert score.epsilon == DEFAULT_EPSILON
    assert parser.parse_args(["suite", "--reference", "r", "--estimate", "e"]).epsilon == DEFAULT_EPSILON
    assert [int(r) for r in score.rounds.split(",")] == list(ROUNDS)
    assert (oracle.fft, oracle.hop) == (OracleConfig().fft_size, OracleConfig().hop)
    threshold = parser.parse_args(["analyze", "--table", "t", "--kind", "pearson"]).threshold
    assert threshold == DEFAULT_CORRELATION_THRESHOLD


def test_parser_choices_are_their_owners():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    choices = {
        (command, action.dest): list(action.choices)
        for command, sub in subcommands.items() for action in sub._actions if action.choices is not None
    }
    boards = [board.value for board in Leaderboard]
    assert choices == {
        ("score", "leaderboard"): boards,
        ("rank", "leaderboard"): boards,
        ("oracle", "kind"): list(KINDS),
        ("analyze", "kind"): [kind.value for kind in CorrelationKind],
    }
    assert list(KINDS) == ["swf", "mwf", "baseline"]  # the order --help lists


def _config_block(out):
    """The (key, value) pairs of a run's '# key = value' lines, in order."""
    return [tuple(line[2:].split(" = ", 1)) for line in out.splitlines() if line.startswith("# ")]


@pytest.mark.parametrize("extra", [[], ["--out", "LB"], ["--leaderboard", "B"], ["--out", "LB", "--leaderboard", "B"]],
                         ids=["bare", "out", "leaderboard", "both"])
def test_rank_config_block(score_document, tmp_path, capsys, extra):
    # rounds comes from the file, not an option, and is printed after leaderboard
    path = tmp_path / "scores.json"
    path.write_text(json.dumps({**score_document, "rounds": [3, 1]}))
    extra = [str(tmp_path / "lb.csv") if arg == "LB" else arg for arg in extra]
    assert run(["rank", *extra, "--scores", str(path)]) == 0
    out = str(tmp_path / "lb.csv") if "--out" in extra else ""
    assert _config_block(capsys.readouterr().out) == [
        ("command", "rank"), ("scores", str(path)), ("leaderboard", "B"), ("rounds", "1,3"), ("out", out),
    ]


def test_plan_config_block(dataset, capsys):
    assert run(["plan", "--seed", "9", "--manifest", str(dataset)]) == 0
    assert _config_block(capsys.readouterr().out) == [
        ("command", "plan"), ("manifest", str(dataset)), ("seed", "9"), ("demo_songs_excluded", "syn_003"),
    ]


def _write_table(path, rows=12):
    lines = ["system_id,song_id,stem,global_sdr,global_mae"]
    lines += [f"sys,song{i},bass,{i % 5 + 0.25 * i},{(7 * i) % 11}" for i in range(rows)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("kind, threshold", [("pearson", None), ("spearman", "0.5")])
def test_analyze_config_block(tmp_path, capsys, kind, threshold):
    table = _write_table(tmp_path / "table.csv")
    options = ["--threshold", threshold] if threshold else []
    assert run(["analyze", *options, "--kind", kind, "--table", table]) == 0
    assert _config_block(capsys.readouterr().out) == [
        ("command", "analyze"), ("table", table), ("kind", kind),
        ("threshold", threshold or format(DEFAULT_CORRELATION_THRESHOLD, "g")), ("rows", "12"),
    ]


def test_every_option_is_in_the_config_block(dataset, baseline_submission, score_document, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(score_document))
    stem = str(load_manifest(dataset).songs[0].stem_paths[StemKind.VOCALS])
    argv = {
        "validate": ["--manifest", str(dataset)],
        "score": ["--manifest", str(dataset), "--estimates", str(baseline_submission), "--system", "s",
                  "--leaderboard", "B", "--jobs", "1"],
        "rank": ["--scores", str(scores)],
        "oracle": ["--manifest", str(dataset), "--kind", "baseline", "--out", str(tmp_path / "est"), "--jobs", "1"],
        "suite": ["--reference", stem, "--estimate", stem],
        "analyze": ["--table", _write_table(tmp_path / "table.csv"), "--kind", "pearson"],
        "plan": ["--manifest", str(dataset), "--seed", "0"],
    }
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert set(subcommands) == set(argv)
    for command, parser in subcommands.items():
        assert run([command, *argv[command]]) == 0
        keys = [key for key, _ in _config_block(capsys.readouterr().out)]
        options = [action.dest for action in parser._actions if action.dest != "help"]
        assert keys[0] == "command"
        assert [key for key in keys if key in options] == options, command


# ---------------------------------------------------------------------------
# tables the shared CSV writer prints or writes, pinned byte for byte as
# recorded before the tables shared it


def _named(stdout, **paths):
    """stdout with each given path replaced by <its name>."""
    for name, path in paths.items():
        stdout = stdout.replace(str(path), f"<{name}>")
    return stdout


RECORDED_PLAN = """\
# command = plan
# manifest = <manifest>
# seed = 9
# demo_songs_excluded = syn_003
song_id,round
syn_000,2
syn_001,3
syn_002,1
"""


def test_plan_output_matches_recorded(dataset, capsys):
    assert run(["plan", "--manifest", str(dataset), "--seed", "9"]) == 0
    assert _named(capsys.readouterr().out, manifest=dataset) == RECORDED_PLAN


@pytest.fixture(scope="module")
def three_score_files(dataset, baseline_submission, tmp_path_factory):
    """`score --out` JSON files of the references themselves and of the mixture
    copies under two system ids, one of them 'a,"b', which a CSV cell quotes."""
    root = tmp_path_factory.mktemp("cli_three")
    runs = [("perfect", "perfect", dataset.parent), ("baseline", "baseline", baseline_submission),
            ("quoted", 'a,"b', baseline_submission)]
    for name, system, estimates in runs:
        assert run(["score", "--manifest", str(dataset), "--estimates", str(estimates), "--system", system,
                    "--leaderboard", "B", "--training-data", "none", "--jobs", "1", "--out", str(root / name)]) == 0
    return [root / f"{name}.json" for name, _, _ in runs]


RECORDED_RANK = """\
# command = rank
# scores = <scores>/perfect.json,<scores>/baseline.json,<scores>/quoted.json
# leaderboard = B
# rounds = 1,2,3
# out = <out>
rank,system_id,sdr_song,sdr_bass,sdr_drums,sdr_other,sdr_vocals
1,perfect,81.864,81.864,81.864,81.864,81.864
2,"a,""b",-4.784,-4.757,-4.775,-4.795,-4.810
3,baseline,-4.784,-4.757,-4.775,-4.795,-4.810
"""
RECORDED_LEADERBOARD = """\
rank,system_id,sdr_song,sdr_bass,sdr_drums,sdr_other,sdr_vocals
1,perfect,81.864,81.864,81.864,81.864,81.864
2,"a,""b",-4.784,-4.757,-4.775,-4.795,-4.810
3,baseline,-4.784,-4.757,-4.775,-4.795,-4.810
"""


def test_rank_output_matches_recorded(three_score_files, tmp_path, capsys):
    out = tmp_path / "leaderboard.csv"
    capsys.readouterr()
    assert run(["rank", "--scores", *map(str, three_score_files), "--out", str(out)]) == 0
    assert _named(capsys.readouterr().out, scores=three_score_files[0].parent, out=out) == RECORDED_RANK
    assert out.read_text() == RECORDED_LEADERBOARD


# global_mae and global_si_sdr have absent cells, bsseval_v3_sdr is constant
# and framewise_sdr_mean is present in one row only
ANALYZE_TABLE = """\
system_id,song_id,stem,global_sdr,global_mae,global_si_sdr,bsseval_v3_sdr,framewise_sdr_mean
a,s0,bass,1.5,0.25,,2,
a,s1,bass,3,0.125,4.5,2,
a,s2,bass,3,,5.25,2,7
a,s3,bass,-2,0.5,-1,2,
b,s0,bass,0.75,0.375,1.25,2,
b,s1,bass,4,0.0625,,2,
b,s2,bass,2.5,0.3,3,2,
b,s3,bass,-0.5,0.45,0.5,2,
"""
RECORDED_ANALYZE = {
    "pearson": """\
# command = analyze
# table = <table>
# kind = pearson
# threshold = 0.9
# rows = 8
metric,global_sdr,global_mae,global_si_sdr,bsseval_v3_sdr,framewise_sdr_mean
global_sdr,1,-0.946912,0.96771,,
global_mae,-0.946912,1,-0.976042,,
global_si_sdr,0.96771,-0.976042,1,,
bsseval_v3_sdr,,,,,
framewise_sdr_mean,,,,,

pearson correlation report (threshold 0.9)
below threshold: global_mae vs global_si_sdr = -0.976042
below threshold: global_sdr vs global_mae = -0.946912
undefined: bsseval_v3_sdr vs framewise_sdr_mean (only 1 co-present row(s))
undefined: bsseval_v3_sdr vs global_mae (constant values)
undefined: bsseval_v3_sdr vs global_sdr (constant values)
undefined: bsseval_v3_sdr vs global_si_sdr (constant values)
undefined: framewise_sdr_mean vs global_mae (only 0 co-present row(s))
undefined: framewise_sdr_mean vs global_sdr (only 1 co-present row(s))
undefined: framewise_sdr_mean vs global_si_sdr (only 1 co-present row(s))
""",
    "spearman": """\
# command = analyze
# table = <table>
# kind = spearman
# threshold = 0.9
# rows = 8
metric,global_sdr,global_mae,global_si_sdr,bsseval_v3_sdr,framewise_sdr_mean
global_sdr,1,-0.964286,0.985611,,
global_mae,-0.964286,1,-1,,
global_si_sdr,0.985611,-1,1,,
bsseval_v3_sdr,,,,,
framewise_sdr_mean,,,,,

spearman correlation report (threshold 0.9)
below threshold: global_mae vs global_si_sdr = -1
below threshold: global_sdr vs global_mae = -0.964286
undefined: bsseval_v3_sdr vs framewise_sdr_mean (only 1 co-present row(s))
undefined: bsseval_v3_sdr vs global_mae (constant values)
undefined: bsseval_v3_sdr vs global_sdr (constant values)
undefined: bsseval_v3_sdr vs global_si_sdr (constant values)
undefined: framewise_sdr_mean vs global_mae (only 0 co-present row(s))
undefined: framewise_sdr_mean vs global_sdr (only 1 co-present row(s))
undefined: framewise_sdr_mean vs global_si_sdr (only 1 co-present row(s))
""",
}


@pytest.mark.parametrize("kind", ["pearson", "spearman"])
def test_analyze_output_matches_recorded(tmp_path, capsys, kind):
    table = tmp_path / "table.csv"
    table.write_text(ANALYZE_TABLE)
    assert run(["analyze", "--table", str(table), "--kind", kind]) == 0
    assert _named(capsys.readouterr().out, table=table) == RECORDED_ANALYZE[kind]


RECORDED_METRIC_TABLE = """\
system_id,song_id,stem,global_sdr,global_mae,global_si_sdr
sys,s0,bass,0.333333333333,,-120
"a,""b",s0,vocals,,1e-20,
sys,s1,drums,123456789.123,0.1,2.5e-07
sys,s2,other,,,
"""


def test_metric_table_csv_matches_recorded():
    table = MetricTable(columns=(MetricId.GLOBAL_SDR, MetricId.GLOBAL_MAE, MetricId.GLOBAL_SI_SDR))
    table.add_row(("sys", "s0", "bass"), {MetricId.GLOBAL_SDR: 1 / 3, MetricId.GLOBAL_SI_SDR: -120.0})
    table.add_row(('a,"b', "s0", "vocals"), {MetricId.GLOBAL_MAE: 1e-20})
    table.add_row(("sys", "s1", "drums"), {MetricId.GLOBAL_SDR: 123456789.123456789, MetricId.GLOBAL_MAE: 0.1,
                                           MetricId.GLOBAL_SI_SDR: 2.5e-7})
    table.add_row(("sys", "s2", "other"), {})
    assert metric_table_to_csv(table) == RECORDED_METRIC_TABLE
