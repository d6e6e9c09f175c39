import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from demixeval.analysis import MetricTable, metric_table_to_csv
from demixeval.audio_io import StemKind, Waveform, load_manifest, read_wav, write_wav
from demixeval.cli import run
from demixeval.metrics import MetricId
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


def test_plan_non_integer_sample_rate(dataset, tmp_path, capsys):
    doc = json.loads(dataset.read_text())
    doc["sample_rate"] = "abc"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    assert run(["plan", "--manifest", str(path), "--seed", "0"]) == 1
    _assert_error_line(capsys)


def _assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
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


def _set(*keys, value):
    """An edit of a JSON document that sets doc[keys[0]][keys[1]]... to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        ("latin-1", "not valid JSON ('utf-8' codec can't decode"),
        (_set("songs", value=5), "songs must be a JSON list, got 5"),
        (_set("songs", 0, "stems", "bass", value=3), "stem 'bass' path must be a JSON string, got 3"),
        (_set("songs", 0, "mixture", value=["mix.wav"]), "mixture path must be a JSON string, got ['mix.wav']"),
        (_set("songs", 0, "other_instruments", value=3), "other_instruments must be a JSON list, got 3"),
        (_set("songs", 0, "other_instruments", value="gtr"), "other_instruments must be a JSON list, got 'gtr'"),
        (_set("songs", 0, "silent_stems", value=3), "silent_stems must be a JSON list, got 3"),
        (_set("songs", 0, "silent_stems", value="bass"), "silent_stems must be a JSON list, got 'bass'"),
        (_set("songs", 0, "silent_stems", value=[3]), "unknown stem kind 3"),
        (_set("songs", 0, "is_demo", value="false"), "is_demo must be a JSON boolean, got 'false'"),
        ("table", "not UTF-8 text ('utf-8' codec can't decode"),
        (_set("songs", 0, "song_id", value=["a"]), "song record 0: song_id must be a JSON string, got ['a']"),
        (_set("songs", 0, "song_id", value=7), "song record 0: song_id must be a JSON string, got 7"),
        (_set("sample_rate", value=4000.9), "sample_rate must be a JSON integer, got 4000.9"),
        (_set("sample_rate", value=16000.0), "sample_rate must be a JSON integer, got 16000.0"),
        (_set("sample_rate", value="16000"), "sample_rate must be a JSON integer, got '16000'"),
        (_set("sample_rate", value=True), "sample_rate must be a JSON integer, got True"),
    ],
    ids=["manifest-latin-1", "songs", "stem-path", "mixture", "other-int", "other-str",
         "silent-int", "silent-str", "silent-member", "is-demo-str", "table-latin-1",
         "song-id-list", "song-id-int", "rate-fraction", "rate-float", "rate-str", "rate-bool"],
)
def test_malformed_manifest_or_table_ends_in_error(dataset, tmp_path, capsys, edit, message):
    path = tmp_path / "input"
    if edit == "table":
        path.write_bytes("system_id,song_id,stem,global_sdr\nsyst\u00e8me,a,bass,1.0\n".encode("latin-1"))
        args = ["analyze", "--table", str(path), "--kind", "pearson"]
    else:
        doc = json.loads(dataset.read_text())
        if edit == "latin-1":
            doc["songs"][0]["title"] = "Caf\u00e9"
            path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        else:
            edit(doc)
            path.write_text(json.dumps(doc))
        args = ["plan", "--manifest", str(path), "--seed", "0"]
    assert run(args) == 1
    _assert_one_error_line(capsys, message)


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
    ],
    ids=["rounds-str", "rounds-7", "repeated-song", "sdr-str", "sdr-nan", "stem-str", "stem-inf",
         "seed-fraction", "excluded-str", "system-id-list"],
)
def test_rank_rejects_mistyped_score_document(score_document, tmp_path, capsys, edit, message):
    doc = json.loads(json.dumps(score_document))
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["rank", "--scores", str(path)]) == 1
    _assert_one_error_line(capsys, message)


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
