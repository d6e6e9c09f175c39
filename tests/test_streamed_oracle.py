"""The oracles streamed a chunk of STFT frames at a time.

`oracle` output files and stdout are pinned to values recorded before the
oracles streamed, for three STFT geometries and two --jobs values. The
estimates do not depend on the chunk size, a rejected song leaves no output
file, and one song's working set does not grow with its length.
"""

import hashlib
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

from demixeval import oracle
from demixeval.audio_io import (SongEntry, StemKind, Waveform, load_manifest, read_wav, remove_unfinished_writes,
                                 write_wav, write_wav_blocks)
from demixeval.cli import _oracle_task, run
from demixeval.errors import InvalidInputError
from demixeval.oracle import OracleConfig, ideal_mwf, ideal_swf
from demixeval.synth import make_dataset, make_song

from helpers import write_encoded_wav

RATE = 8000


def _synth_dataset(root):
    """A 2-song 5-s 8 kHz synth dataset; syn_001's bass is silent.

    Drums are re-encoded as PCM16 and other as PCM24, so the oracles read
    every codec.
    """
    manifest_path = make_dataset(root, n_songs=2, duration=5, sample_rate=RATE, seed=11,
                                 silent_bass_indices=(1,))
    for entry in load_manifest(manifest_path).songs:
        for kind, codec in ((StemKind.DRUMS, "pcm16"), (StemKind.OTHER, "pcm24")):
            values = read_wav(entry.stem_paths[kind]).samples.T
            write_encoded_wav(entry.stem_paths[kind], codec, values, RATE)
    return manifest_path


@pytest.fixture(scope="module")
def synth_dataset(tmp_path_factory):
    return _synth_dataset(tmp_path_factory.mktemp("streamed_oracle"))


def _oracle(manifest_path, kind, fft, hop, jobs, out, capsys):
    args = ["oracle", "--manifest", str(manifest_path), "--kind", kind, "--out", str(out),
            "--fft", str(fft), "--hop", str(hop), "--jobs", str(jobs)]
    code = run(args)
    captured = capsys.readouterr()
    varying = ("# manifest = ", "# out = ", "# jobs = ")
    kept = "".join(line for line in captured.out.splitlines(True) if not line.startswith(varying))
    hashes = {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*.wav"))
    }
    return code, kept, captured.err, hashes


# sha256 of every `oracle` output file, recorded before the oracles streamed
RECORDED_SHA256 = {
    ('baseline', 4096, 1024): {
        'syn_000/bass.wav': 'fde80045ead4f4405e4c8a8eb36227c31cb02812201ebf83f66c7e256e93d566',
        'syn_000/drums.wav': 'fde80045ead4f4405e4c8a8eb36227c31cb02812201ebf83f66c7e256e93d566',
        'syn_000/other.wav': 'fde80045ead4f4405e4c8a8eb36227c31cb02812201ebf83f66c7e256e93d566',
        'syn_000/vocals.wav': 'fde80045ead4f4405e4c8a8eb36227c31cb02812201ebf83f66c7e256e93d566',
        'syn_001/bass.wav': '1466284f28de9087bc8c58d4b2b47a86b27ad05b0eebb5bf7e1bcee0ed0c8b28',
        'syn_001/drums.wav': '1466284f28de9087bc8c58d4b2b47a86b27ad05b0eebb5bf7e1bcee0ed0c8b28',
        'syn_001/other.wav': '1466284f28de9087bc8c58d4b2b47a86b27ad05b0eebb5bf7e1bcee0ed0c8b28',
        'syn_001/vocals.wav': '1466284f28de9087bc8c58d4b2b47a86b27ad05b0eebb5bf7e1bcee0ed0c8b28',
    },
    ('swf', 4096, 1024): {
        'syn_000/bass.wav': 'aff392829548c10e258177c23d60d963f3a5090750a47a48eea219bc5ac0aaff',
        'syn_000/drums.wav': '7a76611ce35a49b3a5487a0da793121e0fe952c4d77c703051fe52c325c2dc92',
        'syn_000/other.wav': 'a8fa16bd3e5208d45175d2c042b52bf7a483416de07018524ca6b17b54197dbe',
        'syn_000/vocals.wav': 'fe5502d3053d952965761193a2af37d8c27ff156923c0a0281e6a5fda21b9836',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': '93d60abe89a0eb79486b3134d1c3bde10ebbc10aaacb7340fee8f10d679b1864',
        'syn_001/other.wav': 'a6c1f61f1f107605885ba77d969b02b8554883cc2ab206f82d1e53e89abea4cb',
        'syn_001/vocals.wav': 'fb5b6d139dcbf4b7652829315377c3a6781b85ba78d4dcaa0b0c9795893bce81',
    },
    ('swf', 256, 64): {
        'syn_000/bass.wav': '30659cd30075bb4df48560b9985415f15a5d7f82df2be1e0f611d11a3875be1c',
        'syn_000/drums.wav': '8babe918dff4ba3a54bc6cdc0a724e01ab89f8b19d217ce11b32ba921553223c',
        'syn_000/other.wav': '57974c5ac84479a04da9b47fd87a502f0d67366aee7e85f27c1f12f3a87f8818',
        'syn_000/vocals.wav': 'f5e33ac774913361722b47c437ececa84e2b3554fa125051a2ef08fdd7e4e964',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': '49002c6b14f24fe6e4ee8cde7b7c0435acca029bb1e3b753eac528bb33202b98',
        'syn_001/other.wav': '6a0a267af7f4a0bd513bdda7b0700e7e5a56d4c257f7325d5ed33b9995017b30',
        'syn_001/vocals.wav': 'c33f4df2452caeaf42b630ee53b00018b32c24a652b741de0dc066bc477057d9',
    },
    ('swf', 1024, 300): {
        'syn_000/bass.wav': '338707c3cde2791a9703d9a6334ce0df83965141b268e024587d62389978bed7',
        'syn_000/drums.wav': '6b606b0dfa2f52e39a89d0ebe79dee0e02a59222cfbd9dd9fd95e154a8e5ec20',
        'syn_000/other.wav': '0496e71e71dd3f18f2d6a58b482d5553025e8ff8291b4f8b5063353e7258aa5b',
        'syn_000/vocals.wav': 'd9a273feddb3fda1b7bf64fc05a544b8ed3b62c5ca9e74d2619b721da88280d0',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': '17b719b0aa2612220e3c74badcb1863f7fd3a310af0110e154f259d7c7903288',
        'syn_001/other.wav': '0e6d67835b38f64a22c72697718d4adc606d764863b76fc97394071ec601ab78',
        'syn_001/vocals.wav': 'b65c33985246e76d011e6eb1b164d8dc942e3057d7c06710f0d742433389c4ab',
    },
    ('mwf', 4096, 1024): {
        'syn_000/bass.wav': 'a8b91f370baafe516ce90d48866a82997de853c4956ed97be59e11ecf1785f41',
        'syn_000/drums.wav': '954440421e92be492bc72c3678cb65d0b2d5cb01bea013aa134073f2b15e9b5f',
        'syn_000/other.wav': '8e198ad0b6d9520702caae8baa8b29e95dab29151db91326f25d790237e729cd',
        'syn_000/vocals.wav': '279c819eb84ee950418861aeb60e43fc66470139ec4afb2924246df5120aa5be',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': 'eda49162a23ac45294185929b4784aa6ad6e9224ffe428fa252b0773b2502828',
        'syn_001/other.wav': 'dbea59bc4202c5a1b1abe74d33438d6bc02caa2272fa18b6ae5790d1a81408a7',
        'syn_001/vocals.wav': '124324a240f584ebf0ccba15ed2fc9455df986cc7de71328819c3392de018438',
    },
    ('mwf', 256, 64): {
        'syn_000/bass.wav': 'f8615a3083fce308ff8a302bff3540037268b1044f9ba8c08c2afdc8654ecda4',
        'syn_000/drums.wav': '56eaf06b40f71bff760d5204c8829d404b533f99a12cd7ace03d8d25d0e627b5',
        'syn_000/other.wav': '38fe3391d6bb3be8021a3ff220897fea67665af4f43e45463386fc360d1749e3',
        'syn_000/vocals.wav': '19e44761d3dc9c8b496d77376b240ef4e13deaefd46982b2f0ae1776434852d5',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': 'cd2820f69c492656002b26e82354cf0d5f35b2053e5c86b2bf51fc1c42376687',
        'syn_001/other.wav': 'bcf966c002c1a55db10e335909f3f7a0f24c9a56eabb705f3f403a9db261fe1b',
        'syn_001/vocals.wav': '22f26ca44f452f61ed3d5319e3e1a3c9998becefe44c891c35ac5813e8f3dd1d',
    },
    ('mwf', 1024, 300): {
        'syn_000/bass.wav': '42731170c96805a3bf32de92d12bd03a8d87200974ea8c3f0b8bb6bb7d40b7fb',
        'syn_000/drums.wav': 'a373330993738ca6c910fecfa6e43d98ad4bfa6d214ec548a968e15c1d27b1bb',
        'syn_000/other.wav': '40b9f41e143ce06e0f339c857654655aa45fce7487165e607b4029311f268b4f',
        'syn_000/vocals.wav': 'd7041436730d3a610d27401b01b0a918f489a5d70e8416afcf11f1f5218e2794',
        'syn_001/bass.wav': '1274eda744768ac5f0304b4c765132ec7e3d51415639dd6fad555eb12695589b',
        'syn_001/drums.wav': '13219439a1067abd67d38eedf61fa40318c48aeddbd3ecbade94b4d98fd1a2ec',
        'syn_001/other.wav': '8cae47aa4e69a1d7c5b827788634b9ae5abeac2d96e255382823146fa4da3197',
        'syn_001/vocals.wav': '85be9140188e3a8e50adfd6b74dbdaa9e4b8c9109c806844ad3aa22a71ed04a8',
    },
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "kind, fft, hop",
    [("baseline", 4096, 1024)]
    + [(kind, fft, hop) for kind in ("swf", "mwf") for fft, hop in ((4096, 1024), (256, 64), (1024, 300))],
)
def test_oracle_output_matches_recorded(synth_dataset, tmp_path, capsys, kind, fft, hop, jobs):
    code, stdout, err, hashes = _oracle(synth_dataset, kind, fft, hop, jobs, tmp_path / "out", capsys)
    assert (code, err) == (0, "")
    assert stdout == (
        f"# command = oracle\n# kind = {kind}\n# fft = {fft}\n# hop = {hop}\n"
        "wrote syn_000\nwrote syn_001\n"
    )
    assert hashes == RECORDED_SHA256[kind, fft, hop]


# sha256 of the float64 estimates, all four stems in StemKind order, recorded
# before the oracles streamed; float32 output files can hide a changed
# summation order
RECORDED_FLOAT64_SHA256 = {
    ('swf', 4096, 1024): "f7426caccb5fb34a52196e553866c46124452c59d15d1fc7ba8b0b6cb88870c8",
    ('mwf', 4096, 1024): "033b170165bb111c122280e803900c1b49144c498d4727beb68dac7596f397ed",
    ('swf', 256, 64): "ff326a873287d7331d2fcaeba231e4ce4e4ab1fa2e7e1ee9a3fe5d82cc806fa9",
    ('mwf', 256, 64): "106e7584a4dd41e6eb990c46ccb4836a908a0dd62d21abc52f6c1063e34bca2e",
    ('swf', 1024, 300): "7d769bbdbc0cf40623b9420441054a92dc8a10f6b0d83ccd160d8fbfa2c0e179",
    ('mwf', 1024, 300): "f77c0dfac0989e6799436af88939eca2eddd8d0090e15c50383dcba58142c730",
}


@pytest.mark.parametrize("kind, fft, hop", list(RECORDED_FLOAT64_SHA256))
def test_estimates_match_recorded_float64(kind, fft, hop):
    song = make_song(4, duration=5, sample_rate=RATE)
    func = ideal_swf if kind == "swf" else ideal_mwf
    estimates = func(song["mixture"], song["stems"], OracleConfig(fft_size=fft, hop=hop))
    digest = hashlib.sha256(b"".join(estimates[stem].samples.tobytes() for stem in StemKind)).hexdigest()
    assert digest == RECORDED_FLOAT64_SHA256[kind, fft, hop]


# ---------------------------------------------------------------------------
# chunk edges

@pytest.mark.parametrize("chunk_frames", [1, 2, 5, 64])
def test_estimates_do_not_depend_on_chunk_size(monkeypatch, chunk_frames):
    song = make_song(9, duration=1.5, sample_rate=RATE)
    cfg = OracleConfig(fft_size=256, hop=64)
    expected = {
        name: func(song["mixture"], song["stems"], cfg) for name, func in (("swf", ideal_swf), ("mwf", ideal_mwf))
    }
    monkeypatch.setattr(oracle, "_CHUNK_FRAMES", chunk_frames)
    for name, func in (("swf", ideal_swf), ("mwf", ideal_mwf)):
        estimates = func(song["mixture"], song["stems"], cfg)
        for kind in StemKind:
            assert estimates[kind].samples.tobytes() == expected[name][kind].samples.tobytes()


# ---------------------------------------------------------------------------
# rejected songs: one `error:` line, exit 1, and no output file of the song

@pytest.fixture
def broken_copy(synth_dataset, tmp_path):
    dataset = tmp_path / "dataset"
    shutil.copytree(synth_dataset.parent, dataset)
    return dataset / "manifest.json"


def _rewrite(manifest_path, kinds, edit):
    """Rewrite syn_001's files of the given stems (None: the mixture) as edit(values, rate) returns."""
    entry = load_manifest(manifest_path).songs[1]
    for kind in kinds:
        path = entry.mixture_path if kind is None else entry.stem_paths[kind]
        write_encoded_wav(path, "float32", *edit(read_wav(path).samples.T, RATE))


def _assert_rejected(manifest_path, kind, jobs, capsys, message):
    out = manifest_path.parent.parent / "out"
    code, stdout, err, hashes = _oracle(manifest_path, kind, 4096, 1024, jobs, out, capsys)
    assert code == 1
    assert err == f"error: {message}\n"
    assert not (out / "syn_001").exists() or list((out / "syn_001").iterdir()) == []
    if jobs == 1:
        assert sorted(hashes) == [f"syn_000/{stem.value}.wav" for stem in StemKind]


@pytest.mark.parametrize(
    "kind, kinds, edit, message",
    [
        ("swf", [StemKind.DRUMS], lambda v, r: (v[:-1000], r),
         "stem drums shape (2, 39000) does not match mixture shape (2, 40000)"),
        ("mwf", [StemKind.VOCALS], lambda v, r: (v, 2 * r), "stem vocals sample rate differs from the mixture"),
        ("mwf", [None, *StemKind], lambda v, r: (v[:, :1], r),
         "the multichannel Wiener oracle needs 2 channels, got 1"),
        ("swf", [None, *StemKind], lambda v, r: (v[:4000], r),
         "waveform of 4000 frames is too short for fft_size 4096"),
    ],
    ids=["length", "rate", "mono-mwf", "too-short"],
)
def test_cli_rejects_headers_before_writing(broken_copy, capsys, kind, kinds, edit, message):
    _rewrite(broken_copy, kinds, edit)
    _assert_rejected(broken_copy, kind, 1, capsys, message)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("kind", ["baseline", "swf", "mwf"])
def test_cli_nan_in_last_block_leaves_no_output(broken_copy, capsys, kind, jobs):
    # the last of three blocks; the first chunks' estimates are written by then
    entry = load_manifest(broken_copy).songs[1]
    victim = entry.mixture_path if kind == "baseline" else entry.stem_paths[StemKind.VOCALS]
    raw = bytearray(victim.read_bytes())
    raw[-4:] = struct.pack("<f", float("nan"))
    victim.write_bytes(bytes(raw))
    _assert_rejected(broken_copy, kind, jobs, capsys, f"{victim}: float data contains NaN or Inf")


def test_cli_stopped_workers_leave_no_partial_file(tmp_path, capsys):
    # with two workers syn_002, 20 times longer, is still being written when
    # syn_001's error reaches the parent and the pool stops its worker
    manifest_path = make_dataset(tmp_path / "dataset", n_songs=3, duration=2, sample_rate=RATE, seed=11)
    songs = load_manifest(manifest_path).songs
    songs[1].mixture_path.write_bytes(b"RIFF")
    for path in (songs[2].mixture_path, *songs[2].stem_paths.values()):
        write_wav(Waveform(np.tile(read_wav(path).samples, 20), RATE), path)
    out = tmp_path / "out"
    code, _, err, _ = _oracle(manifest_path, "mwf", 4096, 1024, 2, out, capsys)
    assert code == 1
    assert err == f"error: {songs[1].mixture_path}: not a RIFF/WAVE file\n"
    assert list(out.rglob("*.partial")) == []
    frames = {entry.song_id: read_wav(entry.mixture_path).num_frames for entry in (songs[0], songs[2])}
    for path in out.rglob("*.wav"):  # no truncated file
        assert read_wav(path).num_frames == frames[path.parent.name]



def test_remove_unfinished_writes_touches_only_the_given_files(tmp_path):
    kept = [tmp_path / "a.wav", tmp_path / "c.wav.partial"]
    for path in [*kept, tmp_path / "a.wav.partial"]:
        path.write_bytes(b"")
    # b.wav has no partial file, and a.wav is a file, not a directory
    remove_unfinished_writes([tmp_path / "a.wav", tmp_path / "b.wav", tmp_path / "a.wav" / "c.wav"])
    assert sorted(tmp_path.iterdir()) == kept


class TestBlockWriter:
    def test_blocks_must_fill_the_declared_frames(self, tmp_path):
        paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
        blocks = [np.zeros((2, 1, 10))]
        with pytest.raises(InvalidInputError, match="^blocks hold 10 frames, the header declares 11$"):
            write_wav_blocks(paths, 1, 11, RATE, blocks)
        assert not any(path.exists() for path in paths)

    @pytest.mark.parametrize("block", [np.full((1, 1, 4), np.inf), np.zeros((1, 2, 4))], ids=["inf", "channels"])
    def test_bad_block_removes_the_files(self, tmp_path, block):
        path = tmp_path / "a.wav"
        path.write_bytes(b"left by an earlier run")
        blocks = [np.zeros((1, 1, 4)), block]
        with pytest.raises(InvalidInputError, match="^blocks must be 1 files x 1 channels, finite$"):
            write_wav_blocks([path], 1, 8, RATE, blocks)
        assert list(tmp_path.iterdir()) == []

    def test_files_appear_only_when_complete(self, tmp_path):
        paths = [tmp_path / "a.wav", tmp_path / "b.wav"]

        def blocks():
            yield np.zeros((2, 1, 4))
            # a worker stopped here leaves no truncated .wav behind
            assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav.partial", "b.wav.partial"]
            yield np.ones((2, 1, 4))

        write_wav_blocks(paths, 1, 8, RATE, blocks())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav", "b.wav"]
        assert read_wav(paths[1]).samples.tolist() == [[0.0] * 4 + [1.0] * 4]

    def test_zero_frames_refused_before_opening(self, tmp_path):
        with pytest.raises(InvalidInputError, match="zero frames"):
            write_wav_blocks([tmp_path / "a.wav"], 1, 0, RATE, [])
        assert not (tmp_path / "a.wav").exists()


# ---------------------------------------------------------------------------
# one song's oracle task (read, filter, write) at 44.1 kHz stereo

class TestWorkingSet:
    # one chunk's spectra, inverse frames and filter temporaries for the five
    # signals at 4096/1024: 31 MB measured for SWF and 32 MB for MWF
    PEAK_BOUND = 40_000_000

    @pytest.fixture(scope="class")
    def songs(self, tmp_path_factory):
        """20-s and 60-s songs, each a 2-s synth song repeated."""
        root = tmp_path_factory.mktemp("oracle_working_set")
        segment = make_song(2, duration=2.0, sample_rate=44100)
        entries = {}
        for seconds in (20, 60):
            paths = {kind: root / f"{kind.value}{seconds}.wav" for kind in StemKind}
            for kind, path in paths.items():
                write_wav(Waveform(np.tile(segment["stems"][kind].samples, seconds // 2), 44100), path)
            mixture_path = root / f"mixture{seconds}.wav"
            write_wav(Waveform(np.tile(segment["mixture"].samples, seconds // 2), 44100), mixture_path)
            entries[seconds] = SongEntry(song_id=f"s{seconds}", stem_paths=paths, mixture_path=mixture_path)
        yield root, entries
        shutil.rmtree(root)

    @pytest.mark.parametrize("kind", ["swf", "mwf"])
    def test_peak_bounded_and_flat_in_song_length(self, songs, kind):
        root, entries = songs
        peaks = {}
        for seconds, entry in entries.items():
            tracemalloc.start()
            try:
                _oracle_task((entry, kind, OracleConfig(), root / kind))
                peaks[seconds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert read_wav(root / kind / entry.song_id / "vocals.wav").num_frames == seconds * 44100
            shutil.rmtree(root / kind / entry.song_id)
        # one decoded 60-s stereo stem alone is 42 MB
        assert peaks[60] < self.PEAK_BOUND
        assert peaks[60] <= 1.1 * peaks[20]
