"""Cold and warm call costs of read_wav and metric_suite in a fresh process.

    PYTHONPATH=src python3 perfbench/probe.py REFERENCE.wav ESTIMATE.wav [--suite]

Prints one JSON object: the first call of read_wav (and, with --suite, of
metric_suite) in this process and the median of two later calls.
"""

import json
import statistics
import sys
import time

from demixeval import metric_suite, read_wav


def timed(func, *args):
    started = time.perf_counter()
    value = func(*args)
    return time.perf_counter() - started, value


def main() -> None:
    reference_path, estimate_path = sys.argv[1:3]
    first_read, reference = timed(read_wav, reference_path)
    warm_reads = [timed(read_wav, path)[0] for path in (estimate_path, reference_path)]
    out = {
        "audio_io.read_wav.first_call_s": first_read,
        "audio_io.read_wav.warm_s": statistics.median(warm_reads),
    }
    if "--suite" in sys.argv[3:]:
        estimate = read_wav(estimate_path)
        out["metrics.metric_suite.first_call_s"], _ = timed(metric_suite, reference, estimate)
        out["metrics.metric_suite.warm_s"] = statistics.median(
            timed(metric_suite, reference, estimate)[0] for _ in range(2)
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
