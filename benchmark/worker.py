"""One benchmark operation in a fresh process.

    python3 worker.py SRC_DIR LABEL TRACE REPORT_PATH ARG...

Imports cyclogcd from SRC_DIR, notes when the import finished, times a
calibration kernel, runs `cyclogcd.cli.main(ARG... --jobs 1 --out
REPORT_PATH)`, times the kernel again and prints one JSON line with the
timestamps, the exit code, the high-water RSS and, with TRACE = 1, the spans.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])
import cyclogcd.cli  # noqa: E402  (the import is part of the measured set-up)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402

import spans  # noqa: E402


def calibration_kernel() -> None:
    """Fixed pure-Python work in three parts like the program's own: integer
    arithmetic, a bytearray sieve with modular powers, and small tuples
    grouped in a dict.  Its time tracks how fast this host runs Python
    code at the moment; the parts run in small batches, so the kernel adds
    almost nothing to the worker's RSS high-water mark."""
    s = 0
    for i in range(40000):
        s += i * i % 7
    flags = bytearray(b"\x01") * 100000
    for p in range(2, 317):
        if flags[p]:
            flags[p * p :: p] = bytes(len(flags[p * p :: p]))
    for p in [i for i in range(3, 100000) if flags[i]][:1500]:
        s += pow(5, (p - 1) // 2, p)
    for _ in range(8):
        groups = {}
        for m, p in [(i, i * 7 % 1009) for i in range(2000)]:
            groups.setdefault(m * p % 503, []).append((m, p))


def calibrate(times: int = 4) -> list[float]:
    out = []
    for _ in range(times):
        t0 = spans.now()
        calibration_kernel()
        out.append(spans.now() - t0)
    return out


def main() -> None:
    label, tracing, report_path = sys.argv[2], sys.argv[3] == "1", sys.argv[4]
    argv = sys.argv[5:] + ["--jobs", "1", "--out", report_path]
    before = calibrate()
    tracer = spans.install(label) if tracing else None
    start = spans.now()
    rc = cyclogcd.cli.main(argv)
    end = spans.now()
    after = calibrate()
    print(json.dumps({
        "ready": READY, "start": start, "end": end, "rc": rc,
        "calibration": before + after, "rss_mb": spans.rss_mb(),
        "spans": tracer.spans if tracer else [],
    }))


if __name__ == "__main__":
    main()
