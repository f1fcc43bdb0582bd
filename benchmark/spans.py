"""Spans around the public calls into each cyclogcd module, recorded from
outside the program by wrapping module attributes in the worker process.

A span is [name, start, end, parent, counts]: `parent` is the index of the
enclosing span in the same operation (None at top level) and `counts` holds
the work counts read from the call's arguments and result after the span
closed, so counting never lands inside a layer's time.  `round_metrics`
and `layer_metrics` turn the spans of all rounds into the per-layer metrics.
"""

import functools
import statistics
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def rss_mb() -> float:
    """High-water RSS of this process in MB.

    Read from VmHWM, which starts afresh at exec; ru_maxrss would carry over
    the size of the benchmark process that spawned the worker.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, now(), None, self._stack[-1] if self._stack else None, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
            return result

        return traced


def install(label: str) -> Tracer:
    """Wrap the public functions the operation `label` reaches.

    Names are patched where the caller looks them up: cli.py imported its
    entry points by name, the modules look up their helpers as globals.
    """
    from cyclogcd import arith, champion, cli, density, ffield, residues

    tracer = Tracer()

    def patch(module, attr, name, counts=None):
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, counts))

    sieve = tracer.wrap(arith.primes_in_range, "arith.sieve", lambda a, r: {"primes": len(r)})
    for module in (arith, champion, density, residues):
        module.primes_in_range = sieve

    patch(cli, "empirical_density", "density.count", lambda a, r: {"qualified": r.count})
    patch(density, "predicted_density", "density.predict")
    patch(density, "li", "density.predict")
    patch(cli, "lemma_scan", "residues.lemma",
          lambda a, r: {"qualified": r.qualified_primes, "cases": r.cases_checked})

    patch(cli, "ChampionParams", "champion.setup")
    patch(champion, "build_kernel", "champion.setup")
    patch(champion, "enumerate_pairs", f"{label}.enumerate",
          lambda a, r: {"pairs": len(r), "rss_mb": rss_mb()})
    patch(champion, "pigeonhole_champion", f"{label}.pigeonhole",
          lambda a, r: {"rss_mb": rss_mb(), "representations": len(r.representations),
                        "distinct_n": len({m * ((p - 1) // a[2]) for m, p in a[0]})})
    patch(champion, "verify_champion", "champion.verify")

    patch(cli, "fq_context", "ffield.construct")
    patch(cli, "ff_construction", "ffield.construct")
    patch(cli, "ff_scan", f"{label}.scan",
          lambda a, r: {"candidates": a[0].big.q ** a[1], "irreducibles": r.total_irreducible,
                        "qualifying": r.count})
    patch(cli, "ff_direct_verify", "ffield.verify", lambda a, r: {"deg_gcd": r.deg_gcd})
    patch(ffield, "poly_pow", "ffield.power")
    patch(ffield, "eval_poly_fq", "cyclotomic.eval")
    patch(ffield, "poly_gcd", "ffield.gcd")
    return tracer


# in the order of BENCHMARK.json
LAYER_METRICS = (
    "arith.sieve_s", "arith.primes_sieved",
    "density.count_s", "density.qualify_s", "density.primes_qualified", "density.predict_s",
    "residues.lemma_s", "residues.lemma_qualified", "residues.cases_checked",
    "champion.setup_s", "champion.enumerate_s", "champion.mixed.enumerate_s",
    "champion.pigeonhole_s", "champion.mixed.pigeonhole_s",
    "champion.enumerate_rss_mb", "champion.pigeonhole_rss_mb", "champion.verify_s",
    "champion.pairs", "champion.mixed.pairs", "champion.distinct_n", "champion.representations",
    "ffield.construct_s", "ffield.ext.scan_s", "ffield.prime.scan_s", "ffield.power_s",
    "cyclotomic.eval_s", "ffield.gcd_s", "ffield.pi_check_s",
    "ffield.candidates", "ffield.irreducibles", "ffield.qualifying_pi", "ffield.deg_gcd",
)

# span name -> metric name, for metrics that are the summed duration of a span
_TIMES = {
    "arith.sieve": "arith.sieve_s",
    "density.count": "density.count_s",
    "density.predict": "density.predict_s",
    "residues.lemma": "residues.lemma_s",
    "champion.setup": "champion.setup_s",
    "champion.enumerate": "champion.enumerate_s",
    "champion.mixed.enumerate": "champion.mixed.enumerate_s",
    "champion.pigeonhole": "champion.pigeonhole_s",
    "champion.mixed.pigeonhole": "champion.mixed.pigeonhole_s",
    "champion.verify": "champion.verify_s",
    "ffield.construct": "ffield.construct_s",
    "ffield.ext.scan": "ffield.ext.scan_s",
    "ffield.prime.scan": "ffield.prime.scan_s",
    "ffield.power": "ffield.power_s",
    "cyclotomic.eval": "cyclotomic.eval_s",
    "ffield.gcd": "ffield.gcd_s",
}

# (span name, count key) -> metric name, for counts summed over a round
_COUNTS = {
    ("arith.sieve", "primes"): "arith.primes_sieved",
    ("density.count", "qualified"): "density.primes_qualified",
    ("residues.lemma", "qualified"): "residues.lemma_qualified",
    ("residues.lemma", "cases"): "residues.cases_checked",
    ("champion.enumerate", "pairs"): "champion.pairs",
    ("champion.mixed.enumerate", "pairs"): "champion.mixed.pairs",
    ("champion.pigeonhole", "distinct_n"): "champion.distinct_n",
    ("champion.pigeonhole", "representations"): "champion.representations",
    ("ffield.ext.scan", "candidates"): "ffield.candidates",
    ("ffield.prime.scan", "candidates"): "ffield.candidates",
    ("ffield.ext.scan", "irreducibles"): "ffield.irreducibles",
    ("ffield.prime.scan", "irreducibles"): "ffield.irreducibles",
    ("ffield.ext.scan", "qualifying"): "ffield.qualifying_pi",
    ("ffield.prime.scan", "qualifying"): "ffield.qualifying_pi",
    ("ffield.verify", "deg_gcd"): "ffield.deg_gcd",
}

# (span name, count key) -> metric name, for high-water marks taken as a maximum
_PEAKS = {
    ("champion.enumerate", "rss_mb"): "champion.enumerate_rss_mb",
    ("champion.pigeonhole", "rss_mb"): "champion.pigeonhole_rss_mb",
}


def round_metrics(ops: list[tuple[list, float]]) -> dict[str, float]:
    """Per-layer values of one round, from each operation's spans and the
    factor that scales its wall times to the reference host speed."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for spans, scale in ops:
        for i, (name, start, end, parent, counts) in enumerate(spans):
            dur = (end - start) * scale
            if name in _TIMES:
                out[_TIMES[name]] += dur
            for key, value in counts.items():
                if (name, key) in _COUNTS:
                    out[_COUNTS[name, key]] += value
                if (name, key) in _PEAKS:
                    out[_PEAKS[name, key]] = max(out[_PEAKS[name, key]], value)
            if name == "density.count":
                sieve = sum((e - s) * scale for n, s, e, p, _ in spans if p == i and n == "arith.sieve")
                out["density.qualify_s"] += dur - sieve
            elif name == "ffield.verify":
                # self time: the per-pi remainder loop plus the small glue around it
                children = sum((e - s) * scale for _, s, e, p, _ in spans if p == i)
                out["ffield.pi_check_s"] += dur - children
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb") else "count"


def layer_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds of each per-layer value."""
    return {name: statistics.median(r[name] for r in rounds) for name in LAYER_METRICS}
