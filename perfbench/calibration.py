"""Drift normalisation: a fixed pure-Python calibration loop.

The host's speed wobbles by tens of percent from one second to the next
and drifts by up to a third over minutes. Each timed interval is divided
by the calibration loop's mean duration over that interval and
multiplied by NOMINAL_CAL_S, so normalised seconds are seconds on a host
where one pass takes NOMINAL_CAL_S.

A pass runs while foleq is idle: two passes right before and right after
each timed interval, and one pass every SAMPLE_INTERVAL_S inside it
(more often inside the short set-up),
from a SIGALRM handler that pauses foleq between two bytecodes. The
handler's time is taken out of the interval. Sampling inside the
interval matters: a pair of several seconds sees the host change speed
while it runs, which passes next to it cannot tell.

The loop is a small tree-walking evaluator of fixed quantified formulas
over fixed random structures: the same kind of work as foleq's hot path
(recursion, dispatch on node tags, frozenset membership, dict
environments, allocation), but sharing no code with foleq, so a change to
foleq cannot change it. The collector is off during a pass, so a
collection that foleq's garbage triggers is not charged to the loop.
"""

from __future__ import annotations

import gc
import itertools
import random
import signal
import statistics
import time

# Median duration of one pass on the host the reference figures in
# README.md were measured on.
NOMINAL_CAL_S = 0.002
SAMPLE_INTERVAL_S = 0.02        # inside a pair
SETUP_SAMPLE_INTERVAL_S = 0.01  # inside a set-up, which lasts about 0.2 s
PASSES_AROUND = 2


def _formula(rng: random.Random, depth: int, variables: list[str]):
    if depth == 0 or rng.random() < 0.3:
        rel = rng.choice("PQR")
        arity = 2 if rel == "R" else 1
        return ("R", rel, tuple(rng.choice(variables) for _ in range(arity)))
    op = rng.choice("~&|AE")
    if op == "~":
        return ("~", _formula(rng, depth - 1, variables))
    if op in "AE":
        var = f"x{len(variables)}"
        return (op, var, _formula(rng, depth - 1, variables + [var]))
    return (op, _formula(rng, depth - 1, variables), _formula(rng, depth - 1, variables))


_rng = random.Random(5)
_FORMULAS = [("A", "x0", _formula(_rng, 4, ["x0"])) for _ in range(6)]


def _holds(g, s: dict, env: dict) -> bool:
    op = g[0]
    if op == "R":
        return tuple(env[v] for v in g[2]) in s[g[1]]
    if op == "~":
        return not _holds(g[1], s, env)
    if op == "&":
        return _holds(g[1], s, env) and _holds(g[2], s, env)
    if op == "|":
        return _holds(g[1], s, env) or _holds(g[2], s, env)
    for e in range(s["size"]):
        env[g[1]] = e
        if _holds(g[2], s, env) != (op == "A"):
            return op != "A"
    return op == "A"


def calibrate() -> float:
    """Seconds taken by one pass of the calibration loop (about 2 ms)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        true = 0
        for i in range(30):
            size = 2 + i % 3
            s = {"size": size}
            for rel, arity in (("P", 1), ("Q", 1), ("R", 2)):
                s[rel] = frozenset(t for t in itertools.product(range(size), repeat=arity)
                                   if rng.random() < 0.5)
            for f in _FORMULAS:
                true += _holds(f, s, {})
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    if true == 0:
        raise AssertionError("calibration loop evaluated nothing to true")
    return elapsed


def factor(passes: list[float]) -> float:
    """Nominal over the mean pass duration, each pass capped at three
    times the median so that one pass cut short by the scheduler cannot
    swing a short interval."""
    cap = 3 * statistics.median(passes)
    return NOMINAL_CAL_S / statistics.fmean(min(p, cap) for p in passes)


class Sampler:
    """Calibration passes next to and inside timed intervals."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.passes = [calibrate() for _ in range(PASSES_AROUND)]
        self.paused = 0.0
        self.measuring = False

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.passes.append(calibrate())
        self.paused += time.perf_counter() - start
        # The one-shot timer is re-armed after the pass, so passes never
        # nest. A handler that runs after the interval ended must not
        # re-arm it: an alarm after the default action is back in place
        # would kill the process.
        if self.measuring:
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def measure(self, fn, *args, **kwargs):
        """(raw seconds, normalised seconds, result) of one call; the raw
        seconds exclude the passes run inside the call."""
        first = len(self.passes) - PASSES_AROUND
        self.paused = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.measuring = True
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.measuring = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        raw = end - start - self.paused
        self.passes += [calibrate() for _ in range(PASSES_AROUND)]
        return raw, raw * factor(self.passes[first:]), result


class PairClock:
    """Times the pairs of one round."""

    def __init__(self):
        self.sampler = Sampler()
        self.raw: list[float] = []
        self.normalised: list[float] = []
        self.start = time.perf_counter()

    def time(self, fn, *args, **kwargs):
        raw, normalised, result = self.sampler.measure(fn, *args, **kwargs)
        self.raw.append(raw)
        self.normalised.append(normalised)
        return result

    def finish(self) -> tuple[float, float]:
        """(raw, normalised) seconds of the round. Time between pairs
        outside the calibration passes (batch report aggregation) counts
        too, normalised by the round's mean pass."""
        wall = time.perf_counter() - self.start
        passes = self.sampler.passes
        between = max(0.0, wall - sum(self.raw) - sum(passes[PASSES_AROUND:]))
        return (sum(self.raw) + between,
                sum(self.normalised) + between * factor(passes))


def timed_setup(fn, *args, **kwargs):
    """(raw seconds, normalised seconds, result) of one set-up call."""
    return Sampler(SETUP_SAMPLE_INTERVAL_S).measure(fn, *args, **kwargs)
