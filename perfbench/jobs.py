"""Jobs, their timed regions, and the correctness gate.

A workload is a list of jobs run in order by one client (closed loop: the
next job starts when the previous one has returned).  A job is a callable
taking a :class:`Clock`; it wraps the library calls it makes in
``clock.timed()`` or ``clock.step(...)`` and checks the outputs afterwards
with :func:`expect_close` / :func:`expect`, outside the timed region, so a
pass time is the time the library spent producing the pass's outputs.

A job fails if it raises or if one of its checks fails.  A failed check
also marks the run as incorrect; a raise only counts as a failure.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field
from time import perf_counter

# The library's exactness contracts: residuals and invariants hold to this.
TOL = 1e-12


class GateError(AssertionError):
    """A job's output failed its correctness check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def expect_close(what: str, value: float, reference: float, tol: float = TOL) -> None:
    """Fail unless |value - reference| <= tol (NaN fails)."""
    value, reference = float(value), float(reference)
    if not abs(value - reference) <= tol:
        raise GateError(f"{what}: {value!r} differs from {reference!r} by more than {tol:g}")


class Clock:
    """Accumulates the timed regions of one pass and its per-step latencies."""

    def __init__(self):
        self.busy = 0.0
        self.steps: list[float] = []

    @contextlib.contextmanager
    def timed(self):
        start = perf_counter()
        try:
            yield
        finally:
            self.busy += perf_counter() - start

    def step(self, fn, *args):
        """Time one evolution step (step plus readout) as a step sample."""
        start = perf_counter()
        out = fn(*args)
        elapsed = perf_counter() - start
        self.busy += elapsed
        self.steps.append(elapsed)
        return out


@dataclass(frozen=True)
class Job:
    name: str
    run: object  # callable(Clock) -> None


@dataclass(frozen=True)
class Outcome:
    job: str
    status: str  # "ok", "raised" or "gate"
    message: str = ""


@dataclass
class PassResult:
    """Per job, in job-list order: timed seconds, step latencies and outcome."""

    job_times: list[float] = field(default_factory=list)
    job_steps: list[list[float]] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)

    @classmethod
    def from_dict(cls, doc: dict) -> "PassResult":
        return cls(doc["job_times"], doc["job_steps"], [Outcome(**o) for o in doc["outcomes"]])

    @property
    def busy(self) -> float:
        return sum(self.job_times)

    @property
    def steps(self) -> list[float]:
        return [s for steps in self.job_steps for s in steps]

    @property
    def failed(self) -> int:
        return sum(o.status != "ok" for o in self.outcomes)

    @property
    def gate_failures(self) -> int:
        return sum(o.status == "gate" for o in self.outcomes)


def run_job(job: Job, clock: Clock) -> Outcome:
    """Run one job, capturing its console output; never raises for job errors."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            job.run(clock)
    except GateError as exc:
        return Outcome(job.name, "gate", str(exc))
    except Exception as exc:  # a job that raises is counted, and the pass goes on
        last = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
        return Outcome(job.name, "raised", f"{type(exc).__name__} at {where}: {exc}")
    return Outcome(job.name, "ok")


def run_pass(jobs: list[Job]) -> PassResult:
    result = PassResult()
    for job in jobs:
        clock = Clock()
        result.outcomes.append(run_job(job, clock))
        result.job_times.append(clock.busy)
        result.job_steps.append(clock.steps)
    return result
