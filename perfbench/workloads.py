"""The fixed job matrix of the benchmark.

A job is one certificate request as a user would make it: a field, an
exponent n, a norm bound B and a search cap.  Each workload is a tuple of
jobs chosen to load one layer of the package and bypass the others; the
reasons are recorded beside each workload below and in BENCHMARK.json.
"""

import random
from dataclasses import dataclass

DEFAULT_CAP = 10_000_000  # the package's default entries per conductor search


@dataclass(frozen=True)
class Job:
    field: str  # "q" or "disc=<D>", the CLI's --field spelling
    n: int
    bound: int
    cap: int = DEFAULT_CAP
    # True where running into the cap is the expected answer today; a job
    # marked False that exhausts counts as failed
    may_exhaust: bool = False

    @property
    def disc(self):
        """Discriminant of the base field, or None for the rationals."""
        return None if self.field == "q" else int(self.field[len("disc="):])

    @property
    def label(self):
        name = "Q" if self.disc is None else f"K({self.disc})"
        return f"{name} n={self.n} B={self.bound} cap={self.cap}"


WORKLOADS = {
    # Rational conductor searches over long progressions: the search is
    # over 95% of construct and the tables are small.  Each job takes
    # under a second, so a run times every job ten times or more.
    "q-search": (
        Job("q", 3, 5000),
        Job("q", 13, 2000),
        Job("q", 11, 3000),
        Job("q", 4, 250),
    ),
    # Imaginary quadratic searches, where ideal arithmetic and primality
    # of every progression entry dominate; the last two jobs are the
    # deficient-prime family, the only jobs that take the Kummer path.
    "k-search": (
        Job("disc=-23", 4, 200),
        Job("disc=-23", 8, 50),
        Job("disc=-23", 3, 1000),
        Job("disc=-8", 2, 1000),
        Job("disc=-56", 4, 200),
    ),
    # Large tables with short searches: per-row Frobenius work in table
    # fill and verify, megabyte documents, and the composite path.
    "wide-table": (
        Job("q", 2, 100000),
        Job("disc=-23", 2, 10000),
        Job("q", 10, 5000),
    ),
    # Searches that run to the cap, so work is fixed by the cap and the
    # cost per scanned entry shows.  The last job is the reachable side of
    # the Q n=5 frontier; it gives the workload a certificate to verify.
    "frontier": (
        Job("q", 4, 5000, 250_000, may_exhaust=True),
        Job("q", 5, 20000, 250_000, may_exhaust=True),
        Job("q", 8, 240, 250_000, may_exhaust=True),
        Job("disc=-23", 4, 1000, 25_000, may_exhaust=True),
        Job("q", 5, 5000, 250_000),
    ),
    # One tiny job for the harness's own test; not in BENCHMARK.json.
    "smoke": (Job("q", 2, 100),),
}


def jobs_for(workload: str, seed: int) -> list:
    """The workload's jobs in the order set by seed; seed 0 keeps the
    listed order.  The jobs themselves never depend on the seed."""
    jobs = list(WORKLOADS[workload])
    if seed:
        random.Random(seed).shuffle(jobs)
    return jobs
