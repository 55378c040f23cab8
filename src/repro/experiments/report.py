"""EXPERIMENTS.md generation: run everything, record paper-vs-measured.

``write_report`` runs every experiment through one
:func:`~repro.experiments.run_all` and renders a markdown report that,
per table/figure, states what the paper reports, what this
reproduction measures, and whether the qualitative shape holds.  The
repository's checked-in ``EXPERIMENTS.md`` is produced by this module
(see the header it writes).
"""

from __future__ import annotations

import time

from repro.experiments import ALL_EXPERIMENTS, run_all

#: What the paper reports, per experiment — rendered next to the
#: reproduced numbers so the comparison is auditable.
PAPER_CLAIMS = {
    "table1": (
        "Dynamic committed instruction counts for SPECint92 (compress, "
        "espresso, gcc, sc, xlisp) and the SPEC95 suites, tens of millions "
        "to billions of instructions.",
        "Our synthetic stand-ins run tens of thousands of instructions "
        "(pure-Python simulation budget); the suite composition matches "
        "1:1 by name.",
    ),
    "table2": (
        "Functional-unit latencies of the simulated processing units "
        "(configuration, not a measurement).",
        "Rendered from the simulator's configuration tables; the paper's "
        "category orderings (simple < complex integer, SP < DP divide) "
        "are asserted by tests/multiscalar/test_config.py.",
    ),
    "window-scaling": (
        "(extension — not in the paper)  Section 2 argues the loss of "
        "blind speculation grows with the window; the paper shows 4 vs "
        "8 stages.",
        "Swept to 2..16 stages: the mean PSYNC-over-ALWAYS gap grows "
        "with the window size.",
    ),
    "table3": (
        "Mis-speculations under the unrealistic OoO model grow sharply "
        "with window size — e.g. moving from an 8- to a 32-instruction "
        "window increases them dramatically.",
        "Counts grow monotonically with the window for all five "
        "benchmarks; small windows see none because our tasks place "
        "dependent pairs tens of instructions apart.",
    ),
    "table4": (
        "Few static store/load pairs are responsible for 99.9% of all "
        "mis-speculations (tens to a few thousand as the window grows).",
        "A handful to ~100 static pairs cover 99.9% at every window size.",
    ),
    "table5": (
        "DDC miss rates fall quickly with capacity; moderate sizes "
        "(128-512 entries) capture most dependences.",
        "Same shape: miss rate is monotone non-increasing in capacity "
        "and small at 512 entries; residual misses are compulsory.",
    ),
    "table6": (
        "The Multiscalar model sees more mis-speculations at 8 stages "
        "than at 4 for every benchmark.",
        "Holds for the majority of kernels; tight-recurrence kernels can "
        "locally invert because wider squashes re-pace the pipeline.",
    ),
    "table7": (
        "Even a 64-entry DDC has a miss rate below ~10% for all "
        "benchmarks; 1024 entries capture virtually all static "
        "dependences except for gcc.",
        "Miss rates are monotone in capacity; absolute levels are "
        "compulsory-dominated at our trace lengths.",
    ),
    "table8": (
        "Most predictions are N/N; ESYNC's N/Y (missed dependences) is "
        "at or below SYNC's for every benchmark; Y/N false dependence "
        "predictions explain SYNC's compress behaviour.",
        "Same bucket structure; ESYNC reduces N/Y on compress and "
        "converts SYNC's stalls into early-satisfied synchronizations.",
    ),
    "table9": (
        "The mechanism reduces mis-speculations by roughly an order of "
        "magnitude, typically below 1% of committed loads.",
        "Aggregate reduction exceeds 5-10x at both window sizes.",
    ),
    "figure5": (
        "ALWAYS significantly outperforms NEVER; PSYNC constantly "
        "improves on ALWAYS and the gap grows from 4 to 8 stages; WAIT "
        "underperforms blind speculation for compress and sc.",
        "All three orderings reproduce; the PSYNC-ALWAYS gap widens at "
        "8 stages, and WAIT loses to ALWAYS on compress (and on sc at "
        "8 stages).",
    ),
    "figure6": (
        "The mechanism approaches ideal (PSYNC): ESYNC never loses to "
        "SYNC; SYNC shows little gain or degradation on compress whose "
        "dependences occur via specific execution paths.",
        "ESYNC ≥ SYNC everywhere and ≈ PSYNC; SYNC trails badly on "
        "compress exactly as the paper describes.",
    ),
    "staticdep": (
        "(extension — not in the paper)  Table 4 shows a small static "
        "set of store/load pairs accounts for nearly all dynamic "
        "mis-speculations, discovered dynamically.",
        "A conservative compile-time reaching-stores analysis "
        "(repro.staticdep) enumerates the candidate pairs before any "
        "simulation: recall vs the dynamic oracle is 1.0 on every "
        "workload (soundness), precision measures the alias noise a "
        "dynamic predictor avoids by construction.",
    ),
    "staticdep-symbolic": (
        "(extension — not in the paper)  Section 4's MDPT learns each "
        "dependence and its DIST tag by paying one mis-speculation; the "
        "paper leaves open how much of that cold-start cost a compiler "
        "could remove.",
        "A symbolic affine interpreter refines the candidate pairs into "
        "MUST/MAY/NO alias verdicts with proven dependence distances: "
        "precision never drops, recall stays 1.0, the static distances "
        "match the oracle's modal task distance on the micro suite, and "
        "seeding the MDPT from always-executing MUST pairs "
        "(sync_static_primed) removes cold-start squashes without ever "
        "adding any.",
    ),
    "spectaint": (
        "(extension — not in the paper)  The paper's squash-and-recover "
        "model treats a mis-speculated load as a purely architectural "
        "event; later transient-execution work showed the squashed value "
        "is a side channel.",
        "A taint lattice over the symbolic interpreter classifies every "
        "static store->load pair as LEAK/GATED/NO-LEAK, and a dynamic "
        "taint sanitizer replays each program to cross-check: the "
        "verdicts are sound (no transient secret read ever lands on a "
        "NO-LEAK pair), blind speculation realizes the predicted leaks, "
        "and sync_static_primed closes every GATED pair — zero "
        "transient secret reads where the naive policy leaks.",
    ),
    "slice-warming": (
        "(extension — not in the paper)  Moshovos' later Prophet line "
        "of work pre-executes address-generation slices to resolve "
        "dependences ahead of the window; the paper's own MDPT learns "
        "each pair only after paying one cold-start squash.",
        "Backward address slices extracted from the program dependence "
        "graph are pre-executed under a per-task instruction budget: "
        "sync_slice_warmed never squashes more than learned SYNC on any "
        "workload/stage cell (asserted by the runner), and on the "
        "MAY-dominant table-walk leg — where MUST-only static priming "
        "is provably blind — it removes the cold-start squashes that "
        "both SYNC and PRIMED pay.",
    ),
    "figure7": (
        "Appreciable gains for most SPECint95 programs (5-40%); ESYNC "
        "close to ideal for m88ksim/compress/li; swim, mgrid and turb3d "
        "have little to gain; su2cor and fpppp fall short of ideal "
        "because the dependence working set exceeds the structures.",
        "Every one of those calls reproduces: streaming kernels gain "
        "~0%, su2cor/fpppp trail PSYNC by a wide margin, and the "
        "int-suite gains are large.",
    ),
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

This file is generated by `repro.experiments.report.write_report`
(`python -m repro.experiments.report [scale] [output]`).  It reruns
every experiment in `repro.experiments` and records the reproduced
tables next to the paper's claims.

Absolute numbers are **not** expected to match the paper: the original
evaluation ran SPEC binaries on a cycle-accurate Multiscalar simulator
for billions of instructions, while this reproduction interprets
synthetic dependence-signature kernels for tens of thousands (see
DESIGN.md for the substitution map).  What must match — and is asserted
by `tests/experiments/test_runners.py` and the benchmark harness — is
the *shape* of every result: who wins, in which order, and where the
crossovers sit.

The report runs every experiment through one inline `run_all`: the
simulations that several tables read (Figures 5-7, Tables 6, 8 and 9
and the window-scaling extension are views of one sweep grid) run once.
To regenerate tables faster, run them through the parallel executor
(`repro experiment all --jobs N --cache-dir .repro-cache`): the cells
fan out across N worker processes and finished cells are cached, so
wall time drops roughly with the core count on a cold run and to
seconds on a warm one (see docs/parallel.md).  The tables are
bit-identical either way.

Scale: `%(scale)s`.  Generated in %(elapsed).0f s.
"""

SECTION = """\

## %(key)s — %(title)s

**Paper:** %(paper)s

**Measured:** %(measured)s

```
%(table)s
```
"""


def write_report(path="EXPERIMENTS.md", scale="test", experiments=None) -> str:
    """Run all experiments and write the markdown report to *path*."""
    start = time.time()
    keys = sorted(experiments or ALL_EXPERIMENTS)
    tables, report = run_all(scale=scale, experiments=keys)
    if report.failed:
        raise RuntimeError(
            "%d cell(s) failed, first: %s"
            % (len(report.failed), report.failed[0].error)
        )
    sections = []
    for key in keys:
        table = tables[key]
        paper, measured = PAPER_CLAIMS.get(key, ("(not stated)", "(not stated)"))
        sections.append(
            SECTION
            % {
                "key": key,
                "title": table.title,
                "paper": paper,
                "measured": measured,
                "table": table.to_text(),
            }
        )
    body = HEADER % {"scale": scale, "elapsed": time.time() - start}
    body += "".join(sections)
    with open(path, "w") as fh:
        fh.write(body)
    return body


def main(argv=None) -> int:
    import sys

    argv = sys.argv[1:] if argv is None else argv
    scale = argv[0] if argv else "test"
    path = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    write_report(path, scale)
    print("wrote %s (scale=%s)" % (path, scale))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
