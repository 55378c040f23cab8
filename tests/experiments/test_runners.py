"""Integration tests: every experiment runner reproduces the paper's
qualitative shape at tiny scale.

These are the repository's core claims: each test names the paper
table/figure and asserts the relationship the paper argues from.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    figure5_policy_speedups,
    figure6_mechanism_speedups,
    figure7_spec95_speedups,
    table1_instruction_counts,
    table3_window_missspec,
    table4_static_coverage,
    table5_ddc_missrate,
    table6_multiscalar_missspec,
    table7_multiscalar_ddc,
    table8_prediction_breakdown,
    table9_missspec_rates,
)

SCALE = "tiny"
INT92 = ("compress", "espresso", "gcc", "sc", "xlisp")


@pytest.fixture(scope="module")
def fig5():
    return figure5_policy_speedups(SCALE)


@pytest.fixture(scope="module")
def fig6():
    return figure6_mechanism_speedups(SCALE)


def test_registry_is_complete():
    expected = {"table%d" % i for i in (1, 2, 3, 4, 5, 6, 7, 8, 9)}
    expected |= {"figure%d" % i for i in (5, 6, 7)}
    expected |= {
        "window-scaling",
        "staticdep",
        "staticdep-symbolic",
        "spectaint",
        "slice-warming",
    }
    assert set(ALL_EXPERIMENTS) == expected


def test_staticdep_symbolic_experiment():
    from repro.experiments import staticdep_symbolic

    table = staticdep_symbolic(SCALE, suites=("micro",))
    lattice = table.column("prec(lattice)")
    symbolic = table.column("prec(symbolic)")
    # NO verdicts are proofs: precision never drops, recall never dips
    assert all(s >= l for l, s in zip(lattice, symbolic))
    assert all(r == 1.0 for r in table.column("recall"))
    # statically inferred distances agree with what the MDPT would
    # learn on every micro workload that has provable pairs
    matches = [m for m in table.column("dist match") if m != "-"]
    assert matches and all(m >= 0.8 for m in matches)
    # priming only ever removes cold-start squashes
    avoided = table.column("avoided")
    assert all(a >= 0 for a in avoided)
    assert sum(avoided) >= 1


def test_slice_warming_experiment():
    from repro.experiments import slice_warming

    table = slice_warming(SCALE)
    sync = table.column("missp(sync)")
    primed = table.column("missp(primed)")
    warmed = table.column("missp(warmed)")
    # never worse than learned SYNC in total squashes, on any row (the
    # runner itself raises on a violation; assert the shape regardless)
    assert all(w <= s for w, s in zip(warmed, sync))
    # priming never loses either (same property one level down)
    assert all(p <= s for p, s in zip(primed, sync))
    # the MAY-dominant leg is where warming beats priming: its
    # recurring dependence is data-indexed, so the MUST-only prover is
    # blind to it and pays the cold start the slice resolves ahead
    col = {name: i for i, name in enumerate(table.columns)}
    legs = [row for row in table.rows if row[col["benchmark"]] == "table-walk"]
    assert legs  # one per stage count
    for row in legs:
        assert row[col["installed"]] >= 1
        assert row[col["slice instr"]] > 0
        assert row[col["cold(warmed)"]] < row[col["cold(primed)"]]


@pytest.mark.parametrize(
    "module, table", [("slicewarm", "LEG_TASKS"), ("spectaint", "PROGRAM_TASKS")]
)
def test_adversarial_leg_sizes_cover_every_scale(module, table):
    """The adversarial programs grow with every scale name, and a name
    with no size raises instead of falling back to the ``test`` size."""
    import importlib

    from repro.workloads import SCALES

    runner = importlib.import_module("repro.experiments." + module)
    tasks = getattr(runner, table)
    assert set(tasks) == set(SCALES)
    assert tasks["tiny"] < tasks["test"] < tasks["ref"] < tasks["large"] == 2 * tasks["ref"]
    legs = runner._extra_traces if module == "slicewarm" else runner._programs
    with pytest.raises(KeyError):
        legs("full")


def test_spectaint_experiment():
    from repro.experiments import spectaint_leakage

    table = spectaint_leakage(SCALE)
    # the runner itself raises on any static/dynamic contradiction, so a
    # returned table already certifies soundness on every row
    assert all(s == "yes" for s in table.column("sound"))
    by_policy = {}
    for row in table.rows:
        program, policy = row[0], row[1]
        by_policy.setdefault(program, {})[policy] = row
    for program, rows in by_policy.items():
        # no speculation, no transient reads: the sanitizer only fires
        # inside a mis-speculation window
        assert rows["never"][6] == 0
        # the headline claim: statically primed synchronization closes
        # every GATED pair, so its transient secret reads are zero even
        # where blind speculation leaks
        assert rows["sync_static_primed"][6] == 0
        assert rows["sync_static_primed"][6] <= rows["always"][6]
    # at least one program must demonstrate an actual leak under blind
    # speculation, or the comparison is vacuous
    assert any(rows["always"][6] > 0 for rows in by_policy.values())


def test_table2_renders_configuration():
    from repro.experiments import table2_fu_latencies

    table = table2_fu_latencies()
    assert len(table.rows) == 12  # one per FU class
    assert all(latency >= 1 for latency in table.column("latency (cycles)"))


def test_table1_counts_whole_suites():
    table = table1_instruction_counts(SCALE)
    names = table.column("benchmark")
    assert len(names) == 23
    assert all(n > 0 for n in table.column("instructions"))
    assert all(n > 0 for n in table.column("tasks"))


def test_table3_missspec_grow_with_window():
    table = table3_window_missspec(SCALE)
    for name in INT92:
        counts = table.column(name)
        assert counts == sorted(counts), name
        assert counts[-1] > 0, name


def test_table4_few_pairs_cover_nearly_all():
    table = table4_static_coverage(SCALE)
    last_row = table.rows[-1]  # widest window
    for value in last_row[1:]:
        assert value <= 120  # few static pairs even at WS=512


def test_table5_missrate_falls_with_ddc_size():
    table = table5_ddc_missrate(SCALE, window_sizes=(256,), ddc_sizes=(8, 64, 512))
    for name in INT92:
        rates = table.column(name)
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:])), name
        assert rates[-1] <= 20.0, name


def test_table6_more_missspec_with_more_stages():
    table = table6_multiscalar_missspec(SCALE)
    row4, row8 = table.rows[0][1:], table.rows[1][1:]
    assert sum(row4) > 0
    # the larger window exposes at least as many mis-speculations for
    # the majority of benchmarks (squash dynamics can locally reduce
    # the count for tight-recurrence kernels)
    grows = sum(1 for a, b in zip(row4, row8) if b >= a)
    assert grows >= 3


def test_table7_moderate_ddc_suffices():
    table = table7_multiscalar_ddc(SCALE, ddc_sizes=(16, 64, 1024))
    row64 = table.row(64)
    # at tiny scale the residual misses are compulsory (first touch of
    # each static pair); miss rates stay bounded and never increase
    # with capacity
    assert all(rate <= 35.0 for rate in row64[1:])
    row1024 = table.row(1024)
    assert all(rate <= row64_v + 1e-9 for rate, row64_v in zip(row1024[1:], row64[1:]))


def test_table8_buckets_sum_to_100():
    table = table8_prediction_breakdown(SCALE, predictors=("sync",))
    for name in INT92:
        total = sum(table.column(name))
        assert total == pytest.approx(100.0, abs=0.5)


def test_table8_esync_cuts_missed_dependences_on_compress():
    """ESYNC captures compress's path-dependent dependences: fewer
    unpredicted mis-speculations (N/Y) than SYNC (paper Table 8 shows
    ESYNC's N/Y below SYNC's for every benchmark)."""
    table = table8_prediction_breakdown(SCALE, predictors=("sync", "esync"))
    sync_ny = [r for r in table.rows if r[0] == "SYNC" and r[1] == "N/Y"][0]
    esync_ny = [r for r in table.rows if r[0] == "ESYNC" and r[1] == "N/Y"][0]
    idx = list(table.columns).index("compress")
    assert esync_ny[idx] <= sync_ny[idx]


def test_table9_mechanism_cuts_missspec_rate():
    table = table9_missspec_rates(SCALE, stage_counts=(4,))
    always = table.rows[0]
    mech = table.rows[1]
    for a, m in zip(always[2:], mech[2:]):
        assert m <= a + 0.003  # small-sample tolerance per benchmark
    # aggregate reduction is at least 5x (paper: an order of magnitude)
    assert sum(mech[2:]) * 5 <= sum(always[2:]) + 1e-9


def test_figure5_always_beats_never_on_most_benchmarks(fig5):
    wins = sum(1 for v in fig5.column("ALWAYS") if v > -2.0)
    assert wins >= len(fig5.rows) - 2


def test_figure5_psync_at_least_matches_always(fig5):
    for row in fig5.rows:
        always, psync = row[3], row[5]
        assert psync >= always - 1.0, row


def test_figure5_wait_loses_to_blind_speculation_on_compress(fig5):
    """Paper Figure 1(d)/Section 5.4: selective WAIT under-performs
    ALWAYS for compress (and sc at the larger window)."""
    for row in fig5.rows:
        if row[1] == "compress":
            assert row[4] < row[3]  # WAIT < ALWAYS


def test_figure5_psync_gap_grows_with_window(fig5):
    """The central claim: the benefit of ideal speculation over blind
    speculation grows with the window size."""
    gap = {stages: 0.0 for stages in (4, 8)}
    for row in fig5.rows:
        gap[row[0]] += row[5] - row[3]
    assert gap[8] > gap[4]


def test_figure6_esync_never_loses_to_sync(fig6):
    for row in fig6.rows:
        assert row[4] >= row[3] - 1.0, row  # ESYNC >= SYNC


def test_figure6_mechanism_bounded_by_psync(fig6):
    for row in fig6.rows:
        assert row[4] <= row[5] + 2.0, row  # ESYNC <= PSYNC (tolerance)


def test_figure6_sync_degrades_compress(fig6):
    """Paper: false dependence predictions make the plain counter
    predictor underperform on compress."""
    for row in fig6.rows:
        if row[1] == "compress":
            assert row[3] < row[4]  # SYNC < ESYNC


def test_figure7_shapes():
    table = figure7_spec95_speedups(SCALE)
    names = table.column("benchmark")
    assert len(names) == 18
    # streaming FP codes gain nothing
    for name in ("swim", "mgrid", "turb3d"):
        assert abs(table.cell(name, "ESYNC")) < 3.0, name
        assert abs(table.cell(name, "PSYNC")) < 3.0, name
    # the mechanism never beats ideal by more than noise
    for row in table.rows:
        esync, psync = row[3], row[4]
        assert esync <= psync + 3.0, row
    # programs the paper calls out as falling short of ideal
    for name in ("su2cor", "fpppp"):
        assert table.cell(name, "ESYNC") < table.cell(name, "PSYNC") - 3.0, name
