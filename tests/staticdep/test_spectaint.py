"""Speculative-leak analysis: lattice laws, verdict ladder, dynamic
sanitizer, and the static/dynamic cross-check contract."""

from repro.frontend import run_program
from repro.isa.assembler import Assembler
from repro.isa.parser import parse_file
from repro.multiscalar.config import MultiscalarConfig
from repro.multiscalar.sanitizer import (
    SanitizerEvent,
    TaintSanitizer,
    check_program_leaks,
    cross_check_leaks,
)
from repro.staticdep.spectaint import (
    GATED,
    LEAK,
    NO_LEAK,
    PUBLIC,
    R_NO_ALIAS,
    R_NO_TRANSMITTER,
    R_OPEN,
    R_PRIMABLE,
    R_STALE_PUBLIC,
    R_WINDOW_ZERO,
    SECRET,
    TAINT_TOP,
    analyze_spec_leaks,
    may_secret,
    region_taint,
    taint_combine,
    taint_replay,
    taint_union,
    valid_ranges,
)

LEAK_DEMO = "examples/programs/leak_demo.s"


# -- the lattice ------------------------------------------------------------


def test_taint_union_is_join():
    for t in (PUBLIC, SECRET, TAINT_TOP):
        assert taint_union(t, t) == t
        assert taint_union(t, TAINT_TOP) == TAINT_TOP
    assert taint_union(PUBLIC, SECRET) == TAINT_TOP


def test_taint_combine_keeps_definite_secrets():
    assert taint_combine(SECRET, PUBLIC) == SECRET
    assert taint_combine(SECRET, TAINT_TOP) == SECRET
    assert taint_combine(TAINT_TOP, PUBLIC) == TAINT_TOP
    assert taint_combine(PUBLIC, PUBLIC) == PUBLIC


def test_may_secret():
    assert not may_secret(PUBLIC)
    assert may_secret(SECRET)
    assert may_secret(TAINT_TOP)


def test_valid_ranges_drops_degenerate():
    assert valid_ranges([(0x100, 0x10C), (-4, 0), (8, 4), (1, 9), (0, 0)]) == [
        (0, 0),
        (0x100, 0x10C),
    ]


# -- region taint over symbolic addresses -----------------------------------


def _const_address_value(addr):
    a = Assembler("t")
    a.li("s1", addr)
    a.lw("t0", "s1", 0)
    a.halt()
    analysis = analyze_spec_leaks(a.assemble(), secret_ranges=[])
    return analysis.taint.address_values[1]


def test_region_taint_const_inside_and_outside():
    value = _const_address_value(0x2000)
    assert region_taint(value, [(0x2000, 0x2010)]) == SECRET
    assert region_taint(value, [(0x3000, 0x3010)]) == PUBLIC
    assert region_taint(value, []) == PUBLIC


def test_region_taint_unknown_base_is_top():
    # a load whose address came from memory: symbolically unknown, so it
    # may or may not touch the secret range
    a = Assembler("t")
    a.li("s1", 0x1000)
    a.lw("t0", "s1", 0)
    a.lw("t1", "t0", 0)
    a.halt()
    analysis = analyze_spec_leaks(a.assemble(), secret_ranges=[])
    assert region_taint(analysis.taint.address_values[2], [(0x2000, 0x2010)]) == TAINT_TOP


# -- the verdict ladder -----------------------------------------------------


def _verdict_of(program, store_pc, load_pc, **kwargs):
    analysis = analyze_spec_leaks(program, **kwargs)
    verdict = analysis.verdict_for(store_pc, load_pc)
    assert verdict is not None, (
        "no verdict for (%d, %d); have %s"
        % (store_pc, load_pc, [v.pair for v in analysis.verdicts])
    )
    return verdict


def test_no_alias_pair_is_no_leak():
    # the one-bit reaching lattice keeps (sw, lw) as a candidate pair;
    # the symbolic classifier proves the const addresses disjoint
    a = Assembler("t")
    a.task_begin()
    a.li("s1", 0x2000)
    a.li("s2", 0x3000)
    a.sw("s1", "s1", 0)
    a.task_begin()
    a.lw("t0", "s2", 0)
    a.halt()
    verdict = _verdict_of(a.assemble(), 2, 3, secret_ranges=[(0x2000, 0x2000)])
    assert verdict.verdict == NO_LEAK and verdict.reason == R_NO_ALIAS


def _recurrence(base, iterations=8, transmit=False):
    """A cross-task MUST recurrence at *base*; optionally use the loaded
    value to form a second load's address (a transmitter)."""
    a = Assembler("rec")
    a.li("s1", base)
    a.li("s2", 0x4000)
    a.li("t3", 0)
    a.li("t4", iterations)
    a.label("loop")
    a.task_begin()
    a.lw("t0", "s1", 0)
    if transmit:
        a.andi("t1", "t0", 0x1C)
        a.add("t2", "s2", "t1")
        a.lw("t5", "t2", 0)
    a.addi("t0", "t0", 1)
    a.sw("t0", "s1", 0)
    a.addi("t3", "t3", 1)
    a.blt("t3", "t4", "loop")
    a.halt()
    return a.assemble()


def _recurrence_pair(program, analysis_ranges):
    """The (store, load) PCs of the recurrence at the loop head."""
    analysis = analyze_spec_leaks(program, secret_ranges=analysis_ranges)
    loads = [i.pc for i in program.instructions if i.is_load]
    stores = [i.pc for i in program.instructions if i.is_store]
    return analysis, stores[-1], loads[0]


def test_window_zero_without_tasks():
    a = Assembler("t")
    a.li("s1", 0x2000)
    a.sw("s1", "s1", 0)
    a.lw("t0", "s1", 0)
    a.halt()
    verdict = _verdict_of(a.assemble(), 1, 2, secret_ranges=[(0x2000, 0x2000)])
    assert verdict.verdict == NO_LEAK and verdict.reason == R_WINDOW_ZERO


def test_stale_public_recurrence():
    # secret memory exists, but the recurrence lives outside it: the
    # stale value a mis-speculated load could observe is provably public
    program = _recurrence(0x1000, transmit=True)
    analysis, store_pc, load_pc = _recurrence_pair(program, [(0x2000, 0x2010)])
    verdict = analysis.verdict_for(store_pc, load_pc)
    assert verdict.verdict == NO_LEAK and verdict.reason == R_STALE_PUBLIC
    assert verdict.stale_taint == PUBLIC


def test_no_transmitter_secret_recurrence():
    # the loaded secret only feeds the accumulator store: no address or
    # branch is formed from it, so nothing can escape the window
    program = _recurrence(0x2000, transmit=False)
    analysis, store_pc, load_pc = _recurrence_pair(program, [(0x2000, 0x2000)])
    verdict = analysis.verdict_for(store_pc, load_pc)
    assert verdict.verdict == NO_LEAK and verdict.reason == R_NO_TRANSMITTER
    assert verdict.stale_taint in (SECRET, TAINT_TOP)
    assert verdict.transmitters == ()


def test_gated_secret_recurrence_with_transmitter():
    # same recurrence, now secret-tagged and address-forming: leakable
    # under blind speculation, but provably primable (MUST, distance 1)
    program = _recurrence(0x2000, transmit=True)
    analysis, store_pc, load_pc = _recurrence_pair(program, [(0x2000, 0x2000)])
    verdict = analysis.verdict_for(store_pc, load_pc)
    assert verdict.verdict == GATED and verdict.reason == R_PRIMABLE
    assert any(t.kind == "address" for t in verdict.transmitters)


def test_leak_demo_verdicts():
    program = parse_file(LEAK_DEMO)
    analysis = analyze_spec_leaks(program)
    assert analysis.secret_ranges == [(0x2000, 0x201C)]
    counts = analysis.verdict_counts()
    assert counts == {LEAK: 1, GATED: 1, NO_LEAK: 13}
    (leak,) = analysis.leaks()
    assert leak.reason == R_OPEN
    assert any(t.kind == "address" for t in leak.transmitters)
    (gated,) = analysis.gated()
    assert gated.reason == R_PRIMABLE


def test_leak_demo_secret_address_and_branch_taints():
    program = parse_file(LEAK_DEMO)
    taint = analyze_spec_leaks(program).taint
    # the gather/scatter addresses derive from the secret load
    secret_addressed = [
        pc
        for pc in sorted(taint.address_values)
        if taint.address_taint(pc) == SECRET
    ]
    assert secret_addressed  # at least the secret-indexed table accesses
    branch_pcs = [i.pc for i in program.instructions if i.is_branch]
    assert any(taint.branch_taint(pc) == SECRET for pc in branch_pcs)


# -- the dynamic taint replay -----------------------------------------------


def test_taint_replay_tracks_stale_and_flow():
    a = Assembler("t")
    a.li("s1", 0x2000)
    a.li("s2", 0x3000)
    a.lw("t0", "s1", 0)  # seq 2: loads secret
    a.sw("t0", "s2", 0)  # seq 3: stale public, stores secret data
    a.sw("s2", "s1", 0)  # seq 4: stale secret (overwrites the region)
    a.lw("t1", "s1", 0)  # seq 5: loads the now-public content
    a.halt()
    trace = run_program(a.assemble())
    replay = taint_replay(trace, [(0x2000, 0x2000)])
    assert replay.load_secret[2] is True
    assert replay.stale_before_store[3] is False
    assert replay.store_secret[3] is True
    assert replay.stale_before_store[4] is True
    assert replay.store_secret[4] is False
    assert replay.load_secret[5] is False


# -- the sanitizer and the cross-check --------------------------------------


def _leak_demo_result(policy="always", config=None):
    program = parse_file(LEAK_DEMO)
    return check_program_leaks(program, policy=policy, config=config)


def test_sanitizer_observes_leak_demo_under_blind_speculation():
    result = _leak_demo_result("always")
    sanitizer = result.sanitizer
    assert sanitizer.violations > 0
    assert len(sanitizer.events) > 0
    observed = set(sanitizer.pair_counts())
    flagged = set(result.check.flagged_pairs)
    # every observation lands on a statically flagged pair and at least
    # one transient value provably reached a transmitter
    assert observed == flagged
    assert sanitizer.transmitted_pairs()
    assert result.check.sound
    assert result.check.precision == 1.0
    assert result.check.recall == 1.0
    assert not result.clean  # flagged verdicts -> exit-1 semantics


def test_static_priming_closes_every_gated_pair():
    naive = _leak_demo_result("always")
    primed = _leak_demo_result("sync_static_primed")
    gated_pairs = {v.pair for v in naive.analysis.gated()}
    # the naive policy leaks on the GATED pair; the primed policy never
    # produces a transient secret read on any pair at all
    assert gated_pairs & set(naive.sanitizer.pair_counts())
    assert primed.sanitizer.events == []
    assert primed.check.sound


def test_sanitizer_counts_identical_across_schedulers(monkeypatch):
    """The simulator's event-driven loop vs the per-cycle reference scan."""
    from repro.multiscalar.processor import MultiscalarSimulator
    from tests.multiscalar.reference import run_reference

    by_scheduler = {}
    for scheduler in ("event", "cycle"):
        if scheduler == "cycle":
            monkeypatch.setattr(MultiscalarSimulator, "run", run_reference)
        result = _leak_demo_result("always")
        by_scheduler[scheduler] = [e.to_dict() for e in result.sanitizer.events]
    assert by_scheduler["event"] == by_scheduler["cycle"]
    assert by_scheduler["event"]  # the A/B is vacuous without events


def test_sanitizer_publishes_telemetry_when_enabled():
    from repro.multiscalar.policies import make_policy
    from repro.multiscalar.processor import MultiscalarSimulator
    from repro.telemetry import make_telemetry

    program = parse_file(LEAK_DEMO)
    trace = run_program(program)
    sanitizer = TaintSanitizer(trace)
    telemetry = make_telemetry()
    sim = MultiscalarSimulator(
        trace,
        MultiscalarConfig(),
        make_policy("always"),
        telemetry=telemetry,
        observers=[sanitizer],
    )
    sim.run()
    assert sanitizer.events
    counters = telemetry.metrics.to_dict()["counters"]
    assert counters["sanitizer.transient_secret_reads"] == len(sanitizer.events)
    assert counters["sanitizer.transmitted_reads"] == sum(
        e.transmitted for e in sanitizer.events
    )


def _fake_event(pair, transmitted=False):
    return SanitizerEvent(
        store_pc=pair[0],
        load_pc=pair[1],
        store_seq=0,
        load_seq=1,
        time=10,
        transmitted=transmitted,
    )


def test_cross_check_contradiction_on_hard_no_leak():
    program = _recurrence(0x1000, transmit=True)
    analysis, store_pc, load_pc = _recurrence_pair(program, [(0x2000, 0x2010)])
    verdict = analysis.verdict_for(store_pc, load_pc)
    assert verdict.reason == R_STALE_PUBLIC  # a hard (proof-backed) claim
    sanitizer = TaintSanitizer(run_program(program), secret_ranges=[(0x2000, 0x2010)])
    sanitizer.events.append(_fake_event((store_pc, load_pc)))
    check = cross_check_leaks(analysis, sanitizer)
    assert not check.sound
    assert "stale-public" in check.contradictions[0]


def test_cross_check_contradiction_on_unknown_pair():
    program = _recurrence(0x1000)
    analysis = analyze_spec_leaks(program, secret_ranges=[])
    sanitizer = TaintSanitizer(run_program(program), secret_ranges=[])
    sanitizer.events.append(_fake_event((999, 998)))
    check = cross_check_leaks(analysis, sanitizer)
    assert not check.sound
    assert "absent" in check.contradictions[0]


def test_cross_check_contradiction_on_transmitted_no_transmitter():
    program = _recurrence(0x2000, transmit=False)
    analysis, store_pc, load_pc = _recurrence_pair(program, [(0x2000, 0x2000)])
    assert analysis.verdict_for(store_pc, load_pc).reason == R_NO_TRANSMITTER
    sanitizer = TaintSanitizer(run_program(program), secret_ranges=[(0x2000, 0x2000)])
    # an un-transmitted stale-secret read is permitted there...
    sanitizer.events.append(_fake_event((store_pc, load_pc), transmitted=False))
    assert cross_check_leaks(analysis, sanitizer).sound
    # ...but a transmitted one contradicts the claim
    sanitizer.events.append(_fake_event((store_pc, load_pc), transmitted=True))
    check = cross_check_leaks(analysis, sanitizer)
    assert not check.sound
    assert "transmitted" in check.contradictions[0]


def test_secret_range_override_replaces_directives():
    program = parse_file(LEAK_DEMO)
    # overriding with a range nothing touches: every pair becomes NO_LEAK
    analysis = analyze_spec_leaks(program, secret_ranges=[(0x9000, 0x9000)])
    counts = analysis.verdict_counts()
    assert counts[LEAK] == 0 and counts[GATED] == 0
