"""Property tests: executable backward slices are sound.

The defining property of an executable (Weiser-style) slice: replaying
the program while executing *only* the slice's PCs — every other
instruction skipped as a no-op — reproduces the criterion's observable
stream from the full run.  For the ``address`` criterion of a store,
that stream is the store's effective-address sequence, which is exactly
why the ``sync_slice_warmed`` policy may read a slice's addresses off the
trace instead of executing it.  The executor is the test-only
:class:`tests.frontend.reference.SliceExecutor`.

Slices flagged ``loop_carried`` are exempt by design: their address
computation consumes a load fed by a loop-carried memory edge, so the
pre-execution cannot be cut off from the skipped stores — the PDG's
cutoff status exists precisely to exclude them from warming.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import run_program
from repro.staticdep import build_pdg
from repro.workloads.random_gen import RandomProgramConfig, generate_program
from tests.frontend.reference import SliceExecutor

configs = st.builds(
    RandomProgramConfig,
    tasks=st.integers(min_value=1, max_value=10),
    body_ops=st.integers(min_value=0, max_value=6),
    loads_per_task=st.integers(min_value=0, max_value=3),
    stores_per_task=st.integers(min_value=1, max_value=3),
    shared_words=st.integers(min_value=1, max_value=8),
    branch_probability=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10_000),
)


def _store_pcs(program):
    return [inst.pc for inst in program if inst.is_store]


@settings(max_examples=30, deadline=None)
@given(config=configs)
def test_address_slice_reproduces_store_address_stream(config):
    program = generate_program(config)
    pdg = build_pdg(program)
    trace = run_program(program)
    for store_pc in _store_pcs(program):
        if store_pc not in pdg.reachable_pcs():
            continue
        sl = pdg.slice_backward(store_pc, "address")
        if sl.loop_carried:
            continue  # excluded from warming by the cutoff status
        executor = SliceExecutor(program, sl.pcs, watch_pcs=(store_pc,))
        events = executor.run()
        assert executor.finished
        full = [
            (e.task_id, e.addr) for e in trace.entries if e.pc == store_pc
        ]
        sliced = [(ev.task_id, ev.addr) for ev in events]
        assert sliced == full, (
            "address slice of store pc %d diverged" % store_pc
        )


@settings(max_examples=30, deadline=None)
@given(config=configs)
def test_full_slice_reproduces_store_values_too(config):
    program = generate_program(config)
    pdg = build_pdg(program)
    trace = run_program(program)
    for store_pc in _store_pcs(program):
        if store_pc not in pdg.reachable_pcs():
            continue
        sl = pdg.slice_backward(store_pc, "full")
        if sl.loop_carried:
            continue
        executor = SliceExecutor(program, sl.pcs, watch_pcs=(store_pc,))
        events = executor.run()
        full = [
            (e.addr, e.value) for e in trace.entries if e.pc == store_pc
        ]
        assert [(ev.addr, ev.value) for ev in events] == full


@settings(max_examples=20, deadline=None)
@given(
    config=configs,
    budget=st.integers(min_value=1, max_value=7),
)
def test_budgeted_resumption_is_equivalent_to_one_shot(config, budget):
    # feeding the executor its budget in small grants must produce the
    # same event stream as a single unbounded run: the policy advances
    # slices incrementally, one grant per task dispatch
    program = generate_program(config)
    pdg = build_pdg(program)
    stores = [
        pc for pc in _store_pcs(program) if pc in pdg.reachable_pcs()
    ]
    if not stores:
        return
    sl = pdg.slice_backward(stores[0], "address")
    if sl.loop_carried:
        return
    one_shot = SliceExecutor(program, sl.pcs, watch_pcs=(stores[0],)).run()
    resumable = SliceExecutor(program, sl.pcs, watch_pcs=(stores[0],))
    events = []
    while not resumable.finished:
        got = resumable.run(budget)
        events.extend(got)
        if not got and resumable.executed == 0 and resumable.finished:
            break
    assert events == one_shot
