"""Golden-payload regression tests for ``repro pdg`` / ``repro slice``.

Every example program's PDG report (graph statistics plus the per-pair
predictor-slice listing) and the backward *address* slice of each of
its stores are pinned as checked-in JSON fixtures — the same payloads
the CLI renders — so any change to the graph construction, the cost
model, or the slicing closure shows up as a readable diff.

Registered workloads are too large to pin as readable payloads, so
``golden_pdg/workloads.json`` holds one SHA-256 per workload and scale
over the canonical JSON of its PDG report, its symbolic analysis
summary and its classified pair list.  Intentional rebaselines: run

    PYTHONPATH=src python -m pytest tests/staticdep/test_pdg_golden.py --update-golden

review the diff under ``tests/staticdep/golden_pdg/``, and commit it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.isa.parser import parse_file
from repro.staticdep import analyze_program_symbolic, build_pdg, pdg_report, slice_report
from repro.workloads import all_workloads

EXAMPLES = sorted(Path("examples/programs").glob("*.s"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden_pdg"
WORKLOAD_SCALES = ("tiny", "test")


def rendered(program_path) -> str:
    program = parse_file(str(program_path))
    payload = {
        "pdg": pdg_report(build_pdg(program)),
        "slices": [
            slice_report(program, inst.pc, "address")
            for inst in program
            if inst.is_store
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_example_set_is_nonempty():
    assert EXAMPLES, "examples/programs/*.s disappeared"


@pytest.mark.parametrize("program_path", EXAMPLES, ids=lambda p: p.stem)
def test_pdg_golden(program_path, request):
    path = GOLDEN_DIR / (program_path.stem + ".json")
    text = rendered(program_path)
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip("rebaselined %s" % path.name)
    assert path.exists(), (
        "missing golden fixture %s — generate it with "
        "`pytest tests/staticdep/test_pdg_golden.py --update-golden`" % path
    )
    assert text == path.read_text(), (
        "%s PDG payload drifted from the golden fixture; if the change "
        "is intentional, rerun with --update-golden and commit the "
        "diff" % program_path.name
    )


def workload_digest(program) -> str:
    """SHA-256 over the canonical JSON of everything the analyses report."""
    analysis = analyze_program_symbolic(program)
    payload = {
        "pdg": pdg_report(build_pdg(program, analysis=analysis)),
        "summary": analysis.summary(),
        "classified": [
            {
                "store_pc": p.store_pc,
                "load_pc": p.load_pc,
                "verdict": p.verdict,
                "lag": p.lag,
                "static_distance": p.static_distance,
                "store_addr": str(p.store_addr),
                "load_addr": str(p.load_addr),
            }
            for p in analysis.classified
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_workload_analysis_golden(request):
    path = GOLDEN_DIR / "workloads.json"
    digests = {
        "%s@%s" % (workload.name, scale): workload_digest(workload.program(scale))
        for scale in WORKLOAD_SCALES
        for workload in all_workloads()
    }
    text = json.dumps(digests, indent=2, sort_keys=True) + "\n"
    if request.config.getoption("--update-golden"):
        path.write_text(text)
        pytest.skip("rebaselined %s" % path.name)
    assert path.exists(), (
        "missing golden fixture %s — generate it with "
        "`pytest tests/staticdep/test_pdg_golden.py --update-golden`" % path
    )
    pinned = json.loads(path.read_text())
    drifted = sorted(
        key for key in set(pinned) | set(digests) if pinned.get(key) != digests.get(key)
    )
    assert not drifted, (
        "static analysis outputs drifted for %s; if the change is "
        "intentional, rerun with --update-golden and commit the diff"
        % ", ".join(drifted)
    )
