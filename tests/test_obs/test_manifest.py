"""Run manifests: provenance fields and the one-source-of-truth fingerprint."""

from repro.api import Session
from repro.core.runcache import workload_fingerprint
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    STANDARD_TOOLS,
    git_revision,
    run_manifest,
)


def test_run_manifest_fingerprint_matches_runcache():
    """Satellite: manifest identity == cache identity, no drift possible."""
    manifest = run_manifest("fasta", "test", 0)
    assert manifest["fingerprint"] == workload_fingerprint("fasta", "test", 0)


def test_run_manifest_fingerprint_matches_session():
    session = Session(scale="test", seed=0, cache=False)
    manifest = run_manifest("blast", "test", 0)
    assert manifest["fingerprint"] == session.fingerprint("blast", "test", 0)


def test_fingerprint_sensitive_to_run_inputs():
    base = run_manifest("fasta", "test", 0)["fingerprint"]
    assert run_manifest("fasta", "test", 1)["fingerprint"] != base
    assert run_manifest("blast", "test", 0)["fingerprint"] != base
    assert run_manifest("fasta", "test", 0, max_instructions=10)["fingerprint"] != base


def test_run_manifest_contents():
    manifest = run_manifest("fasta", "test", 3, timings={"interp": 1.5})
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["kind"] == "characterization"
    assert manifest["config"] == {
        "workload": "fasta",
        "scale": "test",
        "seed": 3,
        "max_instructions": 200_000_000,
    }
    assert manifest["tools"] == list(STANDARD_TOOLS)
    assert manifest["timings_s"] == {"interp": 1.5}
    assert manifest["python"]  # environment provenance present
    assert manifest["platform"]


def test_git_revision_in_this_checkout():
    rev = git_revision()
    assert rev is None or (len(rev) == 40 and all(c in "0123456789abcdef" for c in rev))
