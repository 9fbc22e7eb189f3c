"""Tests for the workload kernels: they compile, run, and (for several)
match independent Python reference implementations."""

import pytest

from repro.exec import run_program
from repro.lang.compiler import CompilerOptions, compile_source
from repro.workloads import all_workloads, get_workload, spec_workloads
from repro.workloads.datasets import check_scale


@pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
def test_bioperf_kernel_compiles_and_runs(spec):
    program = spec.program()
    interp = run_program(program, spec.dataset("test", seed=0))
    assert interp.executed > 1000


@pytest.mark.parametrize("spec", spec_workloads(), ids=lambda s: s.name)
def test_spec_kernel_compiles_and_runs(spec):
    program = spec.program()
    interp = run_program(program, spec.dataset("test", seed=0))
    assert interp.executed > 1000


@pytest.mark.parametrize("name", ["hmmsearch", "clustalw", "blast"])
def test_datasets_are_deterministic(name):
    spec = get_workload(name)
    first = spec.dataset("test", seed=7)
    second = spec.dataset("test", seed=7)
    assert first == second
    different = spec.dataset("test", seed=8)
    assert first != different


def test_scale_validation():
    with pytest.raises(ValueError):
        check_scale("huge")


def test_scales_are_ordered_by_work():
    spec = get_workload("clustalw")
    sizes = {}
    for scale in ("test", "small", "medium"):
        interp = run_program(spec.program(), spec.dataset(scale))
        sizes[scale] = interp.executed
    assert sizes["test"] < sizes["small"] < sizes["medium"]


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def test_clustalw_matches_reference():
    spec = get_workload("clustalw")
    bindings = spec.dataset("test", seed=11)
    n1, n2 = bindings["N1"], bindings["N2"]
    go, ge = bindings["GO"], bindings["GE"]
    s1, s2 = bindings["s1"], bindings["s2"]
    matrix = bindings["matrix"]

    HH = [0] * (n2 + 1)
    EE = [-go] * (n2 + 1)
    best = (0, 0, 0)
    for i in range(1, n1 + 1):
        s = HH[0]
        HH[0] = 0
        f = -go
        for j in range(1, n2 + 1):
            f -= ge
            t = HH[j] - go - ge
            if t > f:
                f = t
            e = EE[j] - ge
            if t > e:
                e = t
            hh = s + matrix[s1[i] * 20 + s2[j]]
            if f > hh:
                hh = f
            if e > hh:
                hh = e
            if hh < 0:
                hh = 0
            s = HH[j]
            HH[j] = hh
            EE[j] = e
            if hh > best[0]:
                best = (hh, i, j)
    interp = run_program(spec.program(), spec.dataset("test", seed=11))
    assert interp.array("result") == list(best)
    assert interp.array("HH") == HH


def test_fasta_reference_smith_waterman_shape():
    spec = get_workload("fasta")
    interp = run_program(spec.program(), spec.dataset("test", seed=1))
    best = interp.array("result")[0]
    assert best >= 0  # Smith-Waterman scores are non-negative


def test_blast_counts_hits():
    spec = get_workload("blast")
    bindings = spec.dataset("test", seed=0)
    interp = run_program(spec.program(), bindings)
    total, hits = interp.array("result")
    # Hit count must equal the chain walks the input implies.
    expected_hits = 0
    s1, heads, nexts = bindings["s1"], bindings["heads"], bindings["nexts"]
    for q in range(bindings["N1"] - 2):
        w = (s1[q] * 5 + s1[q + 1]) * 5 + s1[q + 2]
        node = heads[w]
        while node != 0:
            expected_hits += 1
            node = nexts[node]
    assert hits == expected_hits


def test_dnapenny_matches_reference():
    spec = get_workload("dnapenny")
    bindings = spec.dataset("test", seed=3)
    ns, nt, nsp = bindings["NSITES"], bindings["NTREES"], bindings["NSPECIES"]
    chars, weights, order = bindings["chars"], bindings["weights"], bindings["order"]
    bestbound = bindings["BOUND"]
    pruned = 0
    for t in range(nt):
        base = order[t * nsp] * ns
        acc = chars[base : base + ns]
        steps = 0
        for s in range(1, nsp):
            base = order[t * nsp + s] * ns
            for site in range(ns):
                x = acc[site] & chars[base + site]
                if x == 0:
                    x = acc[site] | chars[base + site]
                    steps += weights[site]
                acc[site] = x
            if steps > bestbound:
                pruned += 1
                break
        if steps < bestbound:
            bestbound = steps
    interp = run_program(spec.program(), spec.dataset("test", seed=3))
    assert interp.array("result") == [bestbound, pruned]


def test_promlk_matches_reference():
    spec = get_workload("promlk")
    bindings = spec.dataset("test", seed=5)
    ns, nn = bindings["NSITES"], bindings["NNODES"]
    p1, p2 = bindings["p1"], bindings["p2"]
    lv1 = list(bindings["lv1"])
    lv2 = bindings["lv2"]
    freq = bindings["freq"]
    out = [0.0] * (ns * 4)
    scale = [0] * ns
    total = 0.0
    for _ in range(nn):
        for site in range(ns):
            sb = site * 4
            sitelike = 0.0
            for a in range(4):
                ab = a * 4
                sum1 = sum(p1[ab + b] * lv1[sb + b] for b in range(4))
                sum2 = sum(p2[ab + b] * lv2[sb + b] for b in range(4))
                out[sb + a] = sum1 * sum2
                sitelike += freq[a] * sum1 * sum2
            if sitelike < 0.0001:
                for a in range(4):
                    out[sb + a] *= 10000.0
                scale[site] += 1
            total += sitelike
        for site in range(ns):
            sb = site * 4
            lv1[sb : sb + 4] = out[sb : sb + 4]
    interp = run_program(spec.program(), spec.dataset("test", seed=5))
    assert interp.array("result")[0] == int(total * 1000.0)
    assert interp.array("scale") == scale


def test_predator_figure8_semantics():
    """The Figure 8 logic: c = va[j] when the pair list has no entry for
    column j, else k*m."""
    spec = get_workload("predator")
    bindings = spec.dataset("test", seed=9)
    ni, nj = bindings["NI"], bindings["NJ"]
    row_head, col, nxt = bindings["row_head"], bindings["col"], bindings["nxt"]
    va = bindings["va"]
    total, pi, pj = 0, 0, 0
    for i in range(ni):
        k = i + 3
        for j in range(nj):
            m = j - 7
            c = k * m
            z = row_head[i]
            tt = 1
            while z != 0:
                if col[z] == j:
                    tt = 0
                    break
                z = nxt[z]
            if tt != 0:
                c = va[j]
            if c <= 0:
                c, ci, cj = 0, i, j
            else:
                ci, cj = pi, pj
            total += c + ci - cj
            pi, pj = ci, cj
    interp = run_program(spec.program(), spec.dataset("test", seed=9))
    assert interp.array("result")[0] == total


def test_hmmer_viterbi_score_is_meaningful():
    spec = get_workload("hmmsearch")
    interp = run_program(spec.program(), spec.dataset("test", seed=0))
    best = interp.array("best")
    neginf = -987654321
    assert all(b > neginf for b in best)


def test_registry_lookup_and_errors():
    assert get_workload("hmmsearch").name == "hmmsearch"
    assert get_workload("gcc").category.startswith("SPEC")
    with pytest.raises(KeyError):
        get_workload("doom")


def test_program_memo_keys_on_every_option_field():
    spec = get_workload("hmmsearch")
    spec.program()
    unrolled = CompilerOptions(unroll_factor=4)
    expected = compile_source(spec.source(), name=spec.name, options=unrolled)
    assert spec.program(options=unrolled).disassemble() == expected.disassemble()


def test_paper_numbers_present_for_amenable():
    from repro.workloads import amenable_workloads

    for spec in amenable_workloads():
        assert spec.amenable
        assert spec.paper.loads_considered is not None
        assert spec.paper.loc_involved is not None
        assert spec.paper.runtimes or spec.name == "dnapenny"


def test_transform_stats_reasonable():
    spec = get_workload("predator")
    stats = spec.transform_stats()
    assert stats["loads_considered"] >= 1
    assert stats["loc_involved"] >= 2


def test_source_property_raises_for_non_amenable():
    spec = get_workload("blast")
    with pytest.raises(ValueError):
        spec.source(transformed=True)
