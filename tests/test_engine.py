"""Placement, shuffle planning, transcripts, and exact load measurement."""

import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from random_pdas import balanced_comp_pdas, comp_pdas, greedy_comp_pda

from pdamr import engine
from pdamr import (
    STAR,
    Bits,
    DivisibilityError,
    EmptyStarRowError,
    EngineDefectError,
    JobSpec,
    ParameterError,
    Pda,
    TranscriptReport,
    Workload,
    block_stream,
    build_placement,
    column_subarray,
    full_star_pda,
    job_geometry,
    le64,
    man_pda,
    measure_loads,
    optimal_load,
    achieved_load,
    p1_pda,
    p2_pda,
    pda_stats,
    plan_active_set,
    run_transcript,
    stack_pda,
)

EX1 = man_pda(4, 2)
TOY = JobSpec(n_files=6, d_functions=3, w_bits=64, v_bits=120, u_bits=64, seed=7)


def stored_copies(placement):
    """How many nodes store each file."""
    return Counter(n for files in placement.node_files.values() for n in files)


def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec(0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        JobSpec(1, 1, 1, 0, 1)


def test_placement_example():
    placement = build_placement(EX1, TOY)
    assert placement.eta == 1
    assert placement.node_files[1] == (1, 2, 3)
    assert placement.node_files[2] == (1, 4, 5)
    assert placement.node_files[3] == (2, 4, 6)
    assert placement.node_files[4] == (3, 5, 6)


def test_placement_shares_each_file_id():
    # one int object per file id in every node's tuple; ids above 256 are
    # distinct objects unless they are shared
    placement = build_placement(EX1, JobSpec(600, 3, 8, 8, 8, 0))
    first = {}
    for files in placement.node_files.values():
        for n in files:
            assert first.setdefault(n, n) is n
    assert sorted(first) == list(range(1, 601))


def test_placement_all_star_small():
    placement = build_placement(full_star_pda(3, 1),
                                JobSpec(5, 1, 8, 8, 8, 0))
    assert placement.eta == 5
    assert all(files == (1, 2, 3, 4, 5) for files in placement.node_files.values())


def test_placement_batched():
    placement = build_placement(EX1, JobSpec(12, 3, 8, 8, 8, 0))
    assert placement.eta == 2
    assert placement.node_files[1] == (1, 2, 3, 4, 5, 6)
    assert stored_copies(placement) == dict.fromkeys(range(1, 13), 2)


def test_placement_divisibility():
    with pytest.raises(DivisibilityError):
        build_placement(EX1, JobSpec(7, 3, 8, 8, 8, 0))


def test_storage_profile_families():
    for pda, expected_copies in ((man_pda(4, 2), 2), (p2_pda(2, 2), 2),
                                 (full_star_pda(3, 2), 3)):
        job = JobSpec(pda.f * 2, 2, 8, 8, 8, 0)
        copies = stored_copies(build_placement(pda, job))
        assert copies == dict.fromkeys(range(1, job.n_files + 1), expected_copies)


def test_plan_example_active_set():
    plan = plan_active_set(EX1, [1, 2, 4], TOY)
    assert plan.active == (1, 2, 4)
    assert plan.reduce_assignment == {1: (1,), 2: (2,), 4: (3,)}
    # each symbol's places by ascending column, which labels the parts: the
    # block at (0, 4) under symbol 2 splits into parts labelled 1 and 2
    labels = {s: tuple(k for _, k in p) for s, p in plan.occurrences.items()}
    assert labels == {1: (1, 2), 2: (1, 2, 4), 3: (1, 4), 4: (2, 4)}


def test_plan_full_active_set_is_identity_subarray():
    plan = plan_active_set(EX1, [1, 2, 3, 4], JobSpec(6, 4, 8, 24, 8, 0))
    assert plan.subarray == EX1


def test_plan_singletons():
    # restricting p1(2,2) to columns {1,2,3} leaves symbol 2 occurring once,
    # at (row 2, col 1); node 2, the lowest active star in that row, sends it
    job = JobSpec(2, 3, 8, 24, 8, 0)
    report = run_transcript(p1_pda(2, 2), job, [1, 2, 3])
    assert [(sym, senders) for sym, senders, _, _ in report.coded if sym == 2] == [(2, (2,))]
    assert report.reference_match


def test_plan_divisibility_errors():
    with pytest.raises(DivisibilityError):
        plan_active_set(EX1, [1, 2, 4], JobSpec(6, 4, 8, 8, 8, 0))  # 3 does not divide 4
    with pytest.raises(DivisibilityError) as err:
        plan_active_set(EX1, [1, 2, 4], JobSpec(6, 3, 8, 7, 8, 0))
    assert "lcm" in str(err.value)


def test_plan_outage():
    with pytest.raises(EmptyStarRowError):
        plan_active_set(p1_pda(2, 2), [2, 4], JobSpec(2, 2, 8, 8, 8, 0))


def test_plan_rejects_duplicate_active_nodes():
    # a repeated node is an error, not the smaller set it would collapse to
    job = JobSpec(2, 2, 8, 8, 8, 0)
    with pytest.raises(ValueError, match="nodes must be distinct"):
        plan_active_set(full_star_pda(3, 1), [1, 1, 2], job)
    with pytest.raises(ValueError, match="nodes must be distinct"):
        run_transcript(full_star_pda(3, 1), job, [1, 1, 2])


def test_toy_transcript_totals():
    report = run_transcript(EX1, TOY, [1, 2, 4])
    assert report.total_bits == 900  # 7.5 V
    assert report.per_symbol_bits == {1: 240, 2: 180, 3: 240, 4: 240}
    assert report.reference_match


def test_toy_transcript_signal_table():
    # the worked example's shuffle table, bit for bit
    wl = Workload(TOY)
    report = run_transcript(EX1, TOY, [1, 2, 4], workload=wl)
    v = TOY.v_bits

    def half(d, n, i):  # first (i = 0) or second half of a V-bit value
        return wl.iva(d, n) >> (v // 2) * (1 - i) & ((1 << v // 2) - 1)

    whole = {(1, 1): wl.iva(2, 2), (2, 1): wl.iva(1, 4), (1, 3): wl.iva(3, 2),
             (4, 3): wl.iva(1, 6), (2, 4): wl.iva(3, 4), (4, 4): wl.iva(2, 6)}
    halves = {(1, 2): half(2, 3, 0) ^ half(3, 1, 0),
              (2, 2): half(3, 1, 1) ^ half(1, 5, 0),
              (4, 2): half(1, 5, 1) ^ half(2, 3, 1)}
    expected = {**{key: Bits(value, v) for key, value in whole.items()},
                **{key: Bits(value, v // 2) for key, value in halves.items()}}
    assert report.signals == expected
    # the halves are those of the packed bits, first half first
    assert [Bits(half(2, 3, i), v // 2) for i in (0, 1)] == Bits(wl.iva(2, 3), v).split(2)


def test_transcript_same_total_for_every_active_set():
    for active in ([1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]):
        report = run_transcript(EX1, TOY, active)
        assert report.total_bits == 900
        assert report.reference_match


def test_transcript_all_star_sends_nothing():
    job = JobSpec(4, 2, 8, 16, 8, 5)
    report = run_transcript(full_star_pda(3, 2), job, [1, 3])
    assert report.total_bits == 0
    assert report.signals == {}
    assert report.reference_match


def test_transcript_deterministic():
    a = run_transcript(EX1, TOY, [1, 2, 4])
    b = run_transcript(EX1, TOY, [1, 2, 4])
    assert a == b


def test_transcript_rejects_foreign_workload():
    other = Workload(JobSpec(6, 3, 64, 120, 64, seed=8))
    with pytest.raises(ValueError):
        run_transcript(EX1, TOY, [1, 2, 4], workload=other)


def test_per_symbol_length_law():
    # 0 if absent, one block if singleton, g/(g-1) blocks if g >= 2
    pda = p1_pda(2, 3)  # tau = 3, K = 6
    job = JobSpec(n_files=4, d_functions=4, w_bits=16, v_bits=24, u_bits=16, seed=2)
    block = (job.d_functions // 4) * (job.n_files // pda.f) * job.v_bits
    report = run_transcript(pda, job, [1, 3, 4, 6])
    plan = plan_active_set(pda, [1, 3, 4, 6], job)
    for sym, places in plan.occurrences.items():
        g = len(places)
        expected = block if g == 1 else Fraction(g, g - 1) * block
        assert report.per_symbol_bits[sym] == expected
    for sym in set(pda.occurrences) - set(plan.occurrences):
        assert sym not in report.per_symbol_bits


def test_measured_loads_match_formulas():
    report = measure_loads(EX1, TOY, 3)
    assert report.l_measured == Fraction(5, 12)
    assert report.r_measured == 2
    assert report.match and report.all_reference_match
    assert all(bits == 900 for _, bits in report.per_active_set)

    report = measure_loads(p1_pda(2, 2), JobSpec(2, 3, 16, 24, 16, 1), 3)
    assert report.l_measured == Fraction(1, 2)
    assert report.match and report.all_reference_match

    report = measure_loads(full_star_pda(4, 1), JobSpec(4, 2, 8, 8, 8, 0), 2)
    assert report.l_measured == 0 and report.match


def test_measured_loads_sampled():
    report = measure_loads(EX1, TOY, 3, samples=5, seed=42)
    assert report.mode == "sample"
    assert len(report.per_active_set) == 5
    assert report.l_measured == Fraction(5, 12)  # constant over sets here
    again = measure_loads(EX1, TOY, 3, samples=5, seed=42)
    assert report == again


@pytest.mark.parametrize("samples", [0, -1])
def test_measured_loads_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        measure_loads(EX1, TOY, 3, samples=samples)


def test_optimal_scheme_stores_uniformly():
    # schemes sitting exactly on the tradeoff store every file the same
    # number of times
    cases = [man_pda(4, 2), man_pda(5, 3), p1_pda(3, 1), full_star_pda(4, 2)]
    for pda in cases:
        stats = pda_stats(pda)
        r = stats.storage_load
        assert r.denominator == 1
        q_active = pda.k - stats.tau + 1
        if achieved_load(pda, q_active).l == optimal_load(pda.k, q_active, r):
            job = JobSpec(pda.f, q_active, 8, 8, 8, 0)
            copies = stored_copies(build_placement(pda, job))
            assert copies == dict.fromkeys(range(1, job.n_files + 1), int(r))


def test_reference_oracle():
    tiny = JobSpec(1, 1, 16, 16, 16, 3)
    outputs = Workload(tiny).reference()
    wl = Workload(tiny)
    assert outputs == {1: wl.reduce_output(1, [wl.iva(1, 1)])}
    assert outputs == Workload(JobSpec(1, 1, 16, 16, 16, 3)).reference()
    # different seeds give different files, hence different outputs
    assert outputs != Workload(JobSpec(1, 1, 16, 16, 16, 4)).reference()


# sha256 of the concatenated ``to_bytes()`` of every reference output, d
# ascending. V = 60 is not a byte multiple, so values straddle byte
# boundaries; with N = 5 the 300-bit reduce payload also ends in 4 pad bits.
PINNED_REFERENCE = {
    6: "e4a9add3464db97a100f8ce0d5a47822f3b764d6f7a506841a4ac3301d0808e7",
    5: "bb0342698f6f9d60721147aee6969e3dea7ef1f9bc394455f8ce673b0a3a0e69",
}


@pytest.mark.parametrize("n_files", list(PINNED_REFERENCE))
def test_reference_oracle_pinned_digest(n_files):
    outputs = Workload(JobSpec(n_files, 3, 64, 60, 64, seed=7)).reference()
    assert list(outputs) == [1, 2, 3]
    digest = hashlib.sha256(b"".join(out.to_bytes() for out in outputs.values()))
    assert digest.hexdigest() == PINNED_REFERENCE[n_files]


def test_reduce_output_rejects_bad_values():
    wl = Workload(TOY)
    ivas = [wl.iva(1, n) for n in range(1, 7)]
    with pytest.raises(ValueError, match="one intermediate value per file"):
        wl.reduce_output(1, ivas[:5])
    for bad in (1 << TOY.v_bits, -1):
        with pytest.raises(ValueError, match="fit in 120 bits"):
            wl.reduce_output(1, ivas[:5] + [bad])
    assert wl.reduce_output(1, ivas) == wl.reference()[1]


def test_workload_iva_depends_on_file_content():
    job = JobSpec(2, 2, 32, 32, 32, 9)
    wl = Workload(job)
    assert wl.iva(1, 1) != wl.iva(1, 2)
    assert wl.iva(1, 1) != wl.iva(2, 1)


def test_minimal_valid_v():
    # the split-rule error of job_geometry names the smallest valid V
    with pytest.raises(DivisibilityError) as err:
        job_geometry(EX1, JobSpec(6, 3, 8, 7, 8, 0), 3)
    assert (err.value.divisor, err.value.value) == (2, 7)
    assert str(err.value) == ("lcm(1..2) = 2 must divide eta*(D/Q)*V = 7 so coded blocks "
                              "split evenly; at or above V = 7, the smallest valid V is 8 "
                              "(--iva-bits 8)")
    assert job_geometry(EX1, JobSpec(6, 3, 8, 8, 8, 0), 3) == (1, 8)
    assert job_geometry(EX1, JobSpec(6, 3, 8, 120, 8, 0), 3) == (1, 120)
    # eta = 2 already contributes a factor 2, so any V works for Q = 3
    assert job_geometry(EX1, JobSpec(12, 3, 8, 7, 8, 0), 3) == (2, 14)
    # F | N is checked before the split rule, so N = 7 gets no V suggestion
    with pytest.raises(DivisibilityError) as err:
        job_geometry(EX1, JobSpec(7, 3, 8, 8, 8, 0), 3)
    assert (err.value.divisor, err.value.value) == (6, 7)
    assert str(err.value) == "row count 6 must divide the number of files 7"


def test_job_geometry():
    geometry = job_geometry(EX1, JobSpec(12, 6, 8, 10, 8, 0), 3)
    assert geometry == (2, 2 * 2 * 10)
    with pytest.raises(DivisibilityError) as err:
        job_geometry(EX1, JobSpec(6, 4, 8, 8, 8, 0), 3)
    assert (err.value.divisor, err.value.value) == (3, 4)
    assert str(err.value) == "active-set size 3 must divide the number of functions 4"
    for q in (0, 5):  # the Q range comes first, so q = 0 never divides
        with pytest.raises(ParameterError, match=f"q_active must be in 1..4, got {q}"):
            job_geometry(EX1, TOY, q)


def drop_symbol(plan):
    """``plan`` without its first symbol, so the nodes that need the blocks
    under it neither store nor receive them."""
    sym = next(iter(plan.occurrences))
    return dataclasses.replace(
        plan, occurrences={s: p for s, p in plan.occurrences.items() if s != sym})


def test_dropped_occurrence_is_an_engine_defect(monkeypatch):
    assert not issubclass(EngineDefectError, ValueError)
    real = engine.plan_active_set
    monkeypatch.setattr(engine, "plan_active_set", lambda *args: drop_symbol(real(*args)))
    with pytest.raises(EngineDefectError, match="node 1 neither stores nor decodes file 4,") as err:
        run_transcript(man_pda(4, 2), JobSpec(6, 3, 64, 120, 64, 7), [1, 2, 4])
    # the dropped symbol is the one at node 1's cell of file 4's batch
    assert str(err.value).endswith("(active set (1, 2, 4), symbol 1)")


@pytest.mark.parametrize("places", [((0, 1), (1, 2)), ((4, 1), (1, 2))],
                         ids=["stored-row-decoded", "row-decoded-twice"])
def test_no_decode_hides_a_gap(monkeypatch, places):
    # symbol 1 carries node 1's missing file 4 (row 3) and node 2's row 1;
    # node 1's place moves to a row it stores, or to a row it also decodes
    # under symbol 2, so node 1 decodes as many blocks as before and the
    # cross-star rule still holds, but file 4 is left out
    real = engine.plan_active_set

    def moved(*args):
        plan = real(*args)
        return dataclasses.replace(plan, occurrences={**plan.occurrences, 1: places})

    monkeypatch.setattr(engine, "plan_active_set", moved)
    with pytest.raises(EngineDefectError, match="node 1 neither stores nor decodes file 4,") as err:
        run_transcript(EX1, JobSpec(6, 3, 64, 120, 64, 7), [1, 2, 4])
    assert str(err.value).endswith("(active set (1, 2, 4), symbol 1)")


def test_cross_star_break_is_an_engine_defect():
    # built directly, so unvalidated: symbol 1 at (1,2) and (2,1) needs a
    # star at (2,2), which holds symbol 2 instead
    pda = Pda(((STAR, 1, STAR), (1, 2, STAR)))
    with pytest.raises(EngineDefectError, match="cross-star rule") as err:
        run_transcript(pda, JobSpec(2, 3, 8, 8, 8, 0), [1, 2, 3])
    assert str(err.value).endswith("(active set (1, 2, 3), symbol 1)")


def test_relabelled_split_plan_still_decodes(monkeypatch):
    # which part of a block goes to which column is a free choice that
    # encoder and decoder share, so a reversed place order is still a
    # correct scheme
    real = engine.plan_active_set

    def relabelled(*args):
        plan = real(*args)
        sym = next(s for s, places in plan.occurrences.items() if len(places) >= 3)
        occurrences = {**plan.occurrences, sym: plan.occurrences[sym][::-1]}
        return dataclasses.replace(plan, occurrences=occurrences)

    plain = run_transcript(EX1, TOY, [1, 2, 4])
    monkeypatch.setattr(engine, "plan_active_set", relabelled)
    report = run_transcript(EX1, TOY, [1, 2, 4])
    assert report.reference_match
    assert report.total_bits == 900
    assert report.signals != plain.signals  # the parts did move between labels


def test_transcript_check_catches_corruption():
    # function 1's map output for file 4 changes by one bit after the
    # reference outputs were taken
    wl = Workload(TOY)
    wl.reference()
    wl.column(1)[3] ^= 1
    report = run_transcript(EX1, TOY, [1, 2, 4], workload=wl)
    assert report.reference_match is False
    assert report.outputs[1][1] != wl.reference()[1]
    assert report.outputs[2][2] == wl.reference()[2]


class IgnoringReduce(Workload):
    """A reduce that ignores the values it is given and reduces the map
    outputs instead, so that only the per-value decode check can see a
    fault in a decoded block."""

    def reduce_output(self, d, ivas):
        return super().reduce_output(d, self.column(d))


def test_decoded_values_are_checked_one_by_one():
    # node 1 reduces function 1 and decodes file 4 (row 3, symbol 1 of EX1);
    # one bit of the block it is sent is wrong, its column entry is right
    wl = IgnoringReduce(TOY)
    wl.reference()
    wl.blocks((1,), 1)[3] ^= 1
    report = run_transcript(EX1, TOY, [1, 2, 4], workload=wl)
    assert all(report.outputs[k][d] == wl.reference()[d]
               for k, outputs in report.outputs.items() for d in outputs)
    assert report.reference_match is False


def test_reduce_memo_never_serves_another_payload():
    wl = Workload(TOY)
    ivas = [wl.iva(2, n) for n in range(1, 7)]
    flipped = ivas[:3] + [ivas[3] ^ (1 << 50)] + ivas[4:]
    results = [wl.reduce_output(2, payload) for payload in (ivas, flipped, ivas, flipped)]
    assert results[0] != results[1]
    assert results[2:] == results[:2]
    for payload, got in zip((ivas, flipped), results):
        packed = b"".join(value.to_bytes(15, "big") for value in payload)  # V = 120
        assert got == block_stream(le64(2), packed, TOY.u_bits)


def test_mixed_multiplicity_stack_end_to_end():
    pda = stack_pda(man_pda(5, 2), man_pda(5, 3), man_pda(5, 4))
    stats = pda_stats(pda)
    assert stats.s_t == {3: 10, 4: 5, 5: 1}
    assert stats.tau == 2 and stats.regular_g is None
    for q, load in ((4, Fraction(4, 15)), (5, Fraction(11, 60))):
        report = measure_loads(pda, JobSpec(25, q, 16, 12, 16, seed=3), q)
        assert report.closed_form.l == load
        assert report.l_measured == load
        assert report.match and report.all_reference_match


def test_each_map_value_is_computed_once_per_job(monkeypatch):
    calls = Counter()
    real = Workload.iva

    def counting(self, d, n):
        calls[id(self), d, n] += 1
        return real(self, d, n)

    monkeypatch.setattr(Workload, "iva", counting)
    for pda, job, q in ((man_pda(6, 3), JobSpec(20, 4, 16, 12, 16, seed=1), 4),
                        (MIXED, JobSpec(25, 5, 16, 12, 16, seed=3), 5)):
        calls.clear()
        report = measure_loads(pda, job, q)
        assert report.match and report.all_reference_match
        assert len(calls) == sum(calls.values()) == job.n_files * job.d_functions


def test_workload_shared_by_arrays_of_different_batch_size():
    # F = 6 and F = 4 cut the same 12 files into batches of 2 and 3, so the
    # same function tuples are packed into blocks twice, once per batch
    # size; the third array reads the batch-2 blocks back from the cache
    job = JobSpec(12, 3, 16, 8, 16, seed=4)
    shared = Workload(job)
    for pda in (man_pda(4, 2), man_pda(4, 3), man_pda(4, 2)):
        for active in itertools.combinations(range(1, 5), 3):
            report = run_transcript(pda, job, active, workload=shared)
            fresh = run_transcript(pda, job, active)
            assert report.reference_match
            assert report == fresh and report.signals == fresh.signals


def test_signals_are_built_only_when_read(monkeypatch):
    built = []

    class CountingBits(Bits):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(engine, "Bits", CountingBits)
    job = JobSpec(20, 4, 16, 12, 16, seed=1)
    report = measure_loads(man_pda(6, 3), job, 4)
    assert report.match and report.all_reference_match
    assert built == []
    transcript = run_transcript(man_pda(6, 3), job, [1, 2, 4, 6])
    assert built == []
    signals = transcript.signals
    assert len(built) == len(signals) > 0
    assert transcript.signals is signals and len(built) == len(signals)
    assert sum(signal.nbits for signal in signals.values()) == transcript.total_bits


@pytest.mark.parametrize("pda, q_active, v_bits", [
    (man_pda(8, 4), 7, 12),     # g = 5: lcm(1..4) = 12, not lcm(1..6) = 60
    (p1_pda(2, 4), 7, 6),       # g = 4: lcm(1..3) = 6, not lcm(1..6) = 60
    (p1_pda(2, 6), 12, 480),    # g = 6: lcm(1..5) = 60, not lcm(1..11) = 27720
    (p2_pda(3, 4), 12, 3360),   # g = 8: lcm(1..7) = 420, not lcm(1..11) = 27720
], ids=["man-8-4", "p1-2-4", "p1-2-6", "p2-3-4"])
def test_split_rule_follows_the_largest_multiplicity(pda, q_active, v_bits):
    # with eta = D/Q = 1, V only needs lcm(1..min(Q, g_max)-1), since no
    # block splits into more parts than its symbol has occurrences, less one
    report = measure_loads(pda, JobSpec(pda.f, q_active, 8, v_bits, 8, seed=1), q_active)
    assert report.mode == "exhaustive"
    assert len(report.per_active_set) == math.comb(pda.k, q_active)
    assert report.l_measured == report.closed_form.l
    assert report.match and report.all_reference_match


@settings(max_examples=60, deadline=None)
@given(st.one_of(comp_pdas(), balanced_comp_pdas()))
def test_smallest_split_rule_v_splits_every_block_evenly(pda):
    # D = Q, eta = 1 and V = lcm(1..m-1), m = min(Q, g_max): the least V the
    # rule accepts, so any uneven split would break the decode or the load
    g_max = max(pda.s_t, default=1)
    for q in range(pda.k - pda.tau + 1, pda.k + 1):
        job = JobSpec(pda.f, q, 8, math.lcm(*range(1, min(q, g_max))), 8, seed=q)
        report = measure_loads(pda, job, q)
        assert report.l_measured == achieved_load(pda, q).l
        assert report.match and report.all_reference_match


@settings(max_examples=60, deadline=None)
@given(st.one_of(comp_pdas(), balanced_comp_pdas()), st.data())
def test_bit_tallies_agree_with_the_signals(pda, data):
    # the per-symbol, per-node and total tallies are all read from `coded`;
    # here each is summed again from the signals, on mixed multiplicities
    q = data.draw(st.integers(pda.k - pda.tau + 1, pda.k), label="q")
    job = JobSpec(pda.f, q, 8, math.lcm(*range(1, min(q, max(pda.s_t, default=1)))), 8, seed=q)
    wl = Workload(job)
    totals = []
    for active in itertools.combinations(range(1, pda.k + 1), q):
        report = run_transcript(pda, job, active, workload=wl)
        per_symbol, per_node = Counter(), dict.fromkeys(active, 0)
        for (k, sym), signal in report.signals.items():
            per_symbol[sym] += signal.nbits
            per_node[k] += signal.nbits
        assert report.per_symbol_bits == per_symbol
        assert report.per_node_bits == per_node
        assert report.total_bits == sum(report.per_node_bits.values())
        totals.append(report.total_bits)
    measured = measure_loads(pda, job, q).l_measured
    assert measured == Fraction(sum(totals), len(totals)) / (job.n_files * job.d_functions * job.v_bits)


def test_exhaustive_man_10_5_at_scale():
    # 120 transcripts of a 252 x 10 array; V = 60 = lcm(1..6) with eta = D/Q = 1
    report = measure_loads(man_pda(10, 5), JobSpec(252, 7, 64, 60, 64, seed=1), 7)
    assert report.mode == "exhaustive" and len(report.per_active_set) == 120
    assert report.match and report.all_reference_match


def no_transcript(pda, job, active, workload=None):
    """Stands in for run_transcript where only the choice of sets matters."""
    return TranscriptReport(active=tuple(active), coded=(), per_node_bits={},
                            per_symbol_bits={}, total_bits=0, outputs={},
                            reference_match=True)


def test_sampling_draws_sets_without_enumerating(monkeypatch):
    # C(30, 12) is about 8.6e7 sets; the sampler must never list them.
    # V = lcm(1..11) meets the split rule at Q = 12 with eta = D/Q = 1
    def no_enumeration(*args):
        raise AssertionError("active sets enumerated in sample mode")

    monkeypatch.setattr(engine, "combinations", no_enumeration)
    monkeypatch.setattr(engine, "run_transcript", no_transcript)
    pda, job = full_star_pda(30, 1), JobSpec(1, 12, 8, 27720, 8, 0)
    report = measure_loads(pda, job, 12, samples=3, seed=5)
    assert report.mode == "sample" and len(report.per_active_set) == 3
    for active, bits in report.per_active_set:
        assert len(set(active)) == 12 and list(active) == sorted(active)
        assert set(active) <= set(range(1, 31)) and bits == 0
    assert report.l_measured == 0 and report.match
    assert measure_loads(pda, job, 12, samples=3, seed=5) == report


def no_load(*args):
    """Stands in for achieved_load, the first work measure_loads does."""
    raise AssertionError("work started before the intake checks")


def test_work_budget_refuses_before_any_work(monkeypatch):
    # man(14,7) Q=9: 2002 transcripts of 3432 x 14 cells, about 2 h of work
    pda, job = man_pda(14, 7), JobSpec(3432, 9, 64, 840, 64)
    monkeypatch.setattr(engine, "achieved_load", no_load)
    with pytest.raises(ParameterError, match=r"^2002 transcripts of a 3432x14 array walk "
                       r"96192096 cells, above the limit of 10000000; .*--samples$"):
        measure_loads(pda, job, 9)
    monkeypatch.undo()
    monkeypatch.setattr(engine, "run_transcript", no_transcript)
    report = measure_loads(pda, job, 9, samples=3)
    assert report.mode == "sample" and len(report.per_active_set) == 3

    # the exhaustive man(12,6) Q=8 run stays inside the budget
    assert math.comb(12, 8) * math.comb(12, 6) * 12 == 5_488_560 <= engine.MAX_TRANSCRIPT_CELLS
    # the limit itself is allowed: C(4,3) transcripts of man(4,2) walk 96 cells
    monkeypatch.setattr(engine, "MAX_TRANSCRIPT_CELLS", 96)
    assert len(measure_loads(EX1, TOY, 3).per_active_set) == 4
    monkeypatch.setattr(engine, "MAX_TRANSCRIPT_CELLS", 95)
    with pytest.raises(ParameterError, match="walk 96 cells"):
        measure_loads(EX1, TOY, 3)

    # the same holds for the hashed bytes: man(4,2) at V = 2**23 hashes
    # 94.4M bytes and still runs, 2**24 is refused
    assert engine.hashed_bytes(JobSpec(6, 3, 64, 2**23, 64)) == 94_372_032
    assert engine.hashed_bytes(JobSpec(6, 3, 64, 2**24, 64)) > engine.MAX_HASHED_BYTES
    monkeypatch.undo()
    monkeypatch.setattr(engine, "MAX_HASHED_BYTES", engine.hashed_bytes(TOY))
    assert measure_loads(EX1, TOY, 3).match
    monkeypatch.setattr(engine, "MAX_HASHED_BYTES", engine.hashed_bytes(TOY) - 1)
    with pytest.raises(ParameterError, match=f"hash {engine.hashed_bytes(TOY)} bytes"):
        measure_loads(EX1, TOY, 3)


@pytest.mark.parametrize("pda, job, q_active, samples, message", [
    (EX1, JobSpec(6, 3, 8, 7, 8), 3, None, r"^lcm\(1\.\.2\) = 2 must divide .* smallest "
                                           r"valid V is 8 \(--iva-bits 8\)$"),
    (EX1, TOY, 0, None, r"^q_active must be in 1\.\.4, got 0$"),
    (EX1, TOY, 3, -1, r"^samples must be >= 1$"),
    (EX1, JobSpec(6, 3, 64, 2**30, 64), 3, None, r"^the job's files, map values and "
                                                 r"reference outputs hash 12079595712 "
                                                 r"bytes, above the limit of 100000000$"),
    # p1(2,6) symbols occur 6 times, so Q = 12 needs lcm(1..5) = 60, not lcm(1..11)
    (p1_pda(2, 6), JobSpec(32, 12, 8, 470, 8), 12, None,
     r"^lcm\(1\.\.5\) = 60 must divide eta\*\(D/Q\)\*V = 470 so coded blocks split evenly "
     r"\(no symbol occurs more than g_max = 6 < Q = 12 times\); at or above V = 470, the "
     r"smallest valid V is 480 \(--iva-bits 480\)$"),
    # the job rules come before the samples check
    (EX1, JobSpec(6, 3, 8, 7, 8), 3, 0, r"^lcm\(1\.\.2\) = 2 must divide "),
], ids=["lcm", "q0", "samples", "hashed-bytes", "lcm-g-max", "lcm-before-samples"])
def test_intake_refuses_before_any_work(monkeypatch, pda, job, q_active, samples, message):
    monkeypatch.setattr(engine, "achieved_load", no_load)
    with pytest.raises(ParameterError, match=message):
        measure_loads(pda, job, q_active, samples=samples)


@pytest.mark.parametrize("pda, job, q_active", [
    (EX1, TOY, 3),
    (EX1, JobSpec(12, 3, 12, 8, 20, seed=1), 3),           # W and U not byte multiples
    (man_pda(5, 2), JobSpec(10, 4, 100, 66, 130, seed=2), 4),  # 2- and 3-block streams
    (man_pda(4, 3), JobSpec(4, 2, 64, 1, 1), 2),           # one-bit values and outputs
])
def test_hashed_bytes_counts_every_stream(monkeypatch, pda, job, q_active):
    # the estimate equals what the run hashes, counted per stream as
    # ceil(nbits/64) blocks of header + LE64(index) + payload
    hashed = []

    def counting(header, payload, nbits):
        hashed.append(-(-nbits // 64) * (len(header) + 8 + len(payload)))
        return block_stream(header, payload, nbits)

    monkeypatch.setattr(engine, "block_stream", counting)
    report = measure_loads(pda, job, q_active)
    assert report.match and report.all_reference_match
    assert sum(hashed) == engine.hashed_bytes(job)


def test_exhaustive_mode_draws_active_sets_lazily(monkeypatch):
    # the first transcript must start before the remaining C(K,Q) - 1 sets
    # are drawn, so a large enumeration never sits in memory all at once
    drawn = []

    def counting(nodes, q):
        for active in itertools.combinations(nodes, q):
            drawn.append(active)
            yield active

    class FirstTranscript(Exception):
        pass

    def first_transcript(pda, job, active, workload=None):
        raise FirstTranscript

    monkeypatch.setattr(engine, "combinations", counting)
    monkeypatch.setattr(engine, "run_transcript", first_transcript)
    with pytest.raises(FirstTranscript):
        measure_loads(EX1, TOY, 3)
    assert drawn == [(1, 2, 3)]


def transcript_digest(reports) -> str:
    """sha256 over every field of each report, dict entries in their order."""
    def table(mapping):
        return [[key, value] for key, value in mapping.items()]

    def bits_table(mapping):
        return [[key, [value.value, value.nbits]] for key, value in mapping.items()]

    blob = [{
        "active": list(report.active),
        "signals": bits_table(report.signals),
        "per_node_bits": table(report.per_node_bits),
        "per_symbol_bits": table(report.per_symbol_bits),
        "total_bits": report.total_bits,
        "outputs": [[k, bits_table(outputs)] for k, outputs in report.outputs.items()],
        "reference_match": report.reference_match,
    } for report in reports]
    text = json.dumps(blob, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


MIXED = stack_pda(man_pda(5, 2), man_pda(5, 3), man_pda(5, 4))


def pinned_jobs(pda, qs, files_per_row=1):
    """One job per active-set size: D = Q, and V = 180 and U = 130 (three
    blocks each), which split evenly for every Q <= 6."""
    return [(q, JobSpec(pda.f * files_per_row, q, 64, 180, 130, seed=q)) for q in qs]


# every active set of each (array, Q, job); the digests were computed with
# the implementation that keyed each part by (row, node, label)
PINNED_TRANSCRIPTS = {
    "ex1-toy": (EX1, [(3, TOY)],
                "db66de2a590734e42488565f7bf554c7224cc7d25e1dbad0270e0ce80ebf060e"),
    "p1-2-2": (p1_pda(2, 2), pinned_jobs(p1_pda(2, 2), (3, 4), files_per_row=2),
               "0f26ae521e00791df9bb28f6ea5bc8393041c81d10c3d17d92fbac21f5fe1c69"),
    "p2-3-2": (p2_pda(3, 2), pinned_jobs(p2_pda(3, 2), (3, 4, 5, 6)),
               "ded60a6e24693fd0696204b02d14115781dbe992ce570801f5a08d0b275d7c58"),
    "mixed-stack": (MIXED, pinned_jobs(MIXED, (4, 5)),
                    "c14af622bcb704157c52966d86c2f26838acbcf82aeadbef399076271c33c8f5"),
}


@pytest.mark.parametrize("name", list(PINNED_TRANSCRIPTS))
def test_transcripts_pinned(name):
    pda, jobs, expected = PINNED_TRANSCRIPTS[name]
    reports = []
    for q, job in jobs:
        wl = Workload(job)
        for active in itertools.combinations(range(1, pda.k + 1), q):
            reports.append(run_transcript(pda, job, active, workload=wl))
    assert all(report.reference_match for report in reports)
    assert transcript_digest(reports) == expected


def reference_plan(pda, active, job):
    """The plan of ``active`` by its definition, scanning the grid: symbols
    ascending, each with its active cells column by column.
    An outage gives the EmptyStarRowError that planning must raise."""
    active = tuple(sorted(active))
    q = len(active)
    for i, row in enumerate(pda.grid):
        if all(row[k - 1] != STAR for k in active):
            return EmptyStarRowError(i + 1)
    symbols = sorted({entry for row in pda.grid for entry in row if entry != STAR})
    occurrences = {}
    for sym in symbols:
        places = tuple((i, k) for k in active for i in range(pda.f)
                       if pda.grid[i][k - 1] == sym)
        if places:
            occurrences[sym] = places
    return engine.ActiveSetPlan(
        pda=pda,
        active=active,
        occurrences=occurrences,
        reduce_assignment={k: tuple(d for d in range(1, job.d_functions + 1)
                                    if (d - 1) % q == p) for p, k in enumerate(active)},
    )


# man(3,1) with labels 1..3 renamed 30, 4, 17, so not in first-occurrence
# order and with gaps: the plan must list symbols by ascending label. Two
# all-star columns give a singleton several candidate senders.
RENAMED = Pda(tuple(tuple(STAR if e == STAR else (30, 4, 17)[e - 1] for e in row)
                    + (STAR, STAR) for row in man_pda(3, 1).grid))


def plan_job(pda, q):
    """A job whose coded blocks split evenly at active-set size ``q``: with
    D = lcm(1..q) and V = 12, lcm(1..q-1) divides (D/q)*V for every q <= 8,
    the widest array drawn here."""
    return JobSpec(pda.f, math.lcm(*range(1, q + 1)), 16, 12, 16, seed=1)


def assert_plans_match_reference(pda):
    for j in range(pda.k):
        assert pda.star_rows(j) == tuple(
            i for i, mask in enumerate(pda.row_star_masks) if mask >> j & 1)
    assert all(0 < mask < 1 << pda.k for mask in pda.row_star_masks)
    for q in range(1, pda.k + 1):
        job = plan_job(pda, q)
        for active in itertools.combinations(range(1, pda.k + 1), q):
            want = reference_plan(pda, active, job)
            if isinstance(want, EmptyStarRowError):
                with pytest.raises(EmptyStarRowError) as err:
                    plan_active_set(pda, active, job)
                assert err.value.row == want.row
                continue
            plan = plan_active_set(pda, active, job)
            for places in plan.occurrences.values():
                assert [k for _, k in places] == sorted({k for _, k in places})
            for field in dataclasses.fields(plan):
                got, expected = getattr(plan, field.name), getattr(want, field.name)
                assert got == expected, field.name
                if isinstance(expected, dict):
                    assert list(got) == list(expected), field.name
            assert plan.subarray == Pda(tuple(tuple(row[k - 1] for k in active)
                                              for row in pda.grid))


FIXED_PDAS = pytest.mark.parametrize(
    "pda", [man_pda(6, 3), p2_pda(3, 2), MIXED, RENAMED],
    ids=["man-6-3", "p2-3-2", "mixed-stack", "renamed-labels"])
MIXED_MULTIPLICITY_PDAS = st.one_of(comp_pdas(), balanced_comp_pdas())


@FIXED_PDAS
def test_plan_matches_grid_scan(pda):
    assert_plans_match_reference(pda)


@settings(max_examples=30)
@given(MIXED_MULTIPLICITY_PDAS)
def test_plan_of_random_arrays_matches_grid_scan(pda):
    assert_plans_match_reference(pda)


def assert_singletons_sent_by_lowest_active_star(pda):
    """Over every tolerated Q and active set, every singleton in a
    transcript's ``coded`` has one sender, the lowest active node with a
    star in the symbol's row, read off the grid."""
    g_max = max(pda.s_t, default=1)
    for q in range(pda.k - pda.tau + 1, pda.k + 1):
        job = JobSpec(pda.f, q, 8, math.lcm(*range(1, min(q, g_max))), 8, seed=q)
        wl = Workload(job)
        for active in itertools.combinations(range(1, pda.k + 1), q):
            report = run_transcript(pda, job, active, workload=wl)
            assert report.reference_match
            for sym, senders, _, _ in report.coded:
                places = [(i, k) for k in active for i in range(pda.f)
                          if pda.grid[i][k - 1] == sym]
                if len(places) == 1:
                    (i, _), = places
                    assert senders == (next(k for k in active if pda.grid[i][k - 1] == STAR),)


@FIXED_PDAS
def test_singleton_sent_by_lowest_active_star(pda):
    assert_singletons_sent_by_lowest_active_star(pda)


@settings(max_examples=60, deadline=None)
@given(MIXED_MULTIPLICITY_PDAS)
def test_singletons_of_random_arrays_sent_by_lowest_active_star(pda):
    assert_singletons_sent_by_lowest_active_star(pda)


def assert_plan_filters_in_order(pda):
    """``Pda.occurrences`` lists the symbols ascending and each symbol's
    places by strictly ascending column, for the intake and for a directly
    built array alike, and a plan keeps the active places in that order."""
    assert list(pda.occurrences) == sorted(pda.occurrences)
    for places in pda.occurrences.values():
        assert all(j1 < j2 for (_, j1), (_, j2) in zip(places, places[1:]))
    direct = Pda(pda.grid).occurrences
    assert list(direct.items()) == list(pda.occurrences.items())
    for q in range(1, pda.k + 1):
        job = plan_job(pda, q)
        for active in itertools.combinations(range(1, pda.k + 1), q):
            try:
                plan = plan_active_set(pda, active, job)
            except EmptyStarRowError:
                continue
            kept = ((sym, tuple(place for place in places if place[1] in active))
                    for sym, places in pda.occurrences.items())
            assert list(plan.occurrences.items()) == [(sym, p) for sym, p in kept if p]


@FIXED_PDAS
def test_plan_is_an_in_order_filter(pda):
    assert_plan_filters_in_order(pda)


@settings(max_examples=30)
@given(MIXED_MULTIPLICITY_PDAS)
def test_plan_of_random_arrays_is_an_in_order_filter(pda):
    assert_plan_filters_in_order(pda)


@pytest.mark.parametrize("pda", [man_pda(6, 3), MIXED], ids=["man-6-3", "mixed-stack"])
def test_plan_shares_the_array_places(pda):
    # a plan makes no place tuple: every place is one of the array's, and a
    # symbol whose places all survive keeps the array's own tuple
    own = {id(place): place for places in pda.occurrences.values() for place in places}
    shared = 0
    for q in range(1, pda.k + 1):
        job = plan_job(pda, q)
        for active in itertools.combinations(range(1, pda.k + 1), q):
            try:
                plan = plan_active_set(pda, active, job)
            except EmptyStarRowError:
                continue
            for sym, places in plan.occurrences.items():
                assert all(own.get(id(place)) is place for place in places)
                if len(places) == len(pda.occurrences[sym]):
                    assert places is pda.occurrences[sym]
                    shared += 1
    assert shared


def test_plans_copy_no_grid(monkeypatch):
    # no transcript reads a plan's subarray, so planning never copies one;
    # it is computed when read
    def refuse(*args):
        raise AssertionError("column_subarray called")

    monkeypatch.setattr(engine, "column_subarray", refuse)
    for q, job in pinned_jobs(MIXED, (4, 5)):
        report = measure_loads(MIXED, job, q)
        assert report.mode == "exhaustive"
        assert report.match and report.all_reference_match
    monkeypatch.undo()
    for q, job in pinned_jobs(MIXED, (4, 5)):
        for active in itertools.combinations(range(1, MIXED.k + 1), q):
            plan = plan_active_set(MIXED, active, job)
            assert plan.subarray == column_subarray(MIXED, active)


def test_plan_holds_one_entry_per_symbol():
    pda = man_pda(16, 8)
    active = (1, 2, 4, 5, 7, 9, 10, 12, 13, 16)
    plan = plan_active_set(pda, active, JobSpec(pda.f, 10, 8, 2520, 8))
    tables = [(field.name, getattr(plan, field.name)) for field in dataclasses.fields(plan)]
    for name, table in tables:
        if isinstance(table, dict):
            assert len(table) <= pda.s, name
    assert [k for _, k in plan.occurrences[1]] == [k for k in range(1, 10) if k in active]


# greedy Comp-PDA on 8 star masks drawn by random.Random(5): singletons and
# symbols of multiplicity 2 and 3, tau = 2
RANDOM = greedy_comp_pda([20, 9, 24, 12, 26, 23, 31, 27], 5)


@pytest.mark.parametrize("pda", [RENAMED, MIXED, RANDOM],
                         ids=["renamed-labels", "mixed-stack", "random"])
def test_report_is_in_key_order(pda):
    # the report is built in plan order, never sorted: signals by (sender,
    # symbol), symbols ascending, and both bit tables agree with the signals
    job = JobSpec(pda.f, 60, 16, 60, 16, seed=1)
    wl = Workload(job)
    for q in range(1, pda.k + 1):
        for active in itertools.combinations(range(1, pda.k + 1), q):
            try:
                report = run_transcript(pda, job, active, workload=wl)
            except EmptyStarRowError:
                continue
            assert report.reference_match
            assert list(report.signals) == sorted(report.signals)
            assert list(report.per_symbol_bits) == sorted(report.per_symbol_bits)
            per_node, per_symbol = dict.fromkeys(active, 0), {}
            for (k, sym), signal in report.signals.items():
                per_node[k] += signal.nbits
                per_symbol[sym] = per_symbol.get(sym, 0) + signal.nbits
            assert report.per_node_bits == per_node
            assert report.per_symbol_bits == per_symbol
            assert report.total_bits == sum(per_node.values())
