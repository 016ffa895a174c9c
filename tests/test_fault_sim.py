import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import bin_matrices

from conftest import (
    enumerate_truncated,
    oracle_min_weight,
    oracle_residual_classes,
    oracle_verdicts,
)
from msdistill import fault_sim, outer_codes
from msdistill.fault_sim import (
    MAX_CHUNK_FAULTS,
    ProtocolInstance,
    SimReport,
    _fault_lists,
    _fault_positions,
    _Kernel,
    _nonzero_rows,
    _simulate_share,
    _tally,
    _verdicts,
    _wilson_interval,
    make_single_check_instance,
    min_undetected_weight,
    monte_carlo,
)
from msdistill.gf2 import BinMatrix
from msdistill.inner_codes import RM15, STEANE, CssCodeParams, WeaklySelfDualCode
from msdistill.outer_codes import OuterCode, build_biregular

IDENTITY_OUTER = OuterCode(BinMatrix.identity(4), 1, 1)
# data state 1 is in no check: a weight-1 witness against strict sensitivity
UNCHECKED_OUTER = OuterCode(BinMatrix(1, 2, (0b01,)), 1, 1)
# Steane's rows on qubits 63..69 of 70: rank 3, so k = 64 and d = 1
WIDE = WeaklySelfDualCode(
    CssCodeParams(70, 64, 1), BinMatrix(3, 70, tuple(row << 63 for row in STEANE.check.row_bits))
)


def steane_identity_instance() -> ProtocolInstance:
    return ProtocolInstance(STEANE, IDENTITY_OUTER, strict=False)


def on_shares(instance, eps, trials, seed, **kwargs) -> tuple[SimReport, int]:
    """A monte_carlo call with the share cap lifted, and the number of shares it ran.

    The cap allows one share per MAX_CHUNK_FAULTS expected faults, so a call small
    enough for a test runs on one share whatever ``workers`` says. MAX_CHUNK_FAULTS
    is lowered to the expected faults over ``workers`` (at least 1), which lets the
    cap admit ``workers`` shares once the call expects that many faults. The draw is
    the same for any chunk size, so the report must equal the serial one.
    """
    expected = eps * instance.fault_sites * trials
    shares = []
    real = fault_sim._simulate_share
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fault_sim, "MAX_CHUNK_FAULTS", max(1, int(expected // kwargs["workers"])))
        patch.setattr(fault_sim, "_simulate_share", lambda *a: shares.append(a) or real(*a))
        report = monte_carlo(instance, eps, trials, seed, **kwargs)
    return report, len(shares)


Verdict = namedtuple("Verdict", "rejected outcome corrupted")


def verdict(instance, check, mode="idealized", data=(), slots=()):
    """One check's verdict on one trial's faults; slots entries are (check, qubit, slot) triples.

    The faults go to the check verdict as a sorted site list; a rejected check
    reads (True, 0, False).
    """
    n_q = instance.inner.params.n_q
    site = sorted([*data, *(instance.num_data + 2 * (j * n_q + q) + t for j, q, t in slots)])
    site = np.array(site, dtype=np.int64)
    kernel = _Kernel.build(instance, mode)
    rejected, flipped, corrupt = _verdicts(kernel, np.zeros_like(site), site)
    if check in rejected:
        return Verdict(True, 0, False)
    return Verdict(False, int(check in flipped), bool(check in corrupt))


class TestCheckVerdict:
    def test_no_faults(self):
        inst = steane_identity_instance()
        v = verdict(inst, 0)
        assert not v.rejected and v.outcome == 0 and not v.corrupted

    @pytest.mark.parametrize("mode", ["idealized", "exact"])
    def test_single_slot_fault_rejects(self, mode):
        inst = steane_identity_instance()
        assert verdict(inst, 0, mode, slots=[(0, 3, 0)]).rejected

    @pytest.mark.parametrize("mode", ["idealized", "exact"])
    def test_double_slot_flips_outcome(self, mode):
        inst = steane_identity_instance()
        v = verdict(inst, 0, mode, slots=[(0, 3, 0), (0, 3, 1)])
        assert not v.rejected and v.outcome == 1

    def test_data_flip_flips_outcome(self):
        inst = steane_identity_instance()
        assert verdict(inst, 2, data=[2]).outcome == 1
        # a check not covering the flipped state is unaffected
        assert verdict(inst, 1, data=[2]).outcome == 0

    def test_heavy_residual_marks_corruption(self):
        inst = steane_identity_instance()
        slots = [(0, 0, 0), (0, 1, 0), (0, 2, 0)]
        v = verdict(inst, 0, slots=slots)
        assert not v.rejected and v.corrupted
        # positions {0,1,2} form a zero-syndrome logical for this matrix
        exact = verdict(inst, 0, "exact", slots=slots)
        assert not exact.rejected and exact.corrupted

    def test_stabilizer_residual_not_corrupt_in_exact_mode(self):
        inst = steane_identity_instance()
        row = STEANE.check.row_bits[0]
        slots = [(0, q, 0) for q in range(7) if (row >> q) & 1]
        assert verdict(inst, 0, "exact", slots=slots).corrupted is False
        assert verdict(inst, 0, "idealized", slots=slots).corrupted is True

    def test_modes_agree_on_verdict_up_to_weight_two(self):
        inst = ProtocolInstance(
            STEANE, OuterCode(BinMatrix.from_rows([[1, 1]]), 2, 1), strict=False
        )
        sites = [("data", i) for i in range(2)] + [
            ("slot", 0, q, t) for q in range(7) for t in (0, 1)
        ]
        for weight in (0, 1, 2):
            for chosen in combinations(sites, weight):
                data = [s[1] for s in chosen if s[0] == "data"]
                slots = [s[1:] for s in chosen if s[0] == "slot"]
                ideal = verdict(inst, 0, "idealized", data, slots)
                exact = verdict(inst, 0, "exact", data, slots)
                assert ideal.rejected == exact.rejected
                if not ideal.rejected:
                    assert ideal.outcome == exact.outcome


class TestExactResiduals:
    """Exact mode tells detected, stabilizer and logical residuals apart."""

    @pytest.mark.parametrize("code", [STEANE, RM15], ids=["steane", "rm15"])
    def test_every_residual_matches_the_oracle(self, code):
        # one trial per residual: slot 0 of each of its qubits on the one check
        inst = make_single_check_instance(code)
        n_q = code.params.n_q
        residuals = np.arange(1 << n_q)
        faults = np.zeros((len(residuals), inst.fault_sites), dtype=bool)
        faults[:, inst.num_data :: 2] = (residuals[:, None] >> np.arange(n_q)) & 1
        reject, outcome, corrupt = _verdicts(_Kernel.build(inst, "exact"), *np.nonzero(faults))
        classes = oracle_residual_classes(code.check)
        assert set(classes) == {"detected", "stabilizer", "logical"}
        # one check: a (trial, check) key is the trial, which is the residual
        assert np.isin(residuals, reject).tolist() == [c == "detected" for c in classes]
        assert np.isin(residuals, corrupt).tolist() == [c == "logical" for c in classes]
        assert not outcome.any()  # single-slot faults never flip the outcome

    def test_inner_code_wider_than_a_machine_word(self):
        inst = ProtocolInstance(WIDE, IDENTITY_OUTER, strict=False)
        logical = [(0, 63 + q, 0) for q in (0, 1, 2)]
        stabilizer = [(0, 63 + q, 0) for q in range(7) if (STEANE.check.row_bits[0] >> q) & 1]
        cases = [
            (logical, (False, True)),
            (stabilizer, (False, False)),
            ([(0, 66, 1)], (True, False)),
            ([(0, 0, 0)], (False, True)),  # qubit 0 lies outside every check: a logical
        ]
        for slots, expected in cases:
            v = verdict(inst, 0, "exact", slots=slots)
            assert (v.rejected, v.corrupted) == expected

    def test_one_trial_across_several_checks(self):
        # WIDE's K has 67 rows: [H; K] takes three words, and a logical's odd parities span K's two
        inst = ProtocolInstance(WIDE, IDENTITY_OUTER, strict=False)
        n_q = WIDE.params.n_q

        def slot(check, qubit, t=0):
            return inst.num_data + 2 * (check * n_q + qubit) + t

        stabilizer = [63 + q for q in range(7) if (STEANE.check.row_bits[0] >> q) & 1]
        faults = sorted(
            [(0, slot(0, 63 + q)) for q in (0, 1, 2)]  # check 0: a logical
            + [(0, slot(1, q)) for q in stabilizer]  # check 1: a stabilizer
            + [(0, slot(2, 66, 1)), (0, slot(3, 0))]  # check 2: detected; check 3: a logical
            + [(1, 2), (1, slot(1, 5)), (1, slot(1, 5, 1)), (1, slot(1, 63))]
        )
        trial, site = np.array(faults).T
        found = _verdicts(_Kernel.build(inst, "exact"), trial, site)
        # trial 1: check 2 flips on its data fault; check 1 flips on its double and rejects
        assert [keys.tolist() for keys in found] == [[2, 5], [5, 6], [0, 3]]
        as_pairs = tuple({divmod(int(k), inst.num_checks) for k in keys} for keys in found)
        assert as_pairs == oracle_verdicts(inst, "exact", faults)


@st.composite
def fault_lists(draw):
    """A random instance with a sorted (trial, site) fault list.

    Besides scattered faults, some come as doubles and some as whole residuals
    (slot 0 of a random set of one check's qubits), so that stabilizer and
    logical residuals occur too.
    """
    code = draw(st.sampled_from([STEANE, RM15, WIDE]))
    a_n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    rows = tuple(draw(st.integers(0, (1 << a_n) - 1)) for _ in range(m))
    inst = ProtocolInstance(code, OuterCode(BinMatrix(m, a_n, rows), 0, 0), strict=False)
    trials, n_q = st.integers(0, 3), code.params.n_q
    faults = draw(st.sets(st.tuples(trials, st.integers(0, inst.fault_sites - 1)), max_size=40))
    doubles = st.tuples(trials, st.integers(0, m - 1), st.integers(0, n_q - 1))
    for trial, j, q in draw(st.sets(doubles, max_size=6)):
        first = a_n + 2 * (j * n_q + q)
        faults |= {(trial, first), (trial, first + 1)}
    residuals = st.tuples(trials, st.integers(0, m - 1), st.integers(0, (1 << n_q) - 1))
    for trial, j, residual in draw(st.lists(residuals, max_size=3)):
        faults |= {(trial, a_n + 2 * (j * n_q + q)) for q in range(n_q) if residual >> q & 1}
    return inst, sorted(faults)


def padding_extremes() -> tuple[ProtocolInstance, list[tuple[int, int]]]:
    """Uneven column weights 0, 3, 1, 2 under faults on every data state.

    In trial 0 check 0 holds d - 1 = 2 singles, check 1 holds d = 3 singles
    (a logical) around a double, and check 2 holds a double; trial 1 faults
    the data state that every check holds and a single on check 2.
    """
    inst = ProtocolInstance(STEANE, OuterCode(BinMatrix(3, 4, (0b1110, 0b1010, 0b0010)), 0, 0),
                            strict=False)
    n_q = STEANE.params.n_q

    def slot(check, qubit, t=0):
        return inst.num_data + 2 * (check * n_q + qubit) + t

    faults = [(0, i) for i in range(4)] + [(0, slot(0, q)) for q in (0, 1)]
    faults += [(0, slot(1, q)) for q in (0, 3, 4)] + [(0, slot(1, 1)), (0, slot(1, 1, 1))]
    faults += [(0, slot(2, 5)), (0, slot(2, 5, 1)), (1, 1), (1, slot(2, 6))]
    return inst, sorted(faults)


def slot_site(inst: ProtocolInstance, check: int, qubit: int, t: int = 0) -> int:
    return inst.num_data + 2 * (check * inst.inner.params.n_q + qubit) + t


def one_slot_fault() -> tuple[ProtocolInstance, list[tuple[int, int]]]:
    inst = steane_identity_instance()
    return inst, [(1, slot_site(inst, 2, 4, 1))]


def doubles_only() -> tuple[ProtocolInstance, list[tuple[int, int]]]:
    """Doubles in two trials, two of them on one check (its outcome flips back)."""
    inst = steane_identity_instance()
    doubles = [(0, 0, 6), (0, 3, 0), (0, 3, 2), (2, 1, 5)]
    return inst, sorted((trial, slot_site(inst, j, q, t)) for trial, j, q in doubles for t in (0, 1))


def data_faults_only() -> tuple[ProtocolInstance, list[tuple[int, int]]]:
    inst = ProtocolInstance(STEANE, OuterCode(BinMatrix(3, 4, (0b1110, 0b1010, 0b0010)), 0, 0),
                            strict=False)
    return inst, [(0, 0), (0, 1), (0, 3), (2, 1), (3, 2)]


def wide_singles_across_trials() -> tuple[ProtocolInstance, list[tuple[int, int]]]:
    """Check 3 holds singles in trials 0 and 1, adjacent in the list: a logical, then a detection.

    WIDE's masks take three words, and the two trials' runs must not merge.
    """
    inst = ProtocolInstance(WIDE, IDENTITY_OUTER, strict=False)
    logical = [(0, slot_site(inst, 3, 63 + q)) for q in (0, 1, 2)]
    return inst, logical + [(1, slot_site(inst, 3, 66)), (1, slot_site(inst, 3, 69, 1))]


@settings(max_examples=300, deadline=None)
@given(case=fault_lists(), mode=st.sampled_from(["idealized", "exact"]))
@example(case=padding_extremes(), mode="idealized")
@example(case=padding_extremes(), mode="exact")
@example(case=(steane_identity_instance(), []), mode="idealized")
@example(case=(steane_identity_instance(), []), mode="exact")
@example(case=one_slot_fault(), mode="idealized")
@example(case=one_slot_fault(), mode="exact")
@example(case=doubles_only(), mode="idealized")
@example(case=doubles_only(), mode="exact")
@example(case=data_faults_only(), mode="idealized")
@example(case=data_faults_only(), mode="exact")
@example(case=wide_singles_across_trials(), mode="idealized")
@example(case=wide_singles_across_trials(), mode="exact")
def test_verdicts_match_the_per_check_oracle(case, mode):
    inst, faults = case
    trial = np.array([t for t, _ in faults], dtype=np.int64)
    site = np.array([s for _, s in faults], dtype=np.int64)
    found = _verdicts(_Kernel.build(inst, mode), trial, site)
    for keys in found:
        assert (np.diff(keys) > 0).all()  # sorted and unique
    as_pairs = tuple({divmod(int(k), inst.num_checks) for k in keys} for keys in found)
    assert as_pairs == oracle_verdicts(inst, mode, faults)


@st.composite
def trial_site_lists(draw):
    """An instance and, per trial, its sorted faulty sites: many trials hold one fault."""
    inst = draw(st.sampled_from([
        steane_identity_instance(),
        make_single_check_instance(RM15),
        ProtocolInstance(STEANE, UNCHECKED_OUTER, strict=False),
        ProtocolInstance(RM15, UNCHECKED_OUTER, strict=False),
    ]))
    sites = st.integers(0, inst.fault_sites - 1)
    one = sites.map(lambda s: [s])
    several = st.sets(sites, max_size=4).map(sorted)
    return inst, draw(st.lists(one | several, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None)
@given(case=trial_site_lists(), mode=st.sampled_from(["idealized", "exact"]),
       corruption=st.sampled_from(["erroneous", "reject"]))
def test_site_table_matches_the_full_verdict(case, mode, corruption):
    inst, per_trial = case
    kernel, sites = _Kernel.build(inst, mode), inst.fault_sites
    table = fault_sim._site_table(kernel, sites, corruption)
    trial = np.array([t for t, s in enumerate(per_trial) for _ in s], dtype=np.int64)
    site = np.array([x for s in per_trial for x in s], dtype=np.int64)
    rows = len(per_trial)
    accept, erroneous, data = fault_sim._outcomes(kernel, trial, site, rows, corruption)
    # per trial: a one-fault trial's table column is what the full verdict gives it
    for t, faults in enumerate(per_trial):
        if len(faults) == 1:
            expected = [int(accept[t]), int(erroneous[t]), int(data[t] * accept[t])]
            assert table[:, faults[0]].tolist() == expected
    # per share: fault-free trials, plus the table's lone trials, plus the packed lists' tallies
    lone = np.zeros(sites, dtype=np.int64)
    chunks = [trial * sites + site] if len(trial) else []
    counts = sum(np.array(_tally(kernel, t, s, r, corruption))
                 for t, s, r in _fault_lists(iter(chunks), sites, len(trial), lone))
    counts = counts + table @ lone
    counts[0] += sum(not faults for faults in per_trial)
    assert counts.tolist() == list(_tally(kernel, trial, site, rows, corruption))


@pytest.mark.parametrize("mode", ["idealized", "exact"])
@pytest.mark.parametrize("corruption", ["erroneous", "reject"])
@pytest.mark.parametrize("inst", [
    steane_identity_instance(),
    make_single_check_instance(RM15),
    ProtocolInstance(STEANE, UNCHECKED_OUTER, strict=False),
], ids=["steane-identity", "rm15-single-check", "steane-unchecked"])
def test_share_equals_one_full_tally_per_block(inst, mode, corruption):
    # the reference decides every fault of a block, lone or not, in one full verdict
    kernel, sites, seed, eps = _Kernel.build(inst, mode), inst.fault_sites, 6, 0.04
    blocks = [(0, 900), (3, 1), (5, 2500)]
    expected = np.zeros(3, dtype=np.int64)
    for index, size in blocks:
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | index))
        chunks = [np.empty(0, np.int64), *_fault_positions(rng, eps, size, sites)]
        positions = np.concatenate(chunks)
        expected += _tally(kernel, positions // sites, positions % sites, size, corruption)
    table = fault_sim._site_table(kernel, sites, corruption)
    share = _simulate_share(kernel, table, eps, seed, blocks, corruption)
    assert list(share) == expected.tolist()


@pytest.mark.parametrize("shape", [(5, 3), (5, 1), (0, 3), (5, 0)])
def test_nonzero_rows_matches_any(shape):
    words = np.zeros(shape, dtype=np.uint64)
    for i, j in [(1, 0), (2, 1), (3, 2), (4, 2)]:
        if i < shape[0] and j < shape[1]:
            words[i, j] = np.uint64(1 << (21 * j + i))
    assert _nonzero_rows(words).tolist() == words.any(axis=1).tolist()


class TestSiteLayout:
    """Every slot site reaches its own check, and only that one."""

    @staticmethod
    def instance():
        outer = OuterCode(BinMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]), 0, 0)
        return ProtocolInstance(STEANE, outer, strict=False)

    @pytest.mark.parametrize("mode", ["idealized", "exact"])
    def test_single_slot_fault_rejects_only_its_check(self, mode):
        inst = self.instance()
        for j in range(3):
            for q in range(7):
                for t in (0, 1):
                    verdicts = [verdict(inst, k, mode, slots=[(j, q, t)]) for k in range(3)]
                    assert [v.rejected for v in verdicts] == [k == j for k in range(3)]

    @pytest.mark.parametrize("mode", ["idealized", "exact"])
    def test_double_flips_only_its_check(self, mode):
        inst = self.instance()
        for j in range(3):
            for q in range(7):
                slots = [(j, q, 0), (j, q, 1)]
                verdicts = [verdict(inst, k, mode, slots=slots) for k in range(3)]
                assert not any(v.rejected or v.corrupted for v in verdicts)
                assert [v.outcome for v in verdicts] == [int(k == j) for k in range(3)]


class TestProtocolInstance:
    def test_strict_requires_matching_degree(self):
        with pytest.raises(ValueError):
            ProtocolInstance(STEANE, OuterCode(BinMatrix.from_rows([[1, 1]]), 2, 1))

    def test_strict_refuses_an_insensitive_outer(self):
        # data state 1 is in no check: weight 1 violates none of the one required check
        with pytest.raises(ValueError, match="outer schedule fails sensitivity") as exc_info:
            ProtocolInstance(STEANE, UNCHECKED_OUTER)
        witness = outer_codes.SensitivityWitness(pattern_bits=0b10, weight=1, violated_checks=0)
        assert str(exc_info.value) == f"outer schedule fails sensitivity: {witness}"
        assert ProtocolInstance(STEANE, UNCHECKED_OUTER, strict=False).num_data == 2

    def test_strict_accepts_sensitive_outer(self):
        outer = build_biregular(6, 1, 1, 4, seed=0)
        inst = ProtocolInstance(STEANE, outer)
        assert inst.fault_sites == 6 + 2 * 7 * 6

    def test_strict_check_reuses_the_built_girth(self, monkeypatch):
        bfs = []
        real = outer_codes.girth

        def counted(code):
            bfs.append(isinstance(code, BinMatrix))
            return real(code)

        monkeypatch.setattr(outer_codes, "girth", counted)
        outer = build_biregular(60, 3, 3, 6, 1)
        built = sum(bfs)
        # only k = 3 and d = 3 enter the strict check: degree 3, (2, 1)-sensitivity
        inner = WeaklySelfDualCode(CssCodeParams(7, 3, 3), STEANE.check)
        ProtocolInstance(inner, outer)
        assert built >= 1 and sum(bfs) == built

    def test_site_count(self):
        assert steane_identity_instance().fault_sites == 60


def philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


class TestFaultPositions:
    @pytest.mark.parametrize("eps", [1e-3, 0.2, 0.49])
    def test_weight_moments(self, eps):
        trials, sites = 100_000, 60
        chunks = list(_fault_positions(philox(11), eps, trials, sites))
        positions = np.concatenate(chunks)
        weight = np.bincount(positions // sites, minlength=trials)
        assert weight.size == trials
        # Binomial(sites, eps) per trial: mean S*eps, variance S*eps*(1-eps)
        var = sites * eps * (1 - eps)
        mu4 = var * (1 + 3 * (sites - 2) * eps * (1 - eps))
        assert abs(weight.mean() - sites * eps) <= 5 * math.sqrt(var / trials)
        assert abs(weight.var(ddof=1) - var) <= 5 * math.sqrt((mu4 - var**2) / trials)
        # every site is hit at the same rate
        per_site = np.bincount(positions % sites, minlength=sites)
        site_sd = math.sqrt(trials * eps * (1 - eps))
        assert np.abs(per_site - trials * eps).max() <= 5 * site_sd

    # at eps = 1e-9 the first gap overshoots the grid, which must not put it inside
    @pytest.mark.parametrize("eps, trials", [(0.0, 10_000), (1e-9, 1)])
    def test_fault_free_grid_draws_nothing(self, eps, trials):
        assert list(_fault_positions(philox(0), eps, trials, 60)) == []

    def test_fault_free_grid_probability(self):
        # a one-trial grid is fault-free with probability (1 - eps)^sites
        eps, sites, draws = 0.01, 60, 4000
        empty = sum(not list(_fault_positions(philox(key), eps, 1, sites))
                    for key in range(draws))
        p = (1 - eps) ** sites
        assert abs(empty / draws - p) <= 5 * math.sqrt(p * (1 - p) / draws)

    def test_chunks_keep_trials_whole(self):
        sites = 60
        chunks = list(_fault_positions(philox(5), 0.3, 20_000, sites))
        assert len(chunks) > 1
        for before, after in zip(chunks, chunks[1:]):
            assert before[-1] // sites < after[0] // sites

    def test_multi_chunk_draw_is_cut_at_grid_end(self):
        trials, sites, eps = 1 << 14, 60, 0.2
        cells = trials * sites
        assert eps * cells > 2 * MAX_CHUNK_FAULTS
        chunks = list(_fault_positions(philox(3), eps, trials, sites))
        positions = np.concatenate(chunks)
        assert len(chunks) > 2
        assert positions[0] >= 0 and positions[-1] < cells
        assert (np.diff(positions) > 0).all()
        # the chunked draw is one geometric-gap stream, cut at the grid's end
        gaps = philox(3).geometric(eps, 2 * cells // 5 + 10_000)
        reference = np.cumsum(gaps) - 1
        assert reference[-1] >= cells
        assert np.array_equal(positions, reference[reference < cells])

    def test_fault_lists_repack_the_chunks(self):
        sites = 60
        sizes = [12_000, 100, 100, 100, 12_000, 100, 12_000]
        chunks = [c for key, size in enumerate(sizes)
                  for c in _fault_positions(philox(key), 0.3, size, sites)]
        assert max(map(len, chunks)) > MAX_CHUNK_FAULTS  # a held-back trial pushed one past
        # copies: each yielded list is overwritten by the next
        lone = np.zeros(sites, dtype=np.int64)
        lists = [(t.copy(), s.copy(), rows)
                 for t, s, rows in _fault_lists(iter(chunks), sites, MAX_CHUNK_FAULTS, lone)]
        assert not lone.any()  # at eps = 0.3 no trial of 60 sites holds one fault alone
        oversized = {len(c) for c in chunks if len(c) > MAX_CHUNK_FAULTS}
        assert all(len(t) <= MAX_CHUNK_FAULTS or len(t) in oversized for t, _, _ in lists)
        assert len(lists) < len(chunks)
        site = np.concatenate([s for _, s, _ in lists])
        assert np.array_equal(site, np.concatenate(chunks) % sites)
        for trial, _, rows in lists:
            assert trial[0] == 0 and trial[-1] == rows - 1
            assert set(np.diff(trial).tolist()) <= {0, 1}
        # each chunk's trials are new rows, and a chunk's trial boundaries are kept
        boundaries = sum(len(np.unique(c // sites)) for c in chunks)
        assert sum(rows for _, _, rows in lists) == boundaries

    def test_fault_lists_flush_at_the_limit(self):
        # the chunks of 40 small draws, packed under a limit that expects four draws' faults
        sites, eps, size = 60, 0.05, 50
        limit = fault_sim._chunk_faults(eps * sites * size * 4)
        chunks = [c for key in range(40) for c in _fault_positions(philox(key), eps, size, sites)]
        lone = np.zeros(sites, dtype=np.int64)
        lists = [(t.copy(), s.copy(), rows)
                 for t, s, rows in _fault_lists(iter(chunks), sites, limit, lone)]
        assert all(len(t) <= limit for t, _, _ in lists)
        assert 1 < len(lists) < len(chunks)
        # the trials with one fault are counted by site, the others packed in order
        positions = np.concatenate(chunks)
        weight = np.concatenate([np.bincount(c // sites)[c // sites] for c in chunks])
        assert lone.any()
        assert np.array_equal(lone, np.bincount(positions[weight == 1] % sites, minlength=sites))
        site = np.concatenate([s for _, s, _ in lists])
        assert np.array_equal(site, positions[weight > 1] % sites)


@given(case=st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
@example(case=(10, 10))  # the float high end was 0.9999999999999999
@example(case=(0, 7))  # the float low end was above 0
def test_wilson_interval_contains_its_point(case):
    p, lo, hi = _wilson_interval(*case)
    assert 0.0 <= lo <= p <= hi <= 1.0


class TestMonteCarlo:
    def test_zero_eps(self):
        report = monte_carlo(steane_identity_instance(), 0.0, 10_000, seed=1)
        assert report.accepted == report.trials
        assert report.erroneous_accepted == 0
        assert report.accept_prob[0] == 1.0
        assert report.eps_out_total[0] == 0.0

    def test_determinism(self):
        inst = steane_identity_instance()
        a = monte_carlo(inst, 5e-3, 200_000, seed=42)
        b = monte_carlo(inst, 5e-3, 200_000, seed=42)
        assert a == b

    def test_worker_count_invariance(self):
        inst = steane_identity_instance()
        serial = monte_carlo(inst, 5e-3, 300_000, seed=9, workers=1, block_size=1 << 14)
        threaded = monte_carlo(inst, 5e-3, 300_000, seed=9, workers=4, block_size=1 << 14)
        assert serial == threaded

    def test_fault_free_blocks_accept_every_trial(self):
        # one-trial blocks at eps * sites = 6e-5: almost every block is fault-free
        report = monte_carlo(steane_identity_instance(), 1e-6, 2000, seed=4, block_size=1)
        assert report.accepted >= report.trials - 5

    def test_exact_mode_worker_count_invariance(self):
        inst = steane_identity_instance()
        # 50_000 = 6 * 8192 + 848: the last block is ragged
        serial = monte_carlo(inst, 8e-3, 50_000, seed=21, mode="exact", workers=1,
                             block_size=1 << 13)
        threaded, shares = on_shares(inst, 8e-3, 50_000, 21, mode="exact", workers=4,
                                     block_size=1 << 13)
        assert shares == 4
        assert serial == threaded
        assert serial.erroneous_accepted > 0

    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.floats(0.0, 0.49),
        trials=st.integers(1, 3000),
        block_size=st.integers(1, 300),
        mode=st.sampled_from(["idealized", "exact"]),
        corruption=st.sampled_from(["erroneous", "reject"]),
        seed=st.integers(0, 2**32),
    )
    def test_counts_bounded_and_worker_invariant(
        self, eps, trials, block_size, mode, corruption, seed
    ):
        inst = steane_identity_instance()
        kwargs = dict(mode=mode, corruption=corruption, block_size=block_size)
        serial = monte_carlo(inst, eps, trials, seed, workers=1, **kwargs)
        threaded, shares = on_shares(inst, eps, trials, seed, workers=3, **kwargs)
        if eps * inst.fault_sites * trials >= 3:
            assert shares == min(3, -(-trials // block_size))
        assert 0 <= serial.erroneous_accepted <= serial.accepted <= serial.trials == trials
        assert serial == threaded

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("mode, eps, block_size, trials, counts", [
        ("idealized", 1e-3, 1, 2000, (1882, 0, 0)),
        ("exact", 1e-3, 1, 2000, (1882, 0, 0)),
        ("idealized", 1e-3, 7, 5000, (4712, 0, 0)),
        ("exact", 1e-3, 7, 5000, (4712, 0, 0)),
        ("idealized", 1e-3, 1 << 16, (1 << 17) + 4321, (127433, 0, 0)),
        ("exact", 1e-3, 1 << 16, (1 << 17) + 4321, (127433, 0, 0)),
        ("idealized", 0.3, 1, 2000, (35, 35, 24)),
        ("exact", 0.3, 1, 2000, (0, 0, 0)),
        ("idealized", 0.3, 7, 5000, (84, 84, 60)),
        ("exact", 0.3, 7, 5000, (0, 0, 0)),
        ("idealized", 0.3, 1 << 16, (1 << 17) + 4321, (2307, 2307, 1668)),
        ("exact", 0.3, 1 << 16, (1 << 17) + 4321, (4, 4, 4)),
    ])
    def test_seed_pins_counts_across_blocks_and_workers(
        self, mode, eps, block_size, trials, counts, workers
    ):
        # counts recorded when each block was decided on its own, chunk by chunk:
        # batching the chunks of several blocks into one fault list must not move them
        inst, kwargs = steane_identity_instance(), dict(mode=mode, block_size=block_size)
        if workers == 1:
            report = monte_carlo(inst, eps, trials, 11, workers=1, **kwargs)
        else:
            report, shares = on_shares(inst, eps, trials, 11, workers=workers, **kwargs)
            assert shares == min(workers, -(-trials // block_size))
        assert report == SimReport(trials, *counts, eps, 11, mode, "erroneous")

    def test_one_tally_per_full_fault_list(self, monkeypatch):
        # 3000 one-trial blocks: their chunks share fault lists instead of one verdict each
        calls, faults = [], []

        def counted(kernel, trial, site, rows, corruption):
            calls.append(rows)
            faults.append(len(trial))
            return real(kernel, trial, site, rows, corruption)

        real = fault_sim._tally
        monkeypatch.setattr(fault_sim, "_tally", counted)
        inst = steane_identity_instance()
        report = monte_carlo(inst, 0.3, 3000, 5, block_size=1, workers=1)
        monkeypatch.undo()
        assert len(calls) <= math.ceil(sum(faults) / MAX_CHUNK_FAULTS) + 1
        assert sum(calls) <= report.trials
        assert on_shares(inst, 0.3, 3000, 5, block_size=1, workers=2) == (report, 2)

    def test_fault_list_buffer_fits_the_share(self, monkeypatch):
        # a share expecting few faults gets a buffer sized to them, not to MAX_CHUNK_FAULTS
        buffers = []

        def recorded(kernel, trial, site, rows, corruption):
            buffers.append(trial.base.shape)
            return real(kernel, trial, site, rows, corruption)

        real = fault_sim._tally
        monkeypatch.setattr(fault_sim, "_tally", recorded)
        inst = steane_identity_instance()
        eps, trials = 1e-3, 1 << 12
        report = monte_carlo(inst, eps, trials, 5, block_size=1 << 10, workers=1)
        monkeypatch.undo()
        sites = inst.fault_sites
        limit = fault_sim._chunk_faults(eps * sites * trials)
        assert limit < MAX_CHUNK_FAULTS
        assert buffers == [(2, limit + sites)]
        assert on_shares(inst, eps, trials, 5, block_size=1 << 10, workers=2) == (report, 2)

    def test_matches_truncated_enumeration(self):
        inst = steane_identity_instance()
        eps = 3e-3
        p_acc, p_err, tail = enumerate_truncated(inst, eps, weight_max=4)
        report = monte_carlo(inst, eps, 2_000_000, seed=17)
        oracle_low = p_err / (p_acc + tail)
        oracle_high = (p_err + tail) / p_acc
        _, ci_low, ci_high = report.eps_out_total
        assert ci_low <= oracle_high and oracle_low <= ci_high
        acc_point, acc_low, acc_high = report.accept_prob
        assert acc_low - tail <= p_acc <= acc_high + tail

    def test_multi_chunk_blocks_match_truncated_enumeration(self):
        inst = make_single_check_instance(STEANE)
        eps, block_size = 0.05, 1 << 17
        assert eps * block_size * inst.fault_sites > MAX_CHUNK_FAULTS
        p_acc, p_err, tail = enumerate_truncated(inst, eps, weight_max=6)
        report = monte_carlo(inst, eps, 1 << 18, seed=23, block_size=block_size)
        _, ci_low, ci_high = report.eps_out_total
        assert ci_low <= (p_err + tail) / p_acc and p_err / (p_acc + tail) <= ci_high
        _, acc_low, acc_high = report.accept_prob
        assert acc_low - tail <= p_acc <= acc_high + tail

    def test_accept_prob_union_bound(self):
        inst = steane_identity_instance()
        eps = 1e-3
        report = monte_carlo(inst, eps, 500_000, seed=3)
        lower = 1.0 - inst.fault_sites * eps
        assert report.accept_prob[2] >= lower

    def test_report_invariants_and_json(self):
        report = monte_carlo(steane_identity_instance(), 7e-3, 100_000, seed=5)
        assert report.erroneous_accepted <= report.accepted <= report.trials
        doc = report.to_json_dict()
        assert doc["trials"] == 100_000
        assert doc["seed"] == 5
        assert doc["mode"] == "idealized"
        assert 0.0 <= doc["eps_out_ci"][0] <= doc["eps_out_total"] <= doc["eps_out_ci"][1]

    def test_corruption_reject_mode_is_more_selective(self):
        inst = steane_identity_instance()
        base = monte_carlo(inst, 1e-2, 300_000, seed=8)
        strict = monte_carlo(inst, 1e-2, 300_000, seed=8, corruption="reject")
        assert strict.accepted <= base.accepted
        assert strict.erroneous_accepted <= base.erroneous_accepted

    def test_exact_mode_runs(self):
        report = monte_carlo(steane_identity_instance(), 5e-3, 100_000, seed=2, mode="exact")
        assert report.accepted > 0

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="quantum"):
            monte_carlo(steane_identity_instance(), 0.1, 100, seed=0, mode="quantum")

    def test_parameter_guards(self):
        inst = steane_identity_instance()
        with pytest.raises(ValueError):
            monte_carlo(inst, 0.6, 100, seed=0)
        with pytest.raises(ValueError):
            monte_carlo(inst, 0.1, 0, seed=0)
        with pytest.raises(ValueError):
            monte_carlo(inst, 0.1, 100, seed=0, corruption="maybe")
        with pytest.raises(ValueError):
            monte_carlo(inst, 0.1, 100, seed=0, block_size=0)


class TestShareCap:
    """A call takes at most one share per MAX_CHUNK_FAULTS expected faults."""

    def test_small_call_starts_no_thread_and_builds_no_pool(self, monkeypatch):
        inst = steane_identity_instance()
        eps, trials = 1e-2, 1 << 16
        assert eps * inst.fault_sites * trials < MAX_CHUNK_FAULTS
        started = []
        real_start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(fault_sim, "_pool", None)
        monkeypatch.setattr(threading.Thread, "start", counted)
        report = monte_carlo(inst, eps, trials, 3, workers=4, block_size=1 << 12)
        monkeypatch.setattr(threading.Thread, "start", real_start)
        assert started == []
        assert fault_sim._pool is None
        assert report == monte_carlo(inst, eps, trials, 3, workers=1, block_size=1 << 12)

    @pytest.mark.parametrize("eps, shares", [(1e-3, 1), (5e-3, 2), (2e-2, 4)])
    def test_shares_follow_the_expected_faults(self, monkeypatch, eps, shares):
        # 60 sites x 2^18 trials: 15.7k, 78.6k and 315k expected faults; workers caps the last
        inst = steane_identity_instance()
        calls = []
        real = fault_sim._simulate_share
        monkeypatch.setattr(fault_sim, "_simulate_share", lambda *a: calls.append(a) or real(*a))
        monte_carlo(inst, eps, 1 << 18, 3, workers=4, block_size=1 << 14)
        assert len(calls) == shares == min(4, math.ceil(eps * 60 * (1 << 18) / MAX_CHUNK_FAULTS))


class TestSharedPool:
    """Threaded calls share one pool per process; a forked child builds its own."""

    # 2e-2 x 60 sites x 2^18 trials: 315k expected faults, room for 4 shares
    ARGS = (2e-2, 1 << 18, 3)
    KWARGS = dict(workers=2, block_size=1 << 14)

    @staticmethod
    def pool_ran_the_shares(monkeypatch, *args, **kwargs):
        """Runs one monte_carlo call; asserts that pool threads ran all its shares."""
        eps, trials, _ = args[1:4]
        assert eps * args[0].fault_sites * trials >= 3 * MAX_CHUNK_FAULTS
        names = []
        real = fault_sim._simulate_share

        def recorded(*share_args):
            names.append(threading.current_thread().name)
            return real(*share_args)

        monkeypatch.setattr(fault_sim, "_simulate_share", recorded)
        try:
            report = monte_carlo(*args, **kwargs)
        finally:
            monkeypatch.setattr(fault_sim, "_simulate_share", real)
        assert len(names) == kwargs["workers"]
        assert all(name.startswith("monte_carlo") for name in names)
        return report

    def test_later_calls_start_no_thread(self, monkeypatch):
        inst = steane_identity_instance()
        first = self.pool_ran_the_shares(monkeypatch, inst, *self.ARGS, **self.KWARGS)
        started = []
        real_start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        reports = [monte_carlo(inst, *self.ARGS, **self.KWARGS) for _ in range(5)]
        monkeypatch.undo()
        assert started == []
        assert reports == [first] * 5

    def test_concurrent_callers_get_the_serial_report(self, monkeypatch):
        inst = steane_identity_instance()
        self.pool_ran_the_shares(monkeypatch, inst, *self.ARGS, workers=3, block_size=1 << 14)
        expected = monte_carlo(inst, *self.ARGS, workers=1, block_size=1 << 14)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(monte_carlo, inst, *self.ARGS, workers=3,
                                          block_size=1 << 14) for _ in range(8)]
                reports = [future.result(timeout=30) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [expected] * 8

    def test_forked_child_gets_the_parents_report(self, monkeypatch):
        inst = steane_identity_instance()
        # the parent's pool exists now
        expected = self.pool_ran_the_shares(monkeypatch, inst, *self.ARGS, **self.KWARGS)
        ctx = multiprocessing.get_context("fork")
        reader, writer = ctx.Pipe(duplex=False)
        with reader, writer:
            child = ctx.Process(
                target=lambda: writer.send(monte_carlo(inst, *self.ARGS, **self.KWARGS))
            )
            child.start()
            child.join(10)
            if child.is_alive():  # a child that waits on the parent's threads never returns
                child.terminate()
                child.join()
                pytest.fail("the forked child's monte_carlo call hung")
            assert child.exitcode == 0
            assert reader.poll(0) and reader.recv() == expected


class TestPegSchedule:
    """Exact mode on the a_n = 60 PEG schedule that the schedule_verify benchmark simulates."""

    @staticmethod
    def instance():
        return ProtocolInstance(STEANE, build_biregular(60, 3, 3, 6, 1), strict=False)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("eps, accepted", [(1e-3, 13241), (3e-3, 2143), (6e-3, 159)])
    def test_seed_pins_the_report(self, eps, accepted, workers):
        # counts recorded before the verdict worked from fault lists (6e-3: before it
        # became a per-check XOR): a given seed's draw, and so its counts, must not
        # change with the verdict, the convention or the worker count
        for corruption in ("erroneous", "reject"):
            kwargs = dict(mode="exact", corruption=corruption, workers=workers,
                          block_size=1 << 14)
            if workers == 1:
                report = monte_carlo(self.instance(), eps, 1 << 15, 1, **kwargs)
            else:
                report, shares = on_shares(self.instance(), eps, 1 << 15, 1, **kwargs)
                assert shares == 2
            assert report == SimReport(1 << 15, accepted, 0, 0, eps, 1, "exact", corruption)

    def test_block_verdicts_match_the_oracle(self):
        inst = self.instance()
        rng = np.random.Generator(np.random.Philox(key=1))
        positions = np.concatenate(list(_fault_positions(rng, 2e-2, 1 << 10, inst.fault_sites)))
        trial, site = np.divmod(positions, inst.fault_sites)
        found = _verdicts(_Kernel.build(inst, "exact"), trial, site)
        # key counts recorded before the verdict became a per-check XOR
        assert [len(keys) for keys in found] == [14866, 3595, 25]
        as_pairs = tuple({divmod(int(k), inst.num_checks) for k in keys} for keys in found)
        assert as_pairs == oracle_verdicts(inst, "exact", list(zip(trial.tolist(), site.tolist())))

    @staticmethod
    def share_peak(eps, blocks):
        instance = TestPegSchedule.instance()
        kernel = _Kernel.build(instance, "exact")
        table = fault_sim._site_table(kernel, instance.fault_sites, "erroneous")
        tracemalloc.start()
        try:
            _simulate_share(kernel, table, eps, 7, blocks, "erroneous")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_block_memory_stays_small(self):
        # a trial x site grid of this block took about 43 MB at its peak
        assert self.share_peak(1e-3, [(0, 1 << 14)]) < 16e6

    def test_worker_share_memory_stays_small(self):
        # one worker's share of 64 blocks: their chunks fill shared fault lists
        assert self.share_peak(1e-2, [(i, 1 << 10) for i in range(0, 128, 2)]) < 16e6


class TestSingleCheck:
    def test_zero_eps(self):
        report = monte_carlo(make_single_check_instance(STEANE), 0.0, 10_000, seed=0)
        assert report.eps_out_total[0] == 0.0

    def test_quadratic_coefficient_matches_enumeration(self):
        inst = make_single_check_instance(STEANE)
        eps = 1e-3
        p_acc, p_err, tail = enumerate_truncated(inst, eps, weight_max=4)
        oracle = p_err / p_acc
        # leading behavior ~ n_q * eps^2 within 20%
        assert oracle / (7 * eps**2) == pytest.approx(1.0, abs=0.2)
        report = monte_carlo(inst, eps, 3_000_000, seed=4)
        _, ci_low, ci_high = report.eps_out_total
        assert ci_low - tail <= oracle <= ci_high + tail


class TestMinUndetectedWeight:
    def test_steane_identity(self):
        assert min_undetected_weight(steane_identity_instance(), 6) == 3

    def test_unchecked_state_gives_one(self):
        outer = OuterCode(BinMatrix.from_rows([[1, 1, 0]]), 2, 1)
        inst = ProtocolInstance(STEANE, outer, strict=False)
        assert min_undetected_weight(inst, 6) == 1

    def test_sentinel_when_nothing_found(self):
        inst = steane_identity_instance()
        assert min_undetected_weight(inst, 2) is None

    def test_small_instance_is_answered_past_weight_six(self):
        outer = OuterCode(BinMatrix.identity(8), 1, 1)
        inst = ProtocolInstance(STEANE, outer, strict=False)
        assert min_undetected_weight(inst, 7) == oracle_min_weight(inst, 7)

    def test_guard_refuses_before_enumerating(self):
        # weight 3 of 600 data states takes 36,000,500 patterns, past the 10^7 guard
        inst = ProtocolInstance(STEANE, build_biregular(600, 3, 3, 6, 1), strict=False)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="^36000500 supports up to weight 3 exceed"):
            min_undetected_weight(inst, 6)
        assert time.perf_counter() - start < 1.0

    def test_weight_that_cannot_win_is_not_guarded(self):
        # a single bit costs 1 + 2 = 3, so weight 3 (10,667,000 supports up to weight 3,
        # past the 10^7 guard) is never started: the guard runs per started weight
        inst = ProtocolInstance(STEANE, OuterCode(BinMatrix.identity(400), 1, 1), strict=False)
        assert min_undetected_weight(inst, 6) == 3

    def test_d5_instance_matches_arithmetic_oracle(self):
        # distance-5 synthetic inner; idealized mode never reads the matrix
        inner = WeaklySelfDualCode(
            CssCodeParams(17, 1, 5), BinMatrix(8, 17, (0,) * 8)
        )
        outer = build_biregular(6, 2, 2, 4, seed=3)
        inst = ProtocolInstance(inner, outer, strict=False)
        assert min_undetected_weight(inst, 6) == oracle_min_weight(inst, 6)

    @settings(max_examples=150, deadline=None)
    @given(
        outer=bin_matrices(max_rows=6, max_cols=10),
        d=st.sampled_from([3, 5]),
        weight_max=st.integers(1, 8),
    )
    def test_randomized_oracle_equivalence(self, outer, d, weight_max):
        inner = WeaklySelfDualCode(CssCodeParams(7, 1, d), STEANE.check)
        inst = ProtocolInstance(inner, OuterCode(outer, 0, 0), strict=False)
        assert min_undetected_weight(inst, weight_max) == oracle_min_weight(inst, weight_max)

    @settings(max_examples=200, deadline=None)
    @given(
        outer=bin_matrices(max_rows=4, max_cols=8).filter(lambda matrix: matrix.cols),
        code=st.sampled_from([STEANE, RM15]),
        mode=st.sampled_from(["idealized", "exact"]),
        data=st.data(),
    )
    def test_one_double_per_violated_check_is_accepted(self, outer, code, mode, data):
        # the pattern whose weight the function reports: nonzero data v, plus
        # both slots of any one qubit in each check that v violates
        a_n, n_q = outer.cols, code.params.n_q
        v = data.draw(st.integers(1, (1 << a_n) - 1), label="v")
        qubits = data.draw(st.lists(st.integers(0, n_q - 1), min_size=outer.rows,
                                    max_size=outer.rows), label="qubits")
        violated = [j for j, row in enumerate(outer.row_bits) if (row & v).bit_count() % 2]
        site = [i for i in range(a_n) if v >> i & 1]
        site += [a_n + 2 * (j * n_q + qubits[j]) + t for j in violated for t in (0, 1)]
        inst = ProtocolInstance(code, OuterCode(outer, 0, 0), strict=False)
        site = np.array(site, dtype=np.int64)
        rejected, flipped, corrupt = _verdicts(_Kernel.build(inst, mode), np.zeros_like(site), site)
        assert rejected.size == flipped.size == corrupt.size == 0

    def test_sensitive_outer_reaches_distance(self):
        outer = build_biregular(6, 1, 1, 4, seed=0)
        inst = ProtocolInstance(STEANE, outer)
        assert min_undetected_weight(inst, 6) >= 3
