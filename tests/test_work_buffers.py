"""Chunked passes over the kernel buffer and each pass's own scratch.

The kernel build's passes over its buffer (the gather, the column sums
and the total table) walk it in chunks of whole sectors
(fock.sector_index(N).chunks), each with scratch it allocates per call; the work
and entropy passes contract the build's total table. These tests pin
what that promises: the chunks tile the box; a chunking moves no bit of
any result, and the stages match the per-sector loops of
dense_reference; a stage's transient memory, its scratch included, is
bounded; and threads that run the point and the battery at once get the
serial results.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from cosmoflux import (
    TruncationSpec,
    canonical_config,
    entropy_distributions,
    quantum_relative_entropy,
    run_simulation,
    thermal_distribution,
    transition_kernel,
    verify_invariants,
)
import cosmoflux.fock as fock_mod
from cosmoflux.fock import CHUNK_ENTRIES, sector_index
from cosmoflux.thermo import _work_pass

from conftest import Z_CANON
from dense_reference import (
    reference_cell_residual,
    reference_column_leakage,
    reference_entropy_pass,
    reference_relative_entropy,
    reference_total_table,
    reference_work_sums,
    sector_weights,
)

EPS = np.finfo(float).eps


def _entry_count(cutoff):
    return (cutoff + 1) * (cutoff + 2) * (2 * cutoff + 3) // 6


@pytest.fixture
def chunk_bound(monkeypatch):
    """Sets CHUNK_ENTRIES for one test; sector_index, which holds the
    chunks, is rebuilt for each bound and once more after the test."""
    def set_bound(bound):
        monkeypatch.setattr(fock_mod, "CHUNK_ENTRIES", bound)
        sector_index.cache_clear()

    yield set_bound
    sector_index.cache_clear()


def _check_tiling(cutoff, bound):
    chunks = sector_index(cutoff).chunks
    assert [d for c in chunks for d in c.sectors] == list(range(cutoff + 1))
    assert chunks[0].entries.start == chunks[0].states.start == 0
    for before, after in zip(chunks, chunks[1:]):
        assert before.entries.stop == after.entries.start
        assert before.states.stop == after.states.start
        # a chunk closes only where the next sector would pass the bound
        assert before.size + (cutoff + 1 - after.sectors.start) ** 2 > bound
    assert chunks[-1].entries.stop == _entry_count(cutoff)
    for c in chunks:
        assert c.size <= bound or len(c.sectors) == 1
    return chunks


@pytest.mark.parametrize("cutoff, count", [(8, 1), (40, 2), (56, 5), (130, 58)])
def test_chunks_tile_the_box(cutoff, count):
    # block d = 0 at cutoff 130 holds 17,161 entries, over the bound: a
    # chunk of its own
    chunks = _check_tiling(cutoff, CHUNK_ENTRIES)
    assert len(chunks) == count
    assert (chunks[0].size > CHUNK_ENTRIES) == (cutoff == 130)


def _stages(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff, 0.5)
    kernel = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    p_e, p_c, micro = entropy_distributions(kernel.table, thermal)
    K = quantum_relative_entropy(thermal, kernel, 2.0 * t_ratio)
    return kernel, thermal, _work_pass(kernel.table, thermal), p_e, p_c, micro, K


def _bits(stages):
    kernel, _thermal, sums, p_e, p_c, micro, K = stages
    return (
        kernel.flat_amplitudes.tobytes(), kernel.table.masses.tobytes(),
        kernel.table.leakage.tobytes(), sums,
        p_e.support.tobytes(), p_e.masses.tobytes(), p_c.masses.tobytes(), micro, K,
    )


@pytest.mark.parametrize("z, t_ratio", [(Z_CANON, 1.0), (1.0, 0.3), (1e-8, 2.0)])
def test_chunking_moves_no_bit(chunk_bound, z, t_ratio):
    # cutoff 40 in its 2 chunks, in one, and in 10 of at most 3000
    # entries: every per-sector sum lies in one chunk, and the total table
    # adds each block into its cells whole, d ascending, so the
    # kernel and every statistic contracted from its table keep their bits
    default = _bits(_stages(z, t_ratio, 40))
    for bound, count in ((1 << 16, 1), (3000, 10)):
        chunk_bound(bound)
        assert len(sector_index(40).chunks) == count
        assert _bits(_stages(z, t_ratio, 40)) == default


@pytest.mark.parametrize("z, t_ratio", [(Z_CANON, 1.0), (1.0, 2.0)])
def test_chunked_passes_match_the_per_sector_loops(z, t_ratio):
    # cutoff 60 in 6 chunks against the per-sector loops of
    # dense_reference: the total table within terms x eps x its cell, each
    # cell summing at most N + 1 squares of either mirror; the microstate
    # residual of its cells and K bit for bit; the lattice within terms x
    # eps x the bin's mass (no product here is subnormal) and the work sums
    # within the bounds of test_work_pass_matches_the_per_sector_loops
    cutoff = 60
    assert len(sector_index(cutoff).chunks) == 6
    kernel, thermal, sums, p_e, p_c, micro, K = _stages(z, t_ratio, cutoff)
    probs = [A**2 for A in kernel.amplitudes]
    weights = sector_weights(thermal)
    R = kernel.table.masses
    assert np.all(np.abs(R - reference_total_table(probs, cutoff)) <= 2 * (cutoff + 1) * EPS * R)
    mass_e, mass_c = reference_entropy_pass(probs, weights, cutoff)
    keep = (mass_e > 0.0) | (mass_c > 0.0)
    bound = _entry_count(cutoff) * EPS
    assert np.all(np.abs(p_e.masses - mass_e[keep]) <= bound * mass_e[keep])
    assert np.all(np.abs(p_c.masses - mass_c[keep][::-1]) <= bound * mass_c[keep][::-1])
    assert micro == reference_cell_residual(R, thermal.total_weights, 1.0 / t_ratio)
    assert K == reference_relative_entropy(kernel.amplitudes, weights)
    leakage, final, initial, created = reference_work_sums(
        probs, reference_column_leakage(kernel.amplitudes), weights, thermal.renorm_defect
    )
    assert abs(sums.leakage - leakage) <= bound * leakage
    assert abs(sums.initial - initial) <= bound * initial
    assert abs(sums.final - final) <= bound * (final + initial)
    assert abs(sums.created - created) <= bound * (final + initial)


def _second_call_peak(fn, *args):
    fn(*args)  # the per-cutoff tables are made on the first call
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_stage_peaks_at_12_bytes_per_entry_at_cutoff_56():
    # beyond the 8 bytes per entry of the amplitudes a build returns (its
    # total table among them), and with each pass's scratch counted; the
    # whole-buffer passes peaked at 22.3 (build), 17.3 (work), 25.2
    # (entropy) and 28.5 (relative entropy)
    spec = TruncationSpec(56, 1e-8)
    budget = 12 * _entry_count(56)
    kernel = transition_kernel(Z_CANON, spec)
    thermal = thermal_distribution(1.0, 1.0, spec)
    build = _second_call_peak(transition_kernel, Z_CANON, spec)
    assert build - kernel.flat_amplitudes.nbytes <= budget
    assert _second_call_peak(_work_pass, kernel.table, thermal) <= budget
    assert _second_call_peak(entropy_distributions, kernel.table, thermal) <= budget
    assert _second_call_peak(quantum_relative_entropy, thermal, kernel, 2.0) <= budget


def test_threads_share_no_buffer():
    # four threads on two CPUs, switching every 10 us: two run the
    # canonical point and two the battery, 10 times each, and every result
    # equals the serial one
    cfg = canonical_config()
    expected = {"point": run_simulation(cfg), "battery": verify_invariants()}
    jobs = {"point": lambda: run_simulation(cfg), "battery": verify_invariants}
    results, errors = [], []

    def work(name):
        try:
            for _ in range(10):
                results.append((name, jobs[name]()))
        except Exception as exc:  # reported below, with the thread's job
            errors.append((name, exc))

    threads = [threading.Thread(target=work, args=(name,)) for name in jobs for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 40
    for name, result in results:
        assert result == expected[name]
