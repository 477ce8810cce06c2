"""Chunked passes over the kernel buffer and the held work buffers.

Every pass over a kernel buffer (the kernel build, with its column sums
and its total table, and the battery's symmetry scan) walks it in chunks
of whole sectors (fock.sector_chunks) and takes its temporaries from the
work buffers its thread holds (fock.work_buffer); the work and entropy
passes contract the build's total table. These tests pin what that
promises: the chunks tile the box; a chunking moves no bit of any result,
and the stages match the per-sector loops of dense_reference; a stage's
transient memory is bounded; a pass cannot take a buffer its caller
holds; threads share no buffer, and no result is a view of one.
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
from cosmoflux.fock import CHUNK_ENTRIES, sector_chunks
from cosmoflux.thermo import _work_pass

from conftest import Z_CANON
from dense_reference import (
    reference_cell_residual,
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
    """Sets CHUNK_ENTRIES for one test; sector_chunks is rebuilt for each
    bound and once more after the test."""
    def set_bound(bound):
        monkeypatch.setattr(fock_mod, "CHUNK_ENTRIES", bound)
        sector_chunks.cache_clear()

    yield set_bound
    sector_chunks.cache_clear()


def _check_tiling(cutoff, bound):
    chunks = sector_chunks(cutoff)
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
    p_e, p_c, micro = entropy_distributions(kernel, thermal)
    K = quantum_relative_entropy(thermal, kernel, 2.0 * t_ratio)
    return kernel, thermal, _work_pass(kernel, thermal), p_e, p_c, micro, K


def _bits(stages):
    kernel, _thermal, sums, p_e, p_c, micro, K = stages
    return (
        kernel.flat_amplitudes.tobytes(), kernel.flat_column_leakage.tobytes(),
        kernel.total_table.tobytes(), sums,
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
        assert len(sector_chunks(40)) == count
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
    assert len(sector_chunks(cutoff)) == 6
    kernel, thermal, sums, p_e, p_c, micro, K = _stages(z, t_ratio, cutoff)
    probs = [A**2 for A in kernel.amplitudes]
    weights = sector_weights(thermal)
    R = kernel.total_table
    assert np.all(np.abs(R - reference_total_table(probs, cutoff)) <= 2 * (cutoff + 1) * EPS * R)
    mass_e, mass_c = reference_entropy_pass(probs, weights, cutoff)
    keep = (mass_e > 0.0) | (mass_c > 0.0)
    bound = _entry_count(cutoff) * EPS
    assert np.all(np.abs(p_e.masses - mass_e[keep]) <= bound * mass_e[keep])
    assert np.all(np.abs(p_c.masses - mass_c[keep][::-1]) <= bound * mass_c[keep][::-1])
    assert micro == reference_cell_residual(R, thermal.total_weights, 1.0 / t_ratio)
    assert K == reference_relative_entropy(kernel.amplitudes, weights)
    leakage, final, initial, created = reference_work_sums(
        probs, kernel.column_leakage, weights, thermal.renorm_defect
    )
    assert abs(sums.leakage - leakage) <= bound * leakage
    assert abs(sums.initial - initial) <= bound * initial
    assert abs(sums.final - final) <= bound * (final + initial)
    assert abs(sums.created - created) <= bound * (final + initial)


def _second_call_peak(fn, *args):
    fn(*args)  # tables and held buffers are made on the first call
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_stage_peaks_at_12_bytes_per_entry_at_cutoff_56():
    # beyond the 8 bytes per entry of the amplitudes a build returns (its
    # total table among them); the whole-buffer passes peaked at 22.3
    # (build), 17.3 (work), 25.2 (entropy) and 28.5 (relative entropy)
    spec = TruncationSpec(56, 1e-8)
    budget = 12 * _entry_count(56)
    kernel = transition_kernel(Z_CANON, spec)
    thermal = thermal_distribution(1.0, 1.0, spec)
    build = _second_call_peak(transition_kernel, Z_CANON, spec)
    assert build - kernel.flat_amplitudes.nbytes <= budget
    assert _second_call_peak(_work_pass, kernel, thermal) <= budget
    assert _second_call_peak(entropy_distributions, kernel, thermal) <= budget
    assert _second_call_peak(quantum_relative_entropy, thermal, kernel, 2.0) <= budget


def _arrays(obj):
    """Every numpy array among obj's values, attributes and items."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        for value in vars(obj).values():
            yield from _arrays(value)


def test_no_result_is_a_view_of_a_held_buffer():
    results = _stages(Z_CANON, 1.0, 40)
    held = list(fock_mod._BUFFERS.arrays.values())
    assert {"values", "keys", "block"} <= set(fock_mod._BUFFERS.arrays)
    arrays = list(_arrays(results))
    assert len(arrays) >= 8
    for a in arrays:
        assert not any(np.shares_memory(a, h) for h in held)


def test_a_pass_cannot_take_a_buffer_its_caller_holds():
    spec = TruncationSpec(16, 0.5)
    expected = transition_kernel(Z_CANON, spec).flat_amplitudes.tobytes()

    @fock_mod.holds_buffers("values")
    def caller():
        fock_mod.work_buffer("values", 4)
        return transition_kernel(Z_CANON, spec)

    with pytest.raises(RuntimeError, match=r"_full_build takes work buffers \['values'\]"):
        caller()
    # the refused call gives back what its caller held
    assert fock_mod._BUFFERS.in_use == set()
    assert transition_kernel(Z_CANON, spec).flat_amplitudes.tobytes() == expected
    with pytest.raises(RuntimeError, match="outside a pass that holds it"):
        fock_mod.work_buffer("values", 4)


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
