"""Sector-block storage against the dense reference, footprint, layout checks."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from cosmoflux import (
    TruncationSpec,
    average_work,
    entropy_distributions,
    thermal_distribution,
    transition_kernel,
)
from cosmoflux.fock import sector_amplitudes, sector_layout
from cosmoflux.report import _conservation_checks
from cosmoflux.thermo import mean_created_kernel

from conftest import Z_CANON
from dense_reference import (
    array_bytes,
    dense_crooks_microstate,
    dense_entropy_lattice,
    dense_mean_created,
    dense_mean_final_total,
    dense_state_vector,
    dense_totals,
    dense_view,
)


@settings(max_examples=15, deadline=None)
@given(
    z=st.floats(min_value=0.0, max_value=0.8, allow_nan=False),
    t_ratio=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
    cutoff=st.integers(min_value=8, max_value=16),
)
def test_sectors_match_dense_reference(z, t_ratio, cutoff):
    spec = TruncationSpec(cutoff=cutoff, leakage_tolerance=1e-2)
    kern = transition_kernel(z, spec)
    thermal = thermal_distribution(t_ratio, 1.0, spec)
    w = dense_state_vector(thermal.weights, cutoff)
    amps = [sector_amplitudes(z, d, cutoff + 1 - d) for d in range(cutoff + 1)]
    P = dense_view(amps, cutoff) ** 2

    # kernel: elementwise the same products, so exactly equal
    assert np.array_equal(dense_view(kern.probabilities, cutoff), P)
    assert np.array_equal(
        dense_state_vector(kern.column_leakage, cutoff),
        np.maximum(1.0 - P.sum(axis=0), 0.0),
    )

    # averages and lattice masses: summation order differs, so the gap is
    # bounded by sum length x unit roundoff x the size of the summands
    # (masses sum to at most 1, totals are at most 2N)
    rounding = (cutoff + 1) ** 2 * np.finfo(float).eps
    mean_work = average_work(kern, thermal, 1.0, 2.0)
    n_i = float(dense_totals(cutoff) @ w)
    dense_work = 2.0 * (dense_mean_final_total(P, w, cutoff) + 1.0) - (n_i + 1.0)
    assert abs(mean_work - dense_work) <= rounding * 2.0 * 2 * cutoff
    created = mean_created_kernel(kern, thermal)
    assert abs(created - dense_mean_created(P, w, cutoff)) <= rounding * 2 * cutoff
    # expansion and contraction trajectory masses p(m|n) w(n), p(m|n) w(m)
    J, Q = P * w[None, :], P * w[:, None]
    rate = 1.0 / t_ratio
    p_e, p_c, micro_dev = entropy_distributions(kern, thermal)
    lattice_e = _lattice(p_e.support, p_e.masses, rate, cutoff)
    lattice_c = _lattice(-p_c.support, p_c.masses, rate, cutoff)
    assert np.max(np.abs(lattice_e - dense_entropy_lattice(J, cutoff))) <= rounding
    assert np.max(np.abs(lattice_c - dense_entropy_lattice(Q, cutoff))) <= rounding

    # microstate Crooks residual: same entries, same arithmetic, same max
    assert micro_dev == dense_crooks_microstate(J, Q, rate, cutoff)


def _lattice(support, masses, rate, cutoff):
    """Masses per integer total change, offset by 2*cutoff (length 4N+1)."""
    full = np.zeros(4 * cutoff + 1)
    full[np.rint(support / rate).astype(int) + 2 * cutoff] = masses
    return full


def test_footprint_at_cutoff_56():
    # the dense kernel alone held 57^4 doubles (85 MB) at this cutoff
    spec = TruncationSpec(cutoff=56, leakage_tolerance=1e-8)
    kern = transition_kernel(Z_CANON, spec)
    assert array_bytes(kern) < 2 * 2**20


def test_conservation_checks_flag_wrong_layout(kernel40):
    good = sector_layout(40)
    assert all(ok for _, ok, _ in _conservation_checks(kernel40, good))
    # diagonal states (i, i) for every sector, totals missing the factor 2
    wrong = tuple(
        replace(s, index=np.arange(s.size) * 42, totals=np.arange(s.size) + s.d)
        for s in good
    )
    checks = {name: ok for name, ok, _ in _conservation_checks(kernel40, wrong)}
    assert checks == {"difference-conservation": False, "parity-support": False}
