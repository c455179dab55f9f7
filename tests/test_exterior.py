"""Index bookkeeping and pullback algebra on coefficient arrays."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divfree import em_to_coeffs
from divfree.exterior import (
    PFormValue,
    canonicalize,
    exterior_derivative_table,
    form_basis,
    infinitesimal_pullback_coeffs,
    minor,
    pullback_coeffs,
)


def pfaffian_2form(form):
    """E . B invariant of a 2-form in dimension 4.

    Under the electromagnetic identification (A_{j0} = E_j, spatial slots
    carrying B through the 3-index signature) this equals the dot product
    E . B; it squares to the determinant of the antisymmetric coefficient
    matrix.  Only defined for (d, p) = (4, 2).
    """
    if (form.d, form.p) != (4, 2):
        raise ValueError("pfaffian is defined for 2-forms in dimension 4 only")
    a = form.coeffs  # order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
    return float(-(a[0] * a[5] - a[1] * a[4] + a[2] * a[3]))


def test_canonicalize_sorts_and_tracks_parity():
    assert canonicalize((3, 0, 2)) == ((0, 2, 3), 1)
    assert canonicalize((0, 2, 3)) == ((0, 2, 3), 1)
    assert canonicalize((2, 0, 3)) == ((0, 2, 3), -1)
    assert canonicalize((1, 0)) == ((0, 1), -1)
    assert canonicalize(()) == ((), 1)


def test_canonicalize_kills_repeated_indices():
    assert canonicalize((1, 1, 2))[1] == 0
    assert canonicalize((0, 3, 0))[1] == 0


def test_adjacent_swap_flips_the_sign():
    rng = np.random.default_rng(0)
    for _ in range(60):
        d = int(rng.integers(2, 7))
        p = int(rng.integers(2, d + 1))
        J = tuple(int(x) for x in rng.permutation(d)[:p])
        base = canonicalize(J)[1]
        k = int(rng.integers(0, p - 1))
        swapped = list(J)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        assert canonicalize(tuple(swapped))[1] == -base


@settings(derandomize=True, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5))
def test_canonicalize_always_sorted_with_unit_or_zero_sign(raw):
    J, sign = canonicalize(tuple(raw))
    assert sign in (-1, 0, 1)
    if len(set(raw)) < len(raw):
        assert sign == 0
    else:
        assert J == tuple(sorted(raw))
        assert sign != 0


def test_subset_enumeration_is_lexicographic_and_complete():
    for d in range(6):
        for p in range(d + 1):
            subs = form_basis(d, p).tuples
            assert len(subs) == math.comb(d, p)
            assert list(subs) == sorted(subs)
            assert len(set(subs)) == len(subs)
    assert form_basis(4, 2).tuples == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    with pytest.raises(ValueError):
        form_basis(3, 4)


def test_slot_resolves_unordered_tuples():
    basis = form_basis(3, 2)
    assert basis.tuples == ((0, 1), (0, 2), (1, 2))
    assert basis.slot((1, 0)) == (0, -1)
    assert basis.slot((2, 1)) == (2, -1)
    assert basis.slot((1, 1))[1] == 0


def test_minor_is_the_submatrix_determinant():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 5))
    for I in ((0, 2), (1, 4), (0, 1, 3), (2,)):
        for J in ((1, 3), (0, 4), (1, 2, 4), (0,)):
            if len(I) != len(J):
                continue
            direct = np.linalg.det(M[np.ix_(I, J)])
            assert abs(minor(M, I, J) - direct) < 1e-12


def test_pullback_matches_the_minor_expansion():
    # B_J = sum_I A_I det M[I, J] is the defining multilinear identity
    rng = np.random.default_rng(3)
    for d, p in ((3, 2), (4, 2), (4, 3), (2, 1)):
        M = rng.standard_normal((d, d))
        A = rng.standard_normal(math.comb(d, p))
        B = pullback_coeffs(M, A, d, p)
        subs = form_basis(d, p).tuples
        direct = np.array([sum(A[i] * minor(M, I, J) for i, I in enumerate(subs))
                           for J in subs])
        assert np.abs(B - direct).max() < 1e-12


def test_pullback_is_linear_and_contravariant():
    rng = np.random.default_rng(4)
    d, p = 4, 2
    M, N = rng.standard_normal((2, d, d))
    A, A2 = rng.standard_normal((2, 6))
    lhs = pullback_coeffs(M @ N, A, d, p)
    rhs = pullback_coeffs(N, pullback_coeffs(M, A, d, p), d, p)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())
    lin = pullback_coeffs(M, 2.0 * A - 3.0 * A2, d, p)
    assert np.abs(lin - 2.0 * pullback_coeffs(M, A, d, p)
                  + 3.0 * pullback_coeffs(M, A2, d, p)).max() < 1e-12


def test_rotation_preserves_its_own_plane_element():
    # rotating in the (0, 1) plane leaves the dy0 ^ dy1 coefficient alone
    t = 0.6
    c, s = np.cos(t), np.sin(t)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    A = np.array([1.0, 0.0, 0.0])  # pure (0, 1) component
    B = pullback_coeffs(R, A, 3, 2)
    assert np.abs(B - A).max() < 1e-15


def test_top_degree_pullback_multiplies_by_det():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        M = rng.standard_normal((d, d))
        out = pullback_coeffs(M, np.array([2.5]), d, d)
        assert abs(out[0] - 2.5 * np.linalg.det(M)) < 1e-12 * max(1.0, abs(out[0]))


def test_infinitesimal_pullback_is_the_flow_derivative():
    rng = np.random.default_rng(11)
    N = rng.standard_normal((4, 4))
    A = rng.standard_normal(6)
    lin = infinitesimal_pullback_coeffs(N, A, 4, 2)
    errs = []
    for t in (1e-4, 5e-5):
        full = pullback_coeffs(np.eye(4) + t * N, A, 4, 2)
        errs.append(np.abs(full - (A + t * lin)).max())
    assert errs[0] < 1e-7
    # halving t divides the mismatch by four: the linearization is exact to O(t^2)
    assert 3.8 < errs[0] / errs[1] < 4.2


def test_pfaffian_frozen_value_and_em_identification():
    assert pfaffian_2form(PFormValue(4, 2, [1.0, 2, 3, 4, 5, 6])) == -8.0
    rng = np.random.default_rng(7)
    for _ in range(10):
        E = rng.standard_normal(3)
        B = rng.standard_normal(3)
        pf = pfaffian_2form(PFormValue(4, 2, em_to_coeffs(E, B)))
        assert abs(pf - E @ B) < 1e-12 * max(1.0, abs(pf))


def test_pfaffian_scales_with_det_under_pullback():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((4, 4))
    F = rng.standard_normal(6)
    lhs = pfaffian_2form(PFormValue(4, 2, pullback_coeffs(M, F, 4, 2)))
    rhs = np.linalg.det(M) * pfaffian_2form(PFormValue(4, 2, F))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_pfaffian_rejects_other_degrees():
    with pytest.raises(ValueError):
        pfaffian_2form(PFormValue(3, 2, [1.0, 0.0, 0.0]))


def test_exterior_derivative_table_shapes():
    for d, p in ((3, 1), (4, 2), (2, 0)):
        rows = exterior_derivative_table(d, p)
        assert len(rows) == math.comb(d, p + 1)
        for J, terms in rows:
            assert len(J) == p + 1
            assert len(terms) == p + 1
    assert exterior_derivative_table(3, 3) == ()


def test_form_value_validation_and_indexing():
    with pytest.raises(ValueError):
        PFormValue(3, 2, [1.0, 2.0])  # needs C(3, 2) = 3 coefficients
    f = PFormValue(4, 2, [1, 2, 3, 4, 5, 6])
    assert f.coeffs.dtype == float and f.coeffs.shape == (6,)
