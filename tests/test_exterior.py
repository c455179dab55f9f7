"""Index bookkeeping and pullback algebra on coefficient arrays."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divfree import coeffs_to_em, em_to_coeffs
from divfree.exterior import (
    PFormValue,
    canonicalize,
    exterior_derivative_table,
    form_basis,
    hodge,
    infinitesimal_pullback_coeffs,
    inverse_pullback_coeffs,
    pullback_matrix,
)

from helpers import minor, pullback_coeffs, same_bits, star


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
    # P[..., a, b] is minor(M, I_a, J_b) to the byte on a batch, at every
    # minor size: the direct expansions up to 4 x 4 and LU at 5 x 5
    for d in range(6):
        M = rng.standard_normal((5, 3, d, d))
        for p in range(d + 1):
            subs = form_basis(d, p).tuples
            direct = np.stack([np.stack([minor(M, I, J) for J in subs], axis=-1)
                               for I in subs], axis=-2)
            assert pullback_matrix(M, d, p).tobytes() == direct.tobytes()


def test_inverse_pullback_reads_the_complementary_minors():
    # Jacobi's theorem against LAPACK's inverse and determinant at every
    # (d, p) up to d = 5, where _det_batch takes its LU branch
    rng = np.random.default_rng(6)
    for d in range(6):
        G = np.eye(d) + 0.3 * rng.standard_normal((5, 3, d, d))
        for p in range(d + 1):
            A = rng.standard_normal((5, 3, math.comb(d, p)))
            B, det = inverse_pullback_coeffs(G, A, d, p)
            reference = pullback_coeffs(np.linalg.inv(G), A, d, p)
            assert np.abs(B - reference).max() <= 1e-13 * np.abs(reference).max()
            assert np.abs(det - np.linalg.det(G)).max() <= 1e-14 * np.abs(det).max()


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


@pytest.mark.parametrize("d", range(7))
def test_hodge_pairs_each_tuple_with_its_complement_in_reverse_order(d):
    # star sends slot a to slot C - 1 - a, the complement, with the sign of
    # the permutation (I, I^c); applying it twice gives (-1)^(p (d-p))
    rng = np.random.default_rng(d)
    for p in range(d + 1):
        C = math.comb(d, p)
        assert len(hodge(d, p)) == C
        for a, I in enumerate(form_basis(d, p).tuples):
            Ic = tuple(k for k in range(d) if k not in I)
            assert form_basis(d, d - p).index[Ic] == C - 1 - a
            assert hodge(d, p)[a] == canonicalize(I + Ic)[1]
            assert hodge(d, p)[a] * hodge(d, d - p)[C - 1 - a] == (-1) ** (p * (d - p))
        A = rng.standard_normal((3, C))
        assert np.array_equal(star(star(A, d, p), d, d - p), (-1) ** (p * (d - p)) * A)


def test_the_magnetic_slots_are_the_spatial_star():
    # B_j (axis j + 1) goes to slot 5 - j, its complement among the spatial
    # 2-tuples, with the sign of the degree-1 star in space
    rng = np.random.default_rng(11)
    E, B = rng.standard_normal((2, 5, 3))
    A = em_to_coeffs(E, B)
    assert same_bits(A[..., 3:], star(B, 3, 1)) and same_bits(A[..., :3], -E)
    assert all(same_bits(*pair) for pair in zip(coeffs_to_em(A), (E, B)))
    A = rng.standard_normal((4, 6))
    assert same_bits(em_to_coeffs(*coeffs_to_em(A)), A)


def test_an_oversized_basis_is_refused_before_it_is_enumerated():
    # n = 10^5 would enumerate 10^5 tuples of length 10^5, and range(10^308)
    # overflows itertools.combinations
    for d, p in ((100001, 100000), (10 ** 308, 1), (10 ** 308, 10 ** 308), (4097, 0)):
        with pytest.raises(ValueError, match="at most 4096 axes and coefficients"):
            form_basis(d, p)
    assert form_basis(4096, 1).size == 4096


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
