import itertools

import pytest

from chainlines.criteria import (
    DefiningData,
    ci_length,
    fano_index_ci,
    lx_dim_ci,
    min_chain_length,
    rc_criterion,
    sharpness_report,
    wa_bound,
)


def test_defining_data_validation():
    data = DefiningData((3,), 4)
    assert data.m == 1 and data.total_degree == 3
    assert DefiningData([2, 2], 8).degrees == (2, 2)
    with pytest.raises(ValueError):
        DefiningData((), 4)
    with pytest.raises(ValueError):
        DefiningData((0,), 4)
    with pytest.raises(ValueError):
        DefiningData((2,), 0)


def test_rc_criterion_examples():
    assert rc_criterion(DefiningData((3,), 4), 3)  # equality: 9 <= 9
    assert rc_criterion(DefiningData((2,), 3), 2)  # 4 <= 4
    assert not rc_criterion(DefiningData((4,), 5), 3)  # 12 <= 11 fails
    with pytest.raises(ValueError):
        rc_criterion(DefiningData((2,), 3), 1)


def test_min_chain_length_examples():
    assert min_chain_length(DefiningData((4,), 5)) == 4
    assert min_chain_length(DefiningData((1, 1), 7)) == 1
    assert min_chain_length(DefiningData((3,), 4)) == 3
    assert min_chain_length(DefiningData((3,), 3)) is None  # cubic surface in P^3
    assert min_chain_length(DefiningData((5,), 3)) is None


def test_ci_length_examples():
    assert ci_length(DefiningData((2,), 3)) == 2  # quadric surface: conics
    assert ci_length(DefiningData((3,), 4)) == 3
    assert ci_length(DefiningData((2, 2), 8)) == 2
    with pytest.raises(ValueError):
        ci_length(DefiningData((3,), 3))


def test_fano_index_examples():
    assert fano_index_ci(DefiningData((3,), 4)) == 2
    assert fano_index_ci(DefiningData((2,), 3)) == 2
    assert fano_index_ci(DefiningData((2, 2), 8)) == 5
    with pytest.raises(ValueError):
        fano_index_ci(DefiningData((5,), 4))


def test_lx_dim_examples():
    assert lx_dim_ci(DefiningData((3,), 4)) == 0
    assert lx_dim_ci(DefiningData((2,), 3)) == 0
    assert lx_dim_ci(DefiningData((2,), 4)) == 1
    with pytest.raises(ValueError):
        lx_dim_ci(DefiningData((3,), 3))


def test_wa_bound():
    assert wa_bound(0, 3) == 3
    assert wa_bound(5, 1) == 6  # at length 1 the bound is dim(L_x) + 1
    assert wa_bound(2, 4) == 12
    with pytest.raises(ValueError):
        wa_bound(-1, 2)
    with pytest.raises(ValueError):
        wa_bound(0, 0)


def test_rc_criterion_forces_degree_below_ambient():
    # rc_criterion asserts D < N whenever it holds
    assert rc_criterion(DefiningData((3,), 4), 3)
    assert not rc_criterion(DefiningData((4,), 4), 2)
    assert rc_criterion(DefiningData((2,), 3), 2)
    # the exception: N hyperplanes in P^N, D = m = N
    assert rc_criterion(DefiningData((1, 1, 1), 3), 2)


def test_sharpness_report_examples():
    for l in (2, 3, 5):
        report = sharpness_report(l)
        assert report.degree == l + 1 and report.ambient == l + 2
        assert not report.criterion_at_length
        assert report.criterion_at_next
        assert report.min_length == l + 1
        assert report.lines_dim == 0
        assert report.locus_bound == l
        assert report.variety_dim == l + 1
        assert not report.connected
    with pytest.raises(ValueError):
        sharpness_report(1)


def _degree_grid(max_m, max_d):
    for m in range(1, max_m + 1):
        yield from itertools.combinations_with_replacement(range(1, max_d + 1), m)


def test_criterion_monotone_in_length():
    for degrees in _degree_grid(3, 5):
        for n in range(2, 11):
            data = DefiningData(degrees, n)
            values = [rc_criterion(data, l) for l in range(2, 13)]
            # once true, stays true
            assert values == sorted(values)


def test_min_chain_length_consistency():
    for degrees in _degree_grid(3, 5):
        for n in range(2, 13):
            data = DefiningData(degrees, n)
            least = min_chain_length(data)
            if least is None:
                assert not any(rc_criterion(data, l) for l in range(2, 30))
            elif least >= 2:
                assert rc_criterion(data, least)
                if least - 1 >= 2:
                    assert not rc_criterion(data, least - 1)


def test_length_formula_matches_criterion():
    # complete-intersection length formula vs the least criterion length
    for degrees in _degree_grid(4, 8):
        if all(d == 1 for d in degrees):
            continue
        for n in range(2, 21):
            data = DefiningData(degrees, n)
            if data.total_degree > n - 1:
                continue
            assert ci_length(data) == min_chain_length(data)
            assert ci_length(data) >= 2


def test_hypersurface_connected_at_ambient_minus_one():
    for n in range(3, 21):
        for d in range(2, n):
            assert rc_criterion(DefiningData((d,), n), n - 1)


def test_length_two_reduction():
    # at l = 2 the criterion is exactly 2D - m <= N
    for degrees in _degree_grid(3, 5):
        for n in range(2, 11):
            data = DefiningData(degrees, n)
            direct = 2 * data.total_degree - data.m <= n
            assert rc_criterion(data, 2) == direct
