import cmath
import math

import numpy as np
import pytest

from papperitz.errors import MapOverflow, PoleAtMinusI, ZeroBaseNonpositiveExponent
from papperitz.mobius import forward_jets, principal_power


def test_forward_map_values():
    assert forward_jets(1j)[0][0] == 0
    assert forward_jets(0)[0][0] == -1
    # (1-i)/(1+i) = (1-i)^2/2 = -i
    assert abs(forward_jets(1.0)[0][0] - (-1j)) < 1e-15


def test_forward_map_pole():
    fault = forward_jets(-1j)[3]
    assert fault[0] == 0 and isinstance(fault[1], PoleAtMinusI)
    assert abs(forward_jets(-1j + 1e-6)[0][0]) > 1e5


def test_overflowing_point_is_not_the_pole():
    # |z + i| overflows to inf, which must not read as |z + i| <= tol * inf
    for z in (-1j, 1e-320 - 1j):
        fault = forward_jets(z)[3]
        assert fault[0] == 0 and isinstance(fault[1], PoleAtMinusI)
    # its jets overflow instead, which is a fault of its own
    big = complex(1.5e308, 1.5e308)
    fault = forward_jets(big)[3]
    assert fault[0] == 0 and isinstance(fault[1], MapOverflow)
    assert "pole" not in str(fault[1])
    fault = forward_jets(np.array([2j, big, -1j]))[3]
    assert fault[0] == 1 and isinstance(fault[1], MapOverflow)
    fault = forward_jets(np.array([2j, -1j, big]))[3]
    assert fault[0] == 1 and isinstance(fault[1], PoleAtMinusI)


def test_map_overflow_is_the_first_point_whose_jets_are_not_finite():
    # a ladder of |z| at five angles, in a seeded order; no warning escapes
    rng = np.random.default_rng(8)
    z = np.array([r * cmath.exp(1j * phi)
                  for r in (1e2, 1e12, 1e100, 1e103, 1e154, 1e155, 1e200, 1e308)
                  for phi in (0.0, 0.3, math.pi / 4, math.pi / 2, 2.5)])
    z = z[rng.permutation(len(z))]
    with np.errstate(all="ignore"):
        zp = z + 1j
        jets = (z - 1j) / zp, 2j / (zp * zp), -4j / (zp * zp * zp)
    finite = np.isfinite(jets).all(axis=0)
    assert not finite.all() and finite.any()
    for n in range(1, len(z) + 1):
        fault = forward_jets(z[:n])[3]
        if finite[:n].all():
            assert fault is None
        else:
            assert fault[0] == int(finite.argmin())
            assert isinstance(fault[1], MapOverflow)


def test_round_trip():
    rng = np.random.default_rng(42)
    n = 0
    while n < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z - 1j) <= 0.1 or abs(z + 1j) <= 0.1:
            continue
        n += 1
        t = forward_jets(z)[0][0]
        back = 1j * (1 + t) / (1 - t)
        assert abs(back - z) <= 1e-13 * (1 + abs(z))
        assert abs(forward_jets(back)[0][0] - t) <= 1e-13 * (1 + abs(t))


def test_half_plane_correspondence():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.uniform(0, 1 - 1e-6)
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert (1j * (1 + t) / (1 - t)).imag > 0
        t_out = t / max(abs(t), 1e-3) * rng.uniform(1 + 1e-6, 3)
        assert (1j * (1 + t_out) / (1 - t_out)).imag < 0


def test_derivatives_values():
    assert abs(forward_jets(0)[1][0] - (-2j)) < 1e-15
    assert abs(forward_jets(1j)[1][0] - (-0.5j)) < 1e-15


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        h = 1e-6
        fd1 = (forward_jets(z + h)[0][0] - forward_jets(z - h)[0][0]) / (2 * h)
        assert abs(forward_jets(z)[1][0] - fd1) <= 1e-7 * max(abs(fd1), 1)
        h = 1e-4  # second differences need a larger step against roundoff
        fd2 = (forward_jets(z + h)[0][0] - 2 * forward_jets(z)[0][0]
               + forward_jets(z - h)[0][0]) / h**2
        assert abs(forward_jets(z)[2][0] - fd2) <= 1e-6 * max(abs(fd2), 1)


def test_principal_power_values():
    assert principal_power(1.0, 3.7 + 2j) == 1
    assert abs(principal_power(-1.0, 0.5) - 1j) < 1e-15
    # hand evaluation of exp(i Log 2i) = e^{-pi/2} (cos ln2 + i sin ln2)
    expected = math.exp(-math.pi / 2) * complex(math.cos(math.log(2)),
                                                math.sin(math.log(2)))
    assert abs(principal_power(2j, 1j) - expected) < 1e-15


def test_principal_power_zero_base():
    assert principal_power(0, 2.5 + 1j) == 0
    with pytest.raises(ZeroBaseNonpositiveExponent):
        principal_power(0, -1)
    with pytest.raises(ZeroBaseNonpositiveExponent):
        principal_power(0, 1j)


def test_principal_power_identity_and_additivity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = complex(rng.uniform(0.1, 3), rng.uniform(-3, 3))  # Re w > 0
        assert abs(principal_power(w, 1) - w) <= 1e-13 * abs(w)
        e1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        e2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = principal_power(w, e1 + e2)
        rhs = principal_power(w, e1) * principal_power(w, e2)
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_principal_branch_is_cmath_log():
    # Log argument lies in (-pi, pi]
    assert cmath.phase(-1.0) == math.pi
    assert abs(principal_power(-2.0, 1j)
               - cmath.exp(1j * (math.log(2) + 1j * math.pi))) < 1e-15


def test_principal_power_signed_zero_on_arrays():
    # np.log(complex(-1, -0.0)) is -i pi; the principal branch wants +i pi
    w = np.array([complex(-1, -0.0), complex(-1, 0.0), complex(-4, -0.0)])
    got = principal_power(w, 0.5)
    assert got[0] == got[1] == principal_power(complex(-1, -0.0), 0.5)
    assert got[0].imag > 0 and got[2].imag > 0
    assert principal_power(complex(-1, -0.0), 0.5) == principal_power(-1.0, 0.5)


def test_map_functions_take_arrays():
    z = np.array([0.5 + 1.5j, -2.0 + 0.3j, 3.0])
    got = forward_jets(z)
    for part in range(3):
        assert got[part].tolist() == [forward_jets(complex(x))[part][0] for x in z]
    fault = forward_jets(np.array([1j, -1j]))[3]
    assert fault[0] == 1 and isinstance(fault[1], PoleAtMinusI)
