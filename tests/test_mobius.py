import cmath
import math

import numpy as np
import pytest

from papperitz.errors import PoleAtMinusI, PoleAtOne, ZeroBaseNonpositiveExponent
from papperitz.mobius import d2t_dz2, dt_dz, principal_power, t_to_z, z_to_t


def test_forward_map_values():
    assert z_to_t(1j) == 0
    assert z_to_t(0) == -1
    # (1-i)/(1+i) = (1-i)^2/2 = -i
    assert abs(z_to_t(1.0) - (-1j)) < 1e-15


def test_forward_map_pole():
    with pytest.raises(PoleAtMinusI):
        z_to_t(-1j)
    assert abs(z_to_t(-1j + 1e-6)) > 1e5


def test_inverse_map_values():
    assert t_to_z(0) == 1j
    assert t_to_z(-1) == 0
    with pytest.raises(PoleAtOne):
        t_to_z(1.0)


def test_round_trip():
    rng = np.random.default_rng(42)
    n = 0
    while n < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z - 1j) <= 0.1 or abs(z + 1j) <= 0.1:
            continue
        n += 1
        back = t_to_z(z_to_t(z))
        assert abs(back - z) <= 1e-13 * (1 + abs(z))
        t = z_to_t(z)
        assert abs(z_to_t(t_to_z(t)) - t) <= 1e-13 * (1 + abs(t))


def test_half_plane_correspondence():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.uniform(0, 1 - 1e-6)
        t = r * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert t_to_z(t).imag > 0
        t_out = t / max(abs(t), 1e-3) * rng.uniform(1 + 1e-6, 3)
        assert t_to_z(t_out).imag < 0


def test_derivatives_values():
    assert abs(dt_dz(0) - (-2j)) < 1e-15
    assert abs(dt_dz(1j) - (-0.5j)) < 1e-15


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.5, 3))
        h = 1e-6
        fd1 = (z_to_t(z + h) - z_to_t(z - h)) / (2 * h)
        assert abs(dt_dz(z) - fd1) <= 1e-7 * max(abs(fd1), 1)
        h = 1e-4  # second differences need a larger step against roundoff
        fd2 = (z_to_t(z + h) - 2 * z_to_t(z) + z_to_t(z - h)) / h**2
        assert abs(d2t_dz2(z) - fd2) <= 1e-6 * max(abs(fd2), 1)


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
    for fn in (z_to_t, dt_dz, d2t_dz2):
        got = fn(z)
        assert got.tolist() == [fn(complex(x)) for x in z]
    with pytest.raises(PoleAtMinusI):
        z_to_t(np.array([1j, -1j]))
