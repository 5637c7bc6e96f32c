"""Value semantics of the five value classes of params and oracle: the repr
of a sample value byte for byte, hashing, immutability and the errors of
their constructors.  A HypParams repr is part of error messages."""

import math

import numpy as np
import pytest

from papperitz.errors import (
    InvalidGamma,
    NoConvergence,
    NonFinitePath,
    PathTooCloseToSingularity,
)
from papperitz.hypergeom import gauss_2f1, series_jets
from papperitz.oracle import PathSpec
from papperitz.params import EquationParams, HypParams, Jet2, derive_params

P = EquationParams(0.3 + 0.1j, 0.2, 0.1 + 0.2j)

SAMPLES = [
    (P, "EquationParams(a=(0.3+0.1j), b=0.2, c=(0.1+0.2j))"),
    (Jet2(1 + 2j, 0.5, -1j), "Jet2(y=(1+2j), dy=0.5, d2y=(-0-1j))"),
    (derive_params(P),
     "DerivedParams(delta=(0.716203100579105+0.18151275789630772j), "
     "delta_star=(1.4541240032324427-0.1856788000196709j), "
     "lam=(0.7081015502895525+0.04075637894815386j), "
     "lam2=(-0.008101550289552506-0.14075637894815385j), "
     "alpha=(1.7851635519057738-0.1020830210616816j), "
     "beta=(0.3310395486733311+0.08359577895798931j), "
     "gamma=(1.716203100579105+0.18151275789630772j), "
     "degeneracy=<DegeneracyClass.GENERIC: 'Generic'>)"),
    (HypParams(-2, 0.5 + 1j, -3.0), "HypParams(alpha=-2, beta=(0.5+1j), gamma=-3.0)"),
    (PathSpec([2j, 1 + 2j, 2]), "PathSpec(waypoints=(2j, (1+2j), (2+0j)))"),
]
IDS = [type(value).__name__ for value, _ in SAMPLES]
FIELDS = {
    "EquationParams": ("a", "b", "c"),
    "Jet2": ("y", "dy", "d2y"),
    "DerivedParams": ("delta", "delta_star", "lam", "lam2", "alpha", "beta",
                      "gamma", "degeneracy"),
    "HypParams": ("alpha", "beta", "gamma"),
    "PathSpec": ("waypoints",),
}


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in FIELDS[type(value).__name__])


@pytest.mark.parametrize("value, text", SAMPLES, ids=IDS)
def test_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _", SAMPLES, ids=IDS)
def test_equal_values_hash_equal(value, _):
    # the hash of the tuple of the fields, as a dict or set key needs
    again = type(value)(*_fields(value))
    assert again == value and hash(again) == hash(value)
    assert hash(value) == hash(_fields(value))


@pytest.mark.parametrize("value, _", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned(value, _):
    for name in FIELDS[type(value).__name__]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)


def test_constructor_errors():
    with pytest.raises(ValueError, match=r"^coefficient b=\(nan\+0j\) is not finite$"):
        EquationParams(0, math.nan, 0)
    with pytest.raises(InvalidGamma) as exc:
        HypParams(1, 1, -2)
    assert str(exc.value) == ("gamma=-2 is a nonpositive integer and neither "
                              "alpha=1 nor beta=1 truncates the series early enough")
    with pytest.raises(ValueError, match="^a path needs at least two waypoints$"):
        PathSpec([0])
    with pytest.raises(PathTooCloseToSingularity) as exc:
        PathSpec([0.95j, 1.05j])
    assert str(exc.value) == ("segment 0.95j -> 1.05j passes within 0 of the "
                              "singular point 1j")
    with pytest.raises(NonFinitePath) as exc:
        PathSpec([0, 1e308 + 1e308j, -1e308 - 1e308j])
    assert str(exc.value) == ("waypoint (1e+308+1e+308j) lies beyond |z| = 1e+77, "
                              "where the equation's coefficients overflow")


def test_value_classes_take_keywords_and_defaults():
    assert EquationParams(c=3, b=2, a=1) == EquationParams(1, 2, 3)
    assert PathSpec(waypoints=[0, 1]).waypoints == (0j, 1 + 0j)
    assert HypParams(-2, 1, 0.5).truncation_degree() == 2
    assert HypParams(0.5, 1, 0.5).truncation_degree() is None


def test_no_convergence_message_names_the_parameters():
    text = ("series for HypParams(alpha=-20000, beta=1, gamma=0.5) is a "
            "polynomial of degree 20000, beyond the budget of 10000 terms")
    _, (index, fault) = series_jets(HypParams(-20000, 1, 0.5), np.array([0.5]))
    assert index == 0 and isinstance(fault, NoConvergence) and str(fault) == text
    with pytest.raises(NoConvergence) as exc:
        gauss_2f1(HypParams(-20000, 1, 0.5), 0.5)
    assert str(exc.value) == text
