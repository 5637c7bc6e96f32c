"""Properties over wide input boxes, drawn by hypothesis."""

import cmath
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from papperitz import cli  # noqa: E402
from papperitz.params import EquationParams, HypParams, derive_params  # noqa: E402
from papperitz.errors import NonFiniteParameters  # noqa: E402

finite_complex = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(allow_nan=False, allow_infinity=False))

#: A component of up to ~10^3.5 in magnitude, with zero as a value of its own.
wide_component = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.floats(-1, 3.5)))
wide_complex = st.builds(complex, wide_component, wide_component)
plane = st.builds(complex, st.floats(-6, 6), st.floats(-6, 6))


def _literal(v: complex) -> str:
    return f"{v.real!r},{v.imag!r}"


def _reject_constant(name):
    raise ValueError(f"JSON constant {name} in the output")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(finite_complex, finite_complex, finite_complex)
def test_params_are_finite_or_a_structured_error(a, b, c):
    try:
        d = derive_params(EquationParams(a, b, c))
    except NonFiniteParameters:
        d = None
    else:
        assert all(map(cmath.isfinite, (d.delta, d.delta_star, d.lam, d.lam2,
                                        d.alpha, d.beta, d.gamma)))
        # the first member is always valid: gamma = 1 + delta, Re delta >= 0
        assert d.gamma.real >= 1
        HypParams(d.alpha, d.beta, d.gamma)
    argv = ["params", "--json"]
    for name, v in (("--a", a), ("--b", b), ("--c", c)):
        argv += [name, f"{v.real!r},{v.imag!r}"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if d is None:
        assert code == 3 and out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert code == 0
        derived = json.loads(out.getvalue(), parse_constant=_reject_constant)["derived"]
        assert derived["gamma"] == [d.gamma.real, d.gamma.imag]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_complex, wide_complex, wide_complex, plane)
def test_eval_returns_a_value_or_one_error_line(a, b, c, z):
    argv = ["eval", "--a", _literal(a), "--b", _literal(b), "--c", _literal(c),
            "--c2", "0.5,0.25", "--z", _literal(z)]
    out, err = io.StringIO(), io.StringIO()
    # pytest keeps warnings off stderr: make them errors instead
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 2, 3)
    assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
