"""Properties over wide input boxes, drawn by hypothesis."""

import cmath
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from papperitz import cli  # noqa: E402
from papperitz.closed_form import EquationParams, derive_params  # noqa: E402
from papperitz.errors import NonFiniteParameters  # noqa: E402

finite_complex = st.builds(complex, st.floats(allow_nan=False, allow_infinity=False),
                           st.floats(allow_nan=False, allow_infinity=False))


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
