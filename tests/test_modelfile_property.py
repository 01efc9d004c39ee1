"""Generated model files through the command line: every exit is a known one.

Model files are drawn from the parser's grammar: every rate, amplitude and
initial-density family and the ``[solver]`` keys, with numbers drawn from
ordinary values and extremes, on grids no larger than ``sample1d``.  Each
goes through ``ensemble --solver both --paths 1``.  The exit code is one of
the four the CLI defines, no exception or warning escapes, and a run that
exits 0 has a nonnegative initial density and rates that
``validate_rates`` passes.
"""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from stochage.cli import main
from stochage.modelfile import parse_model
from stochage.rates import validate_rates

EXTREMES = (0.0, -0.0, 1e-300, -1e-300, 1e154, -1e154, 1e308, -1e308)
GRIDS = {1: "dim = 1\nt_final = 0.5\na_max = 1.0\nn_t = 16\nn_a = 32\nextent = 1.0\nn_x = 8\n",
         2: "dim = 2\nt_final = 0.25\na_max = 0.5\nn_t = 8\nn_a = 16\nextent = 1.0,1.0\n"
            "n_x = 4,4\n"}
REGIONS = {1: ("full", "box:0.0,0.5"), 2: ("full", "box:0.0,0.5,0.0,1.0")}

number = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 3.0), st.floats(-3.0, 3.0),
                   st.integers(-2, 4).map(float)).map(repr)
count = st.one_of(st.integers(0, 3), st.sampled_from((-1, 1.5))).map(str)


def numbers(n):
    return st.lists(number, min_size=n, max_size=n).map(",".join)


rate = st.one_of(
    number.map("constant:{}".format),
    st.one_of(numbers(3), numbers(4)).map("logistic:{}".format),
    numbers(3).map("window:{}".format),
    st.one_of(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3, unique=True).map(sorted),
              st.lists(st.floats(), min_size=1, max_size=3)).flatmap(
        lambda ages: st.lists(number, min_size=len(ages), max_size=len(ages)).map(
            lambda values: "table:" + ";".join(f"{a!r}:{v}" for a, v in zip(ages, values)))))


def amplitude(dim):
    modes = st.lists(count, min_size=dim, max_size=dim).map(",".join)
    coefficients = st.lists(number, min_size=1, max_size=3).map(",".join)
    return st.one_of(
        number.map("constant:{}".format), coefficients.map("agepoly:{}".format),
        st.tuples(st.sampled_from(("cosine", "sine")), number, modes).map(":".join),
        st.tuples(number, modes, coefficients).map(lambda t: "agecos:" + ":".join(t)))


p0 = st.one_of(numbers(2).map("ageexp:{}".format), numbers(3).map("agegauss:{}".format),
               number.map("constant:{}".format))
solver_keys = st.fixed_dictionaries({}, optional={
    "picard_tol": number, "picard_max_iter": st.integers(-1, 60).map(str),
    "diffusion": st.sampled_from(("true", "false")),
    "truncation_radius": st.one_of(st.just("auto"), number), "c0": number, "c1": number})


@st.composite
def model_files(draw):
    dim = draw(st.sampled_from((1, 2)))
    rates = "".join(f"{key} = {draw(rate)}\n" for key in ("mu_s", "m0", "gamma", "alpha0", "k0"))
    noise = "".join(f"mu{j} = {draw(amplitude(dim))}\n"
                    for j in range(draw(st.integers(0, 2))))
    initial = f"p0 = {draw(p0)}\n"
    if draw(st.booleans()):
        initial += f"space_mode = {draw(number)},{draw(count)}\n"
    solver = "".join(f"{key} = {value}\n" for key, value in draw(solver_keys).items())
    return (f"[grid]\n{GRIDS[dim]}\n[rates]\n{rates}\n[noise]\n{noise}\n[initial]\n{initial}\n"
            f"[population_functional]\nregion = {draw(st.sampled_from(REGIONS[dim]))}\n\n"
            f"[solver]\n{solver}")


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=model_files())
def test_generated_model_file_exits_known_and_quietly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ini"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["ensemble", "--model", str(path), "--solver", "both", "--paths", "1",
                         "--out", str(Path(tmp) / "o")])
        assert code in (0, 1, 2, 3)
        assert [str(w.message) for w in caught] == []
        if code == 0:
            model, _ = parse_model(path)
            assert np.min(model.p0) >= 0.0
            assert validate_rates(model.rates, model.grid) == []
