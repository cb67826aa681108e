import random
from fractions import Fraction
from pathlib import Path

import pytest

from crcartan.cli import parse_model_file, rigid_model
from crcartan.equivalence import Geometry, run_method, run_model_pipeline
from crcartan.exact import GaussRat, standard_context
from crcartan.frames import GraphingFunctions, cubic_model


MODELS = Path(__file__).resolve().parent.parent / "models"


def bundled_rigid_model(name: str):
    """The [rigid] block of models/<name>.model, read as the CLI reads it."""
    return rigid_model(parse_model_file((MODELS / f"{name}.model").read_text(encoding="utf-8")))


def phi1_deformation(expr_text):
    ctx = standard_context()
    x, y, u1, u2, u3 = ctx.vars("x", "y", "u1", "u2", "u3")
    env = {"x": x, "y": y, "u1": u1, "u2": u2, "u3": u3}
    return GraphingFunctions(ctx, x ** 2 + y ** 2 + eval(expr_text, {}, env),
                             2 * x ** 3 + 2 * x * y ** 2,
                             2 * x ** 2 * y + 2 * y ** 3)


def quartic_deformation():
    """phi1 = x^2 + y^2 + x^4; has R != 0."""
    return phi1_deformation("x**4")


def r_zero_deformation():
    """phi1 += (x^2+y^2)^2; stays in the R = 0 branch, not equivalent."""
    return phi1_deformation("(x**2+y**2)**2")


def random_deformation(seed: int, min_weight: int = 4) -> GraphingFunctions:
    """Random small-coefficient polynomial deformation of weighted order >= 4.

    Weights: x, y -> 1, u1 -> 2, u2, u3 -> 3; each phi_j may get a couple of
    monomials of weighted degree >= min_weight (one more than phi_j's own
    weight where needed to stay a higher-order perturbation).
    """
    rng = random.Random(seed)
    ctx = standard_context()
    x, y, u1, u2, u3 = ctx.vars("x", "y", "u1", "u2", "u3")
    coeffs = [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3), 1, -1]

    def monomial(wmin, wmax, allow_u):
        # u-dependence kept linear and in u1 only: richer graphs make the
        # frame denominators balloon and the identity checks crawl
        while True:
            a, b = rng.randint(0, 2), rng.randint(0, 2)
            upart, uw = ctx.one, 0
            if allow_u and rng.random() < 0.25:
                upart, uw = u1, 2
            w = a + b + uw
            if wmin <= w <= wmax:
                return x ** a * y ** b * upart

    def perturb(base_weight, allow_u):
        wmin = max(min_weight, base_weight + 1)
        c = ctx.const(GaussRat(rng.choice(coeffs)))
        return c * monomial(wmin, wmin + 1, allow_u)

    return GraphingFunctions(
        ctx,
        x ** 2 + y ** 2 + perturb(2, False),
        2 * x ** 3 + 2 * x * y ** 2 + perturb(3, True),
        2 * x ** 2 * y + 2 * y ** 3 + perturb(3, True),
    )


# Each fixture below runs one stage of the method once per session; the
# tests only read what it returns.

@pytest.fixture(scope="session")
def cubic_geometry():
    return Geometry.build(cubic_model())


@pytest.fixture(scope="session")
def quartic_geometry():
    return Geometry.build(quartic_deformation())


@pytest.fixture(scope="session")
def r_zero_geometry():
    return Geometry.build(r_zero_deformation())


@pytest.fixture(scope="session")
def cubic_report(cubic_geometry):
    return run_method(cubic_geometry)


@pytest.fixture(scope="session")
def quartic_report(quartic_geometry):
    return run_method(quartic_geometry)


@pytest.fixture(scope="session")
def r_zero_report(r_zero_geometry):
    return run_method(r_zero_geometry)


@pytest.fixture(scope="session")
def model_pipeline():
    """(report, structure constants, structure equations) of run_model_pipeline."""
    return run_model_pipeline()
