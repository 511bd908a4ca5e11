"""The ground-truth consumers that evaluate in blocks against their frozen
per-point forms in ``oracle_reference``: ray bisection finds the same
sublevel-set radius and the zoo suite reaches the same verdicts.

Bitwise where a member's batch objective is bitwise its per-point objective;
on the hinge members a matrix product and a matrix-vector product round
differently in the last bit, and there the radii agree to 1e-12 relative."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import oracle_reference as ref
from rsgkit import verify
from rsgkit.core import ProblemInstance, pnorm
from rsgkit.oracles import estimate_B_eps, grid_min
from rsgkit.problems import Dataset, miniature_zoo, piecewise_linear_erm

ZOO = miniature_zoo()
# the members whose values() differ from per-point objectives in the last
# bit (test_problems.ZOO_NOT_BITWISE)
NOT_BITWISE = {"hinge_sep_2d", "hinge_l1ball_2d"}


def radii(inst, eps, oracle, **kwargs):
    """estimate_B_eps and the largest distance from the argmin over the
    per-point level points, each with the warnings it gave."""
    out = []
    for fn in (estimate_B_eps, ref.sample_level_points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = fn(inst, eps, oracle, **kwargs)
        if fn is ref.sample_level_points:
            got = max(pnorm(p - np.asarray(oracle.argmin, dtype=float), 2.0) for p in got)
        out.append((got, [str(w.message) for w in caught]))
    return out


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("eps", [0.05, 0.3, 2.0])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_ray_block_finds_the_per_point_radius(name, eps, seed):
    inst = ZOO[name]
    # a box around a feasible minimizer: the l1 ball of radius 0.8, the unit box
    lo, hi = {"hinge_l1ball_2d": (-1.0, 1.0), "lovasz_path4": (0.0, 1.0)}.get(name, (-4.0, 4.0))
    oracle = grid_min(inst, lo, hi, 9)
    (got, got_warned), (want, want_warned) = radii(inst, eps, oracle, ray_count=12, seed=seed)
    assert got_warned == want_warned
    if name in NOT_BITWISE:
        assert abs(got - want) <= 1e-12 * max(1.0, want)
    else:
        assert float(got).hex() == float(want).hex()


def test_ray_block_warns_once_per_unbounded_ray():
    # f(w) = |w_0| in two dimensions: the +/-w_1 axis rays never cross
    inst = piecewise_linear_erm(
        Dataset(sp.csr_matrix(np.array([[1.0, 0.0]])), np.array([0.0])), loss="absolute"
    )
    oracle = grid_min(inst, -1.0, 1.0, 5)
    (got, got_warned), (want, want_warned) = radii(inst, 0.5, oracle, ray_count=10, seed=1)
    assert got_warned == want_warned and len(got_warned) == 2
    assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("seed", [1, 20240603])
@pytest.mark.parametrize("n_pairs", [1, 10, 300])
def test_zoo_suite_reports_the_per_point_lines(n_pairs, seed):
    assert verify.zoo_suite(n_pairs, seed) == ref.zoo_suite(n_pairs, seed)


def faulty_zoo() -> dict:
    """Members that fail each certificate, with sound batch forms: a
    concave objective, a declared bound below the subgradient norm, and
    (last, since the per-point loop stops drawing at its first failure) a
    projection that is not idempotent."""
    zoo = dict(miniature_zoo())
    zoo["concave_1d"] = ProblemInstance(
        dim=1, objective=lambda w: -float(w[0] * w[0]), subgrad=lambda w: -2.0 * w,
        lipschitz_bound=8.0, name="concave_1d",
    )
    zoo["low_G"] = ProblemInstance(
        dim=2, objective=zoo["l1_2d"].objective, subgrad=zoo["l1_2d"].subgrad,
        lipschitz_bound=1.0, name="low_G",
    )
    zoo["drift"] = ProblemInstance(
        dim=2, objective=zoo["l1_2d"].objective, subgrad=zoo["l1_2d"].subgrad,
        lipschitz_bound=2.0, project=lambda w: np.asarray(w) * 0.5, name="drift",
    )
    return zoo


def test_zoo_suite_fails_as_the_per_point_loops_do(monkeypatch):
    zoo = faulty_zoo()
    monkeypatch.setattr(verify, "miniature_zoo", lambda: zoo)
    ok, lines = verify.zoo_suite(40, 11)
    assert not ok and (ok, lines) == ref.zoo_suite(40, 11, zoo=zoo)
    assert [line.split(" on ")[1].split()[0].rstrip(":") for line in lines[:-1]] == [
        "concave_1d", "low_G", "drift"
    ]
