"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import time

import numpy as np
import pytest

from bellkit.cli import main as cli_main
from bellkit.entropy import (
    bell_purity_bound,
    entropy_report,
    linear_entropy_criterion,
    von_neumann_entropy,
)
from bellkit.feasibility import (
    MarginalSet,
    contextuality_demo,
    joint_feasible,
)
from bellkit.hidden_vars import build_hv_model, verify_model
from bellkit.linalg import (
    hermitian_eigensystem,
    partial_trace,
    random_density,
    random_unitary,
    dagger,
)
from bellkit.scenario import (
    TSIRELSON_BOUND,
    BellScenario,
    bell_operator,
    direction_vector,
    maximize_violation,
    singlet_state,
    product00_state,
)
from bellkit.sweeps import (
    random_marginal_scenario,
    random_traceless_scenario,
    run_sweep,
)

CANONICAL_DIRECTIONS = {"a": [0, 0], "b": [45, 0], "c": [90, 0], "d": [135, 0]}


def canonical_singlet_scenario():
    dirs = [direction_vector(t) for t in (0.0, 45.0, 90.0, 135.0)]
    return BellScenario.from_directions(singlet_state(), *dirs)


def check(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_singlet_chsh_saturation(tmp_path, capsys):
    cfg = tmp_path / "chsh.json"
    cfg.write_text(json.dumps(
        {"schema": 1, "state": "singlet", "directions": CANONICAL_DIRECTIONS}))
    start = time.perf_counter()
    code = cli_main(["chsh", "--config", str(cfg)])
    elapsed = time.perf_counter() - start
    report = json.loads(capsys.readouterr().out)
    err = abs(report["results"]["abs_beta"] - TSIRELSON_BOUND)
    with capsys.disabled():
        check(1, "singlet CHSH saturation at canonical angles",
              code == 1 and err < 1e-9 and elapsed < 1.0,
              f"|beta| err {err:.1e}, exit {code}, {elapsed:.2f}s")


def _thousand_scenarios():
    dims_cycle = ((2, 2), (2, 4), (4, 4))
    for i in range(1000):
        m, n = dims_cycle[i % 3]
        yield random_traceless_scenario(m, n, 100 * i)


def test_criterion_02_bell_operator_trace_identities():
    start = time.perf_counter()
    worst_tr = worst_tr2 = 0.0
    for s in _thousand_scenarios():
        m, n = s.dims
        bm = bell_operator(s).matrix
        worst_tr = max(worst_tr, abs(float(np.trace(bm).real)))
        worst_tr2 = max(worst_tr2, abs(float(np.trace(bm @ bm).real) - 4.0 * m * n))
    elapsed = time.perf_counter() - start
    check(2, "Bell-operator trace identities over 1000 traceless scenarios",
          worst_tr < 1e-8 and worst_tr2 < 1e-8 and elapsed < 30.0,
          f"max|TrB| {worst_tr:.1e}, max|TrB^2-4MN| {worst_tr2:.1e}, {elapsed:.1f}s")


def test_criterion_03_tsirelson_by_spectrum():
    worst = -math.inf
    for s in _thousand_scenarios():
        w, _ = hermitian_eigensystem(bell_operator(s).matrix)
        worst = max(worst, max(abs(w[0]), abs(w[-1])))
    check(3, "Bell-operator spectrum within the Tsirelson bound",
          worst <= TSIRELSON_BOUND + 1e-9, f"max eigenvalue {worst:.12f}")


def test_criterion_04_hv_construction():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = worst_lin = 0.0
    for i in range(100):
        dim = (2, 4, 8)[i % 3]
        n_ops = 1 + i % 4
        state = random_density(dim, seed=3000 + i)
        u = random_unitary(dim, seed=4000 + i)
        ops = {}
        for k in range(n_ops):
            diag = rng.choice([-1.0, 0.5, 0.5, 2.0], size=dim)
            ops[f"O{k}"] = u @ np.diag(diag).astype(complex) @ dagger(u)
        model = build_hv_model(state, ops)
        rep = verify_model(model, state, ops)
        worst = max(worst, rep.max_error)
        worst_lin = max(worst_lin, rep.linearity_error)
    elapsed = time.perf_counter() - start
    check(4, "hidden-variable construction reproduces quantum statistics",
          worst < 1e-9 and worst_lin < 1e-9 and elapsed < 30.0,
          f"max_error {worst:.1e}, linearity {worst_lin:.1e}, {elapsed:.1f}s")


def test_criterion_05_fine_lp_equivalence():
    start = time.perf_counter()
    disagreements = 0
    worst_witness = 0.0
    infeasible_seen = 0
    for i in range(10_000):
        if i % 2 == 0:
            rng = np.random.default_rng(7_000_000 + i)
            q = rng.exponential(size=16)
            marginals = MarginalSet.of_joint(q / q.sum())
        else:
            marginals, _ = random_marginal_scenario(8_000_000 + i)
        verdict = joint_feasible(marginals)
        if verdict.feasible != verdict.fine_criterion:
            disagreements += 1
        if verdict.feasible:
            got = MarginalSet.of_joint(verdict.witness.weights)._asdict()
            worst_witness = max(
                worst_witness,
                max(abs(got[k] - v) for k, v in marginals._asdict().items()),
            )
        else:
            infeasible_seen += 1
    elapsed = time.perf_counter() - start
    check(5, "LP feasibility equals the four-CHSH criterion on 10000 marginal sets",
          disagreements == 0 and worst_witness < 1e-9 and infeasible_seen > 100 and elapsed < 60.0,
          f"disagreements {disagreements}, witness err {worst_witness:.1e}, "
          f"{infeasible_seen} infeasible, {elapsed:.1f}s")


def test_criterion_06_noncontextuality_disproof():
    report = contextuality_demo(canonical_singlet_scenario())
    fine_rejects = not report.verdict.fine_criterion
    lp_rejects = not report.verdict.feasible
    contexts_ok = all(
        v.max_error < 1e-9 and v.linearity_error < 1e-9
        for v in report.context_verifications.values()
    )
    check(6, "singlet canonical marginals: contexts model fine, joint distribution impossible",
          lp_rejects and fine_rejects and contexts_ok,
          f"feasible={report.verdict.feasible}, fine={report.verdict.fine_criterion}, "
          f"context errors {[f'{v.max_error:.1e}' for v in report.context_verifications.values()]}")


def test_criterion_07_entropy_contrast():
    rho = singlet_state()
    s12 = von_neumann_entropy(rho)
    s1 = von_neumann_entropy(partial_trace(rho, (2, 2), keep=1))
    s2 = von_neumann_entropy(partial_trace(rho, (2, 2), keep=2))
    report = entropy_report(rho, "von_neumann", dims=(2, 2))
    gap, triangle = report.monotonicity, report.triangle
    ok = (
        abs(s12) < 1e-10
        and abs(s1 - math.log(2)) < 1e-10
        and abs(s2 - math.log(2)) < 1e-10
        and gap < -0.5  # monotonicity analog clearly violated
        and abs(triangle) < 1e-10  # triangle inequality saturated
    )
    check(7, "singlet entropy contrast (zero joint, log 2 marginals, saturated triangle)",
          ok, f"S12 {s12:.1e}, S1-log2 {abs(s1 - math.log(2)):.1e}, triangle {triangle:.1e}")


def test_criterion_08_purity_bound_adversarial():
    start = time.perf_counter()
    worst = math.inf
    for i in range(10_000):
        worst = min(worst, bell_purity_bound(random_traceless_scenario(2, 2, 10 * i)))
    best = maximize_violation(singlet_state())
    s = BellScenario.from_directions(singlet_state(), *(best.directions[k] for k in "abcd"))
    optimized_slack = bell_purity_bound(s)
    elapsed = time.perf_counter() - start
    check(8, "purity bound on 10000 random draws plus the optimized singlet",
          worst >= -1e-9 and optimized_slack >= -1e-9 and elapsed < 60.0,
          f"min slack {worst:.2e}, optimized-singlet slack {optimized_slack:.3f}, {elapsed:.1f}s")


def test_criterion_09_linear_entropy_sufficiency():
    held = 0
    worst = math.inf
    attempts = 0
    while held < 1000 and attempts < 50_000:
        state = random_density(4, seed=5_000_000 + attempts)
        attempts += 1
        if not linear_entropy_criterion(state, (2, 2)).holds:
            continue
        held += 1
        worst = min(worst, 2.0 - maximize_violation(state).beta_max)
    check(9, "states passing the linear-entropy condition never violate CHSH",
          held == 1000 and worst >= -1e-6,
          f"{held} qualifying states, min (2 - beta_max) {worst:.2e}")


def test_criterion_10_property_suites():
    results = {}
    for name, samples in (
        ("concavity", 1000),
        ("subadditivity", 1000),
        ("classical-monotonicity", 10_000),
        ("araki-lieb", 10_000),
    ):
        _, results[name] = run_sweep(name, samples, seed=0)
    ok = all(v >= -1e-10 for v in results.values())
    check(10, "concavity / subadditivity / classical-monotonicity / quantum-triangle sweeps",
          ok, ", ".join(f"{k} min {v:.2e}" for k, v in results.items()))


def test_criterion_11_optimizer_fidelity():
    singlet_err = abs(maximize_violation(singlet_state()).beta_max - TSIRELSON_BOUND)
    product_err = abs(maximize_violation(product00_state()).beta_max - 2.0)
    check(11, "violation optimizer reaches the singlet and product extremes cold",
          singlet_err < 1e-6 and product_err < 1e-6,
          f"singlet err {singlet_err:.1e}, product err {product_err:.1e}")


def test_criterion_12_separation_estimate(capsys):
    code = cli_main(["epr-distance", "--L", "0.05", "--v", "2.9e3"])
    report = json.loads(capsys.readouterr().out)
    d = report["results"]["min_separation_m"]
    expected = 2 * 0.05 * 299_792_458.0 / 2.9e3
    with capsys.disabled():
        check(12, "spacelike-separation estimate lands in the kilometers range",
              code == 0 and abs(d - expected) < 1e-6 and 1e3 <= d <= 1e5,
              f"{d:.1f} m")
