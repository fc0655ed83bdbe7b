import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bellkit.cli
import bellkit.entropy
import bellkit.feasibility
import bellkit.hidden_vars
import bellkit.linalg
from bellkit.cli import build_parser, main
from bellkit.errors import CommutationError
from bellkit.hidden_vars import build_hv_model
from bellkit.linalg import CHSH_TOL, COMMUTE_TOL, DEFAULT_TOL, SLACK_TOL, DensityOperator, commutator, frobenius_norm
from bellkit.logic import Proposition, meet

CANONICAL_DIRECTIONS = {"a": [0, 0], "b": [45, 0], "c": [90, 0], "d": [135, 0]}
PAULI_Z = [[1, 0], [0, -1]]


def diag(*values):
    return [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse(out):
    return json.loads(out)


def parse_strict(out):
    """Parse stdout as strict JSON: NaN and Infinity are rejected."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(out, parse_constant=reject)


class TestChsh:
    def test_singlet_canonical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "singlet", "directions": CANONICAL_DIRECTIONS})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 1
        report = parse(out)
        assert report["results"]["abs_beta"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert not report["results"]["classical_bound_satisfied"]

    def test_product_state_classical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "product00", "directions": CANONICAL_DIRECTIONS})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 0
        assert parse(out)["results"]["classical_bound_satisfied"]

    def test_explicit_observable_matrices(self, tmp_path, capsys):
        z = [[1, 0], [0, -1]]
        x = [[0, 1], [1, 0]]
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "mixed",
                            "observables": {"a": z, "b": x, "c": x, "d": z}})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 0
        assert parse(out)["results"]["beta"] == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [3e-10, 5e-10, 7e-10])
    def test_observables_past_the_plus_minus_one_rule_are_input_errors(self, tmp_path, capsys, eps):
        # diag(1+eps, -1-eps) misses x^2 = I by 2 sqrt(2) eps > CHSH_TOL/4. Accepted, it read
        # beta = 2 + 4 eps on a product state as a violation, or failed the correlation check later.
        cfg = write_config(tmp_path, "c.json", {"schema": 1, "state": "product00",
                                                "observables": dict.fromkeys("abcd", diag(1 + eps, -1 - eps))})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 2
        assert parse_strict(out) == {
            "error": "chsh.observables: observable a does not square to the identity within tolerance"}

    def test_observables_just_inside_the_rule_keep_a_product_state_classical(self, tmp_path, capsys):
        lam = math.sqrt(1 + 0.99 * CHSH_TOL / (4 * math.sqrt(2)))  # |x^2 - I| = 0.99 CHSH_TOL/4
        cfg = write_config(tmp_path, "c.json", {"schema": 1, "state": "product00",
                                                "observables": dict.fromkeys("abcd", diag(lam, -lam))})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 0
        results = parse_strict(out)["results"]
        assert results["classical_bound_satisfied"] is True
        assert results["beta"] == pytest.approx(2 * lam * lam, abs=1e-15)  # 2.00000000035

    def test_determinism_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "werner:0.7", "directions": CANONICAL_DIRECTIONS})
        first = run_cli(capsys, "chsh", "--config", cfg)
        second = run_cli(capsys, "chsh", "--config", cfg)
        assert first == second
        assert first[0] == 0 and parse_strict(first[1])["command"] == "chsh"  # |beta| = 0.7 * 2 sqrt 2 < 2


class TestFeasibility:
    def test_scenario_infeasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "f.json",
                           {"schema": 1, "state": "singlet",
                            "directions": CANONICAL_DIRECTIONS, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 1
        r = parse(out)["results"]
        assert not r["feasible"] and not r["fine_criterion"]
        assert r["witness"] is None
        assert max(abs(v) for v in r["chsh_values"]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert all(v["max_error"] < 1e-9 for v in r["contexts"].values())

    def test_explicit_marginals_feasible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "f.json",
                           {"schema": 1, "marginals": {
                               "p_a": 0.5, "p_b": 0.5, "p_c": 0.5, "p_d": 0.5,
                               "p_ab": 0.25, "p_ad": 0.25, "p_bc": 0.25, "p_cd": 0.25}})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 0
        r = parse(out)["results"]
        assert r["feasible"]
        assert sum(r["witness"]) == pytest.approx(1.0, abs=1e-12)

    def test_inconsistent_marginals_are_input_errors(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "f.json",
                           {"schema": 1, "marginals": {
                               "p_a": 0.2, "p_b": 0.5, "p_c": 0.5, "p_d": 0.5,
                               "p_ab": 0.4, "p_ad": 0.1, "p_bc": 0.25, "p_cd": 0.25}})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 2
        assert "error" in parse(out)

    @pytest.mark.parametrize("bad", ['"0.5"', "true", "NaN", "Infinity", "1e999", "null"])
    def test_non_numeric_or_non_finite_marginals_rejected(self, tmp_path, capsys, bad):
        fields = {"p_a": "0.5", "p_b": "0.5", "p_c": "0.5", "p_d": "0.5",
                  "p_ab": "0.25", "p_ad": "0.25", "p_bc": "0.25", "p_cd": bad}
        body = ", ".join(f'"{k}": {v}' for k, v in fields.items())
        path = tmp_path / "f.json"
        path.write_text('{"schema": 1, "marginals": {' + body + "}}")
        code, out = run_cli(capsys, "feasibility", "--config", str(path))
        assert code == 2
        assert parse(out)["error"].startswith("feasibility.marginals: marginal p_cd")


    def test_contexts_request_solves_the_lp_once(self, tmp_path, capsys, monkeypatch):
        solved = []

        def counting(m):
            solved.append(m)
            return joint_feasible(m)

        joint_feasible = bellkit.feasibility.joint_feasible
        monkeypatch.setattr(bellkit.feasibility, "joint_feasible", counting)
        monkeypatch.setattr(bellkit.cli, "joint_feasible", counting)
        cfg = write_config(tmp_path, "f.json", {"schema": 1, "state": "singlet",
                                                "directions": CANONICAL_DIRECTIONS, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 1
        assert parse_strict(out)["results"]["all_commuting"] is False
        assert len(solved) == 1

    def test_contexts_request_computes_the_marginals_once(self, tmp_path, capsys, monkeypatch):
        computed = []

        def counting(s):
            computed.append(s)
            return marginals_from_scenario(s)

        marginals_from_scenario = bellkit.feasibility.marginals_from_scenario
        monkeypatch.setattr(bellkit.feasibility, "marginals_from_scenario", counting)
        monkeypatch.setattr(bellkit.cli, "marginals_from_scenario", counting)
        cfg = write_config(tmp_path, "f.json", {"schema": 1, "state": "singlet",
                                                "directions": CANONICAL_DIRECTIONS, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 1
        assert parse_strict(out)["results"]["all_commuting"] is False
        assert len(computed) == 1

    def test_contexts_request_checks_each_operator_hermitian_once(self, tmp_path, capsys, monkeypatch):
        # Two context models of two operators; the restricted blocks the joint
        # eigenbasis solves are not checked again, and the commutation test of
        # all four lifts checks none.
        checked = []
        is_hermitian = bellkit.linalg.is_hermitian

        def counting(m):
            checked.append(m.shape)
            return is_hermitian(m)

        monkeypatch.setattr(bellkit.linalg, "is_hermitian", counting)
        monkeypatch.setattr(bellkit.hidden_vars, "is_hermitian", counting)
        cfg = write_config(tmp_path, "f.json", {"schema": 1, "state": "singlet",
                                                "directions": CANONICAL_DIRECTIONS, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 1
        assert parse_strict(out)["results"]["all_commuting"] is False
        assert checked == [(4, 4)] * 4

    def test_commuting_contexts_need_no_model_of_all_four(self, tmp_path, capsys):
        # a = b = I, c = X, d = Z commute once lifted. The accepted state has eigenvalue -1e-9 on |+0>, an
        # atom only the joint basis of all four has; whether they commute is read without a model on it.
        e = 1e-9
        rho = [[0.25 - e / 2, 0, -0.25 - e / 2, 0], [0, 0.5, 0, 0], [-0.25 - e / 2, 0, 0.25 - e / 2, 0], [0, 0, 0, e]]
        eye = diag(1, 1)
        payload = {"schema": 1, "state": {"matrix": rho},
                   "observables": {"a": eye, "b": eye, "c": [[0, 1], [1, 0]], "d": PAULI_Z}}
        plain = write_config(tmp_path, "plain.json", payload)
        contexts = write_config(tmp_path, "contexts.json", {**payload, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", plain)
        code_contexts, out_contexts = run_cli(capsys, "feasibility", "--config", contexts)
        assert code == code_contexts == 0
        results = parse_strict(out_contexts)["results"]
        assert results["all_commuting"] is True
        del results["contexts"], results["all_commuting"]
        assert results == parse_strict(out)["results"]

    def test_contexts_accept_a_scenario_the_request_accepts(self, tmp_path, capsys):
        # a has Hermitian residual 0.9e-9 <= DEFAULT_TOL; lifted to a (x) I it
        # would be 0.9e-9 * sqrt(2) > DEFAULT_TOL.
        a = [[1, 0.9e-9 / math.sqrt(2)], [0, -1]]
        x = [[0, 1], [1, 0]]
        payload = {"schema": 1, "state": "singlet", "observables": {"a": a, "b": PAULI_Z, "c": x, "d": x}}
        plain = write_config(tmp_path, "plain.json", payload)
        contexts = write_config(tmp_path, "contexts.json", {**payload, "contexts": True})
        code, out = run_cli(capsys, "feasibility", "--config", plain)
        code_contexts, out_contexts = run_cli(capsys, "feasibility", "--config", contexts)
        assert code in (0, 1)
        assert code_contexts == code
        results = parse_strict(out_contexts)["results"]
        assert results["all_commuting"] is False
        assert all(v["max_error"] < 1e-9 for v in results["contexts"].values())
        del results["contexts"], results["all_commuting"]
        assert results == parse_strict(out)["results"]


class TestHv:
    def test_model_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "h.json", {
            "schema": 1, "state": "singlet",
            "observables": [
                {"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
                {"label": "z2", "matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]},
            ]})
        csv_path = tmp_path / "model.csv"
        code, out = run_cli(capsys, "hv", "--config", cfg, "--csv", str(csv_path))
        assert code == 0
        r = parse(out)["results"]
        assert r["max_error"] < 1e-9
        assert sorted(r["weights"]) == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-9)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "atom,weight,z1,z2"
        assert len(lines) == 5

    def test_state_trace_within_tolerance_gives_a_model(self, tmp_path, capsys):
        # Trace 1 + 5e-10: the weights sum to that, within the state's own check.
        cfg = write_config(tmp_path, "h.json", {
            "schema": 1,
            "state": {"matrix": [[0.2500000001, 0, 0, 0], [0, 0.2500000001, 0, 0],
                                 [0, 0, 0.2500000001, 0], [0, 0, 0, 0.2500000002]]},
            "observables": [{"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}]})
        code, out = run_cli(capsys, "hv", "--config", cfg)
        assert code == 0
        assert parse_strict(out)["results"]["atoms"] == ["(-1)", "(-1)#1", "(+1)", "(+1)#1"]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_state_trace_bound(self, tmp_path, capsys, sign, factor):
        # DensityOperator's trace check at 0.75x and 1.5x DEFAULT_TOL either side of 1, so that moving it 2x
        # either way flips one of the pair: I/4 with each diagonal entry shifted by sign * factor * DEFAULT_TOL / 4.
        entry = 0.25 + sign * factor * DEFAULT_TOL / 4.0
        cfg = write_config(tmp_path, "h.json", {
            "schema": 1, "state": {"matrix": diag(entry, entry, entry, entry)},
            "observables": [{"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}]})
        code, out = run_cli(capsys, "hv", "--config", cfg)
        if factor < 1:
            assert code == 0
            assert sum(parse_strict(out)["results"]["weights"]) == pytest.approx(4.0 * entry, abs=1e-15)
        else:
            assert code == 2
            assert "density operator trace is" in parse_strict(out)["error"]

    def test_non_commuting_is_input_error(self, tmp_path, capsys):
        # z and x on the same qubit
        cfg = write_config(tmp_path, "h.json", {
            "schema": 1, "state": "mixed",
            "observables": [
                {"label": "a", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
                {"label": "b", "matrix": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]},
            ]})
        code, out = run_cli(capsys, "hv", "--config", cfg)
        assert code == 2


HV_CONFIG = {"schema": 1, "state": "singlet", "observables": [
    {"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
    {"label": "z2", "matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]}]}
SWEEP_CONFIG = {"schema": 1, "property": "fine-equivalence", "samples": 4}
#: A request per CSV command that passes the config checks and fails in its computation, and its error.
FAILING_CONFIGS = {
    "hv": ({"schema": 1, "state": "mixed", "observables": [
        {"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
        {"label": "x1", "matrix": [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]]}]}, "hv.observables: "),
    "sweep": ({"schema": 1, "property": "bell-traces", "samples": 2, "dims_list": [[3, 3]]},
              "sweep: a balanced +-1 spectrum requires even dimension"),
}


class TestCsvOutput:
    """A CSV is rewritten in place: the bytes of a fresh write, on the same file."""

    @staticmethod
    def write(capsys, tmp_path, target, command="hv"):
        cfg = write_config(tmp_path, "c.json", HV_CONFIG if command == "hv" else SWEEP_CONFIG)
        code, out = run_cli(capsys, command, "--config", cfg, "--csv", str(target))
        parse_strict(out)
        return code

    @pytest.mark.parametrize("command", ["hv", "sweep"])
    def test_a_shorter_rewrite_leaves_exactly_the_new_bytes_on_the_same_file(self, tmp_path, capsys, command):
        fresh, target = tmp_path / "fresh.csv", tmp_path / "model.csv"
        assert self.write(capsys, tmp_path, fresh, command) == 0
        target.write_bytes(b"junk," * 1000)
        inode = os.stat(target).st_ino
        assert self.write(capsys, tmp_path, target, command) == 0
        assert target.read_bytes() == fresh.read_bytes()
        assert os.stat(target).st_ino == inode

    def test_a_symlink_is_written_through_and_kept(self, tmp_path, capsys):
        fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
        self.write(capsys, tmp_path, fresh)
        target.write_bytes(b"x" * 4096)
        link.symlink_to(target)
        assert self.write(capsys, tmp_path, link) == 0
        assert link.is_symlink()
        assert target.read_bytes() == fresh.read_bytes()

    def test_permission_bits_are_those_of_open_for_writing(self, tmp_path, capsys):
        reference, target = tmp_path / "reference.csv", tmp_path / "model.csv"
        with open(reference, "w"):
            pass
        self.write(capsys, tmp_path, target)
        assert stat.S_IMODE(os.stat(target).st_mode) == stat.S_IMODE(os.stat(reference).st_mode)
        os.chmod(target, 0o600)
        self.write(capsys, tmp_path, target)
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o600

    def test_dev_null_is_written(self, tmp_path, capsys):
        assert self.write(capsys, tmp_path, os.devnull) == 0

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_fifo_is_written(self, tmp_path, capsys):
        fresh, fifo = tmp_path / "fresh.csv", tmp_path / "pipe"
        self.write(capsys, tmp_path, fresh)
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert self.write(capsys, tmp_path, fifo) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [fresh.read_bytes()]

    @pytest.mark.parametrize("command", ["hv", "sweep"])
    @pytest.mark.parametrize("where", ["directory", "missing directory"])
    def test_an_unwritable_path_is_an_input_error(self, tmp_path, capsys, command, where):
        target = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "x.csv"
        cfg = write_config(tmp_path, "c.json", HV_CONFIG if command == "hv" else SWEEP_CONFIG)
        code = main([command, "--config", cfg, "--csv", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert parse_strict(captured.out)["error"].startswith(f"cannot write CSV {target}: ")
        assert captured.err.count("\n") == 1 and captured.err.startswith("bellkit: error: cannot write CSV")

    @pytest.mark.parametrize("command, computation", [("hv", "build_hv_model"), ("sweep", "run_sweep")])
    def test_an_unwritable_path_is_rejected_before_the_computation(self, tmp_path, capsys, monkeypatch,
                                                                   command, computation):
        calls = []
        monkeypatch.setattr(bellkit.cli, computation, lambda *args, **kwargs: calls.append(args))
        cfg = write_config(tmp_path, "c.json", HV_CONFIG if command == "hv" else SWEEP_CONFIG)
        code, out = run_cli(capsys, command, "--config", cfg, "--csv", str(tmp_path))
        assert code == 2 and calls == []
        assert parse_strict(out)["error"].startswith(f"cannot write CSV {tmp_path}: ")

    @pytest.mark.parametrize("command", ["hv", "sweep"])
    def test_a_config_error_comes_before_the_csv_error(self, tmp_path, capsys, command):
        config = {**(HV_CONFIG if command == "hv" else SWEEP_CONFIG), "colour": "red"}
        code, out = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", config),
                            "--csv", str(tmp_path))
        assert code == 2
        assert parse_strict(out)["error"] == f"{command}.colour: unknown field"

    @pytest.mark.parametrize("command", ["hv", "sweep"])
    def test_the_csv_error_comes_before_a_computation_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "c.json", FAILING_CONFIGS[command][0])
        code, out = run_cli(capsys, command, "--config", cfg, "--csv", str(tmp_path))
        assert code == 2
        assert parse_strict(out)["error"].startswith(f"cannot write CSV {tmp_path}: ")

    @pytest.mark.parametrize("command", ["hv", "sweep"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failed_request_leaves_no_new_file_and_an_old_one_unchanged(self, tmp_path, capsys, command,
                                                                          existing):
        config, error = FAILING_CONFIGS[command]
        cfg, target = write_config(tmp_path, "c.json", config), tmp_path / "new.csv"
        if existing:
            target.write_bytes(b"old,bytes\r\n")
        code, out = run_cli(capsys, command, "--config", cfg, "--csv", str(target))
        assert code == 2
        assert parse_strict(out)["error"].startswith(error)
        assert sorted(os.listdir(tmp_path)) == (["c.json", "new.csv"] if existing else ["c.json"])
        if existing:
            assert target.read_bytes() == b"old,bytes\r\n"

    def test_a_failed_request_through_a_dangling_symlink_leaves_no_target(self, tmp_path, capsys):
        config, error = FAILING_CONFIGS["hv"]
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        code, out = run_cli(capsys, "hv", "--config", write_config(tmp_path, "c.json", config), "--csv", str(link))
        assert code == 2
        assert parse_strict(out)["error"].startswith(error)
        assert link.is_symlink() and not target.exists()


class TestEntropy:
    def test_reductions_of_an_accepted_state_are_computed(self, tmp_path, capsys):
        # Hermitian residual 0.9e-9, accepted; its side-1 reduction carries 1.27e-9.
        matrix = [[0.25, 0, 4.5e-10, 0], [0, 0.25, 0, 4.5e-10], [0, 0, 0.25, 0], [0, 0, 0, 0.25]]
        cfg = write_config(tmp_path, "e.json", {"schema": 1, "state": {"matrix": matrix},
                                                "dims": [2, 2], "kind": "von_neumann"})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 0
        assert parse_strict(out)["results"]["entropic_condition_holds"]

    def test_singlet_quantum(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "state": "singlet", "dims": [2, 2], "kind": "von_neumann"})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 1  # quantum monotonicity analog fails on the singlet
        r = parse(out)["results"]
        assert r["entropies"]["s12"] == pytest.approx(0.0, abs=1e-10)
        assert r["entropies"]["s1"] == pytest.approx(math.log(2), abs=1e-10)
        assert r["triangle_slack"] == pytest.approx(0.0, abs=1e-10)
        assert not r["linear_entropy_condition"]["holds"]

    def test_base_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "state": "mixed", "dims": [2, 2], "kind": "von_neumann"})
        code, out = run_cli(capsys, "entropy", "--config", cfg, "--base", "2")
        assert code == 0
        assert parse(out)["results"]["entropies"]["s12"] == pytest.approx(2.0, abs=1e-10)

    def test_classical_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "kind": "shannon",
                            "classical": {"weights": [0.25, 0.25, 0.25, 0.25], "dims": [2, 2]}})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 0
        r = parse(out)["results"]
        assert r["monotonicity_slack"] == pytest.approx(math.log(2), abs=1e-10)

    def test_kind_mismatch_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "kind": "von_neumann",
                            "classical": {"weights": [1.0], "dims": [1, 1]}})
        code, _ = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("dims", [["a", "b"], [True, 2], [2], [2, 2, 1], [0, 2], [2.0, 2], [8, 9], "22"])
    def test_malformed_dims_are_input_errors(self, tmp_path, capsys, dims):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "state": "singlet", "dims": dims, "kind": "von_neumann"})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 2
        assert parse(out)["error"].startswith("entropy.dims")

    @pytest.mark.parametrize("dims", [["a", "b"], [False, 4], [2, -2]])
    def test_malformed_classical_dims_are_input_errors(self, tmp_path, capsys, dims):
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "kind": "shannon",
                            "classical": {"weights": [0.25, 0.25, 0.25, 0.25], "dims": dims}})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code == 2
        assert parse(out)["error"].startswith("entropy.classical.dims")


    @pytest.mark.parametrize("kind, extra", [
        ("von_neumann", {}),
        ("linear_quantum", {"directions": CANONICAL_DIRECTIONS}),
    ])
    def test_each_von_neumann_entropy_evaluated_once(self, tmp_path, capsys, monkeypatch, kind, extra):
        evaluated = []

        def counting(p, base):
            evaluated.append(base)
            return entropy_of_probs(p, base)

        entropy_of_probs = bellkit.entropy._entropy_of_probs
        monkeypatch.setattr(bellkit.entropy, "_entropy_of_probs", counting)
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "state": "werner:0.3", "dims": [2, 2], "kind": kind, **extra})
        code, out = run_cli(capsys, "entropy", "--config", cfg, "--base", "2")
        assert code == 0
        assert evaluated == ["2"] * 3


    @pytest.mark.parametrize("state, scenario, checked", [
        # A pure preset derives from a checked vector, and werner:<w> mixes two valid states: no check runs.
        ("singlet", {"directions": CANONICAL_DIRECTIONS}, 0),
        ("product00", {"observables": dict.fromkeys("abcd", PAULI_Z)}, 0),
        ("werner:0.5", {"directions": CANONICAL_DIRECTIONS}, 0),
        ({"matrix": diag(0.25, 0.25, 0.25, 0.25)}, {"observables": dict.fromkeys("abcd", PAULI_Z)}, 1),
    ])
    def test_a_scenario_request_builds_its_state_once(self, tmp_path, capsys, monkeypatch, state, scenario,
                                                      checked):
        built = []
        init = bellkit.linalg.DensityOperator.__init__

        def counting(self, matrix):
            built.append(matrix)
            init(self, matrix)

        monkeypatch.setattr(bellkit.linalg.DensityOperator, "__init__", counting)
        cfg = write_config(tmp_path, "e.json", {"schema": 1, "state": state, "dims": [2, 2],
                                                "kind": "von_neumann", **scenario})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        assert code in (0, 1)
        assert "purity_bound_slack" in parse_strict(out)["results"]
        assert len(built) == checked


class TestSweep:
    def test_pass_and_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "product-beta", "samples": 20})
        csv_path = tmp_path / "rows.csv"
        code, out = run_cli(capsys, "sweep", "--config", cfg, "--csv", str(csv_path))
        assert code == 0
        r = parse(out)["results"]
        assert r["pass"] and r["rows"] == 20
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "seed,kind,slack"
        assert len(lines) == 21

    def test_unknown_property(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "nope", "samples": 5})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert parse_strict(out)["error"].startswith("sweep.property: unknown sweep 'nope'")

    @pytest.mark.parametrize("property_, field, value", [
        ("purity-bound", "dims", [2, 2]),
        ("fine-equivalence", "dim", 4),
        ("sufficiency", "dims_list", [[2, 2]]),
        ("araki-lieb", "dim", 4),
    ])
    def test_parameter_the_property_does_not_take(self, tmp_path, capsys, property_, field, value):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": property_, "samples": 1, field: value})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert parse_strict(out)["error"] == f"sweep.{field}: not accepted by property '{property_}'"

    def test_numpy_valued_sweep_reports_strict_json(self, tmp_path, capsys):
        # tsirelson's slacks are numpy floats; its pass flag must still encode.
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "tsirelson", "samples": 3})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert parse_strict(out)["results"]["pass"] is True

    def test_inapplicable_parameter_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "product-beta", "samples": 5, "dims": [2, 2]})
        code, _ = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("samples", [0, -3])
    def test_non_positive_samples_rejected(self, tmp_path, capsys, samples):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "concavity", "samples": samples})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert parse(out)["error"].startswith("sweep.samples")

    @pytest.mark.parametrize("property_, field, value", [
        ("araki-lieb", "dims", [0, 2]),
        ("araki-lieb", "dims", [True, 2]),
        ("araki-lieb", "dims", ["a", 2]),
        ("araki-lieb", "dims", [2]),
        ("araki-lieb", "dims", [16, 16]),
        ("concavity", "dim", 0),
        ("concavity", "dim", True),
        ("concavity", "dim", 65),
        ("bell-traces", "dims_list", [[2]]),
        ("bell-traces", "dims_list", [[2, 2], [0, 2]]),
        ("bell-traces", "dims_list", []),
    ])
    def test_malformed_dimensions_name_their_field(self, tmp_path, capsys, property_, field, value):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": property_, "samples": 2, field: value})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert parse_strict(out)["error"].startswith(f"sweep.{field}")

    def test_sufficiency(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json", {"schema": 1, "property": "sufficiency", "samples": 3})
        code, out = run_cli(capsys, "sweep", "--config", cfg)
        assert code == 0
        r = parse_strict(out)["results"]
        assert (r["pass"], r["rows"], r["tolerance"]) == (True, 3, 1e-06)

    def test_a_negative_seed_names_its_field_before_the_csv_opens(self, tmp_path, capsys):
        # Once numpy's "sweep: expected non-negative integer", raised after the CSV was opened. The CSV path is
        # a directory, so the seed's error shows that the seed is checked first.
        cfg = write_config(tmp_path, "s.json", {"schema": 1, "property": "araki-lieb", "samples": 2})
        code, out = run_cli(capsys, "sweep", "--config", cfg, "--seed", "-1", "--csv", str(tmp_path))
        assert code == 2
        assert out == json.dumps({"error": "sweep.seed: expected a non-negative integer, got -1"}) + "\n"

    def test_seed_changes_rows_not_verdict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "s.json",
                           {"schema": 1, "property": "araki-lieb", "samples": 10})
        _, out1 = run_cli(capsys, "sweep", "--config", cfg, "--seed", "1")
        _, out2 = run_cli(capsys, "sweep", "--config", cfg, "--seed", "501")
        r1, r2 = parse(out1)["results"], parse(out2)["results"]
        assert r1["min_slack"] != r2["min_slack"]
        assert r1["pass"] and r2["pass"]


class TestLogic:
    def test_quad_violation(self, tmp_path, capsys):
        def up(theta):
            t = math.radians(theta)
            n = [math.sin(t), 0.0, math.cos(t)]
            m = [[(1 + n[2]) / 2, (n[0] - 1j * n[1]) / 2], [(n[0] + 1j * n[1]) / 2, (1 - n[2]) / 2]]
            return m

        def side1(m):
            return [[m[0][0], 0, m[0][1], 0], [0, m[0][0], 0, m[0][1]],
                    [m[1][0], 0, m[1][1], 0], [0, m[1][0], 0, m[1][1]]]

        def side2(m):
            return [[m[0][0], m[0][1], 0, 0], [m[1][0], m[1][1], 0, 0],
                    [0, 0, m[0][0], m[0][1]], [0, 0, m[1][0], m[1][1]]]

        def encode(m):
            return [[[z.real, z.imag] for z in map(complex, row)] for row in m]

        cfg = write_config(tmp_path, "l.json", {
            "schema": 1, "state": "singlet",
            "propositions": [
                {"label": "A", "matrix": encode(side1(up(0)))},
                {"label": "B", "matrix": encode(side2(up(45)))},
                {"label": "C", "matrix": encode(side1(up(90)))},
                {"label": "D", "matrix": encode(side2(up(135)))},
            ],
            "checks": [
                {"type": "distance", "pair": ["A", "B"]},
                {"type": "quad", "quad": ["A", "B", "C", "D"]},
            ]})
        code, out = run_cli(capsys, "logic", "--config", cfg)
        assert code == 1
        checks = parse(out)["results"]["checks"]
        assert checks[0]["d"] == pytest.approx((1 + math.cos(math.radians(45))) / 2, abs=1e-10)
        assert not checks[1]["holds"]
        assert checks[1]["slack"] == pytest.approx(-(2 * math.sqrt(2) - 2) / 2, abs=1e-9)

    def test_near_commuting_pair_is_computed(self, tmp_path, capsys):
        # ||[A, B]|| is about 4e-9, inside the commutation tolerance; the
        # request once exited 2 naming the proposition '(A&B)'.
        t = 3e-9
        c, s = math.cos(t), math.sin(t)
        cfg = write_config(tmp_path, "l.json", {
            "schema": 1, "state": "singlet",
            "propositions": [
                {"label": "A", "matrix": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]},
                {"label": "B", "matrix": [[c * c, c * s, 0, 0], [s * c, s * s, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 0]]},
            ],
            "checks": [
                {"type": "distance", "pair": ["A", "B"]},
                {"type": "triangle", "triple": ["A", "B", "A"]},
                {"type": "quad", "quad": ["A", "B", "A", "B"]},
            ]})
        code, out = run_cli(capsys, "logic", "--config", cfg)
        assert code == 0
        checks = parse_strict(out)["results"]["checks"]
        assert checks[0]["d"] == 0.0 and checks[1]["holds"] and checks[2]["holds"]

    def test_unknown_label_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "l.json", {
            "schema": 1, "state": "mixed",
            "propositions": [{"label": "A", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}],
            "checks": [{"type": "distance", "pair": ["A", "Z"]}]})
        code, _ = run_cli(capsys, "logic", "--config", cfg)
        assert code == 2


class TestCommutationBounds:
    """Both commutation checks at half and at twice COMMUTE_TOL, directly and through the commands that reach
    them. With b = cos t Z + sin t X, ||[Z, b]||_F = 2 sqrt(2) sin t; for P = (I + Z)/2 and Q = (I + b)/2,
    ||[P, Q]||_F = sin t / sqrt(2). A lift to a side of a 2 x 2 scenario multiplies a norm by sqrt(2)."""

    @staticmethod
    def rotated_z(sin_t: float) -> list[list[float]]:
        cos_t = math.sqrt(1.0 - sin_t * sin_t)
        return [[cos_t, sin_t], [sin_t, -cos_t]]

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_hidden_variable_family(self, tmp_path, capsys, factor):
        b = self.rotated_z(factor * COMMUTE_TOL / (2 * math.sqrt(2)))
        norm = frobenius_norm(commutator(np.array(PAULI_Z, dtype=complex), np.array(b, dtype=complex)))
        assert norm == pytest.approx(factor * COMMUTE_TOL, rel=1e-6)
        half = [[0.5, 0], [0, 0.5]]
        cfg = write_config(tmp_path, "h.json", {"schema": 1, "state": {"matrix": half}, "observables": [
            {"label": "z", "matrix": PAULI_Z}, {"label": "b", "matrix": b}]})
        code, out = run_cli(capsys, "hv", "--config", cfg)
        ops = {"z": np.array(PAULI_Z, dtype=complex), "b": np.array(b, dtype=complex)}
        if factor < 1:
            assert code == 0
            build_hv_model(DensityOperator(np.array(half)), ops)
        else:
            assert code == 2 and "hv.observables: operators 0 and 1 do not commute" in parse(out)["error"]
            with pytest.raises(CommutationError):
                build_hv_model(DensityOperator(np.array(half)), ops)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_all_commuting_of_a_scenario(self, tmp_path, capsys, factor):
        c = self.rotated_z(factor * COMMUTE_TOL / 4)
        cfg = write_config(tmp_path, "f.json", {"schema": 1, "state": "mixed", "contexts": True,
                                                "observables": {"a": PAULI_Z, "b": PAULI_Z, "c": c, "d": PAULI_Z}})
        code, out = run_cli(capsys, "feasibility", "--config", cfg)
        assert code == 0
        assert parse(out)["results"]["all_commuting"] is (factor < 1)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_proposition_pair(self, tmp_path, capsys, factor):
        b = np.array(self.rotated_z(factor * COMMUTE_TOL * math.sqrt(2)))
        p, q = (np.eye(2) + np.array(PAULI_Z)) / 2, (np.eye(2) + b) / 2
        assert frobenius_norm(commutator(p, q)) == pytest.approx(factor * COMMUTE_TOL, rel=1e-6)
        cfg = write_config(tmp_path, "l.json", {
            "schema": 1, "state": {"matrix": [[0.5, 0], [0, 0.5]]},
            "propositions": [{"label": "P", "matrix": p.tolist()}, {"label": "Q", "matrix": q.tolist()}],
            "checks": [{"type": "distance", "pair": ["P", "Q"]}]})
        code, out = run_cli(capsys, "logic", "--config", cfg)
        if factor < 1:
            assert code == 0
            meet(Proposition("P", p), Proposition("Q", q))
        else:
            assert code == 2 and "meet requires commuting projectors 'P', 'Q'" in parse(out)["error"]
            with pytest.raises(CommutationError):
                meet(Proposition("P", p), Proposition("Q", q))


class TestChshBounds:
    """The three readings of the CHSH bound, each through its command at 0.75x and at 1.5x its tolerance past
    the classical edge, so that moving a bound 2x either way flips one of the pair. With the Werner weight w at
    canonical angles |beta| = 2 sqrt(2) w and the quad slack is (2 - |beta|)/2 = 1 - sqrt(2) w; a PR-box mixture
    of weight 1/2 + delta has |CHSH| = 2 + 4 delta."""

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_chsh_verdict(self, tmp_path, capsys, factor):
        w = (2.0 + factor * CHSH_TOL) / (2.0 * math.sqrt(2.0))
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": f"werner:{w!r}", "directions": CANONICAL_DIRECTIONS})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        results = parse_strict(out)["results"]
        assert results["abs_beta"] == pytest.approx(2.0 + factor * CHSH_TOL, abs=1e-14)
        assert code == (0 if factor < 1 else 1)
        assert results["classical_bound_satisfied"] is (factor < 1)

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_fine_criterion(self, tmp_path, capsys, factor):
        w = 0.5 + factor * CHSH_TOL / 4.0
        sign = {"p_ab": 1.0, "p_bc": 1.0, "p_cd": 1.0, "p_ad": -1.0}
        marginals = {f: 0.5 for f in ("p_a", "p_b", "p_c", "p_d")}
        marginals.update({f: (1.0 + w * s) / 4.0 for f, s in sign.items()})
        cfg = write_config(tmp_path, "f.json", {"schema": 1, "marginals": marginals})
        _, out = run_cli(capsys, "feasibility", "--config", cfg)
        results = parse_strict(out)["results"]
        # The exit code is the LP's verdict, which ROADMAP item 1 has yet to make exact here.
        assert max(map(abs, results["chsh_values"])) == pytest.approx(2.0 + factor * CHSH_TOL, abs=1e-14)
        assert results["fine_criterion"] is (factor < 1)

    @staticmethod
    def lifted_projector(theta_deg: float, side: int) -> list[list[float]]:
        t = math.radians(theta_deg)
        p = (np.eye(2) + math.sin(t) * np.array([[0, 1], [1, 0]]) + math.cos(t) * np.array(PAULI_Z)) / 2
        return (np.kron(p, np.eye(2)) if side == 1 else np.kron(np.eye(2), p)).tolist()

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_quad_verdict(self, tmp_path, capsys, factor):
        w = (1.0 + factor * SLACK_TOL) / math.sqrt(2.0)
        props = [{"label": label, "matrix": self.lifted_projector(theta, side)}
                 for label, theta, side in (("A", 0, 1), ("B", 45, 2), ("C", 90, 1), ("D", 135, 2))]
        cfg = write_config(tmp_path, "l.json", {"schema": 1, "state": f"werner:{w!r}", "propositions": props,
                                                "checks": [{"type": "quad", "quad": ["A", "B", "C", "D"]}]})
        code, out = run_cli(capsys, "logic", "--config", cfg)
        (check,) = parse_strict(out)["results"]["checks"]
        assert check["slack"] == pytest.approx(-factor * SLACK_TOL, abs=1e-14)
        assert code == (0 if factor < 1 else 1)
        assert check["holds"] is (factor < 1)


class TestEntropyBound:
    """The entropic verdict at 0.75x and 1.5x SLACK_TOL past its edge, so that moving either reading of the
    bound 2x either way flips one of the pair. A Werner state of weight w has reductions I/2 and spectrum
    (1 + 3w)/4 once and (1 - w)/4 three times, so its monotonicity gap S(12) - ln 2 has a closed form, which
    bisection sets to -0.75 and -1.5 SLACK_TOL (w = 0.74761383348 and 0.74761383352)."""

    @staticmethod
    def werner_weight(gap: float) -> float:
        def closed_form(w):
            l1, l2 = (1.0 + 3.0 * w) / 4.0, (1.0 - w) / 4.0
            return -l1 * math.log(l1) - 3.0 * l2 * math.log(l2) - math.log(2.0)

        lo, hi = 0.7, 0.8  # the gap falls through 0 once in between
        while lo < (mid := (lo + hi) / 2.0) < hi:
            lo, hi = (mid, hi) if closed_form(mid) > gap else (lo, mid)
        return lo

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_entropy_verdict(self, tmp_path, capsys, factor):
        w = self.werner_weight(-factor * SLACK_TOL)
        assert w == pytest.approx(0.74761383348 if factor < 1 else 0.74761383352, abs=1e-11)
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "kind": "von_neumann", "dims": [2, 2], "state": f"werner:{w!r}"})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        results = parse_strict(out)["results"]
        assert results["monotonicity_gap"] == pytest.approx(-factor * SLACK_TOL, abs=1e-14)
        assert code == (0 if factor < 1 else 1)
        assert results["monotonicity_holds"] is (factor < 1)
        assert results["entropic_condition_holds"] is (factor < 1)

    @pytest.mark.parametrize("factor", [0.75, 1.5])
    def test_linear_entropy_verdict(self, tmp_path, capsys, factor):
        # The two readings of the purity excess at 0.75x and 1.5x SLACK_TOL past their edge. A Werner state of
        # weight w has purity (1 + 3w^2)/4 and reductions I/2, so at dims (2, 2) its excess is 3w^2 - 1, and
        # w = sqrt((1 + x)/3) sets it to x; lhs - rhs and the purity margin both read -x.
        x = factor * SLACK_TOL
        w = math.sqrt((1.0 + x) / 3.0)
        cfg = write_config(tmp_path, "e.json",
                           {"schema": 1, "kind": "linear_quantum", "dims": [2, 2], "state": f"werner:{w!r}"})
        code, out = run_cli(capsys, "entropy", "--config", cfg)
        condition = parse_strict(out)["results"]["linear_entropy_condition"]
        assert code == 0  # the von Neumann monotonicity holds here; the exit does not read this condition
        assert condition["lhs"] - condition["rhs"] == pytest.approx(-x, abs=1e-14)
        assert condition["purity_margin"] == pytest.approx(-x, abs=1e-14)
        assert condition["holds"] is (factor < 1)
        assert condition["beta_bound_implied"] is (factor < 1)


class TestEprDistance:
    def test_sodium_estimate(self, capsys):
        code, out = run_cli(capsys, "epr-distance", "--L", "0.05", "--v", "2.9e3")
        assert code == 0
        d = parse(out)["results"]["min_separation_m"]
        assert d == pytest.approx(2 * 0.05 * 299792458.0 / 2.9e3)

    def test_superluminal_rejected(self, capsys):
        code, out = run_cli(capsys, "epr-distance", "--L", "0.05", "--v", "3.1e8")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--L", "nan", "--v", "2.9e3"], ["--L", "inf", "--v", "2.9e3"],
                                      ["--L", "0.05", "--v", "nan"], ["--L", "1", "--v", "5e-324"]])
    def test_non_finite_inputs_rejected_with_strict_json(self, capsys, argv):
        code, out = run_cli(capsys, "epr-distance", *argv)
        assert code == 2

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert "error" in json.loads(out, parse_constant=reject)

    @pytest.mark.parametrize("argv, error", [
        (["--L", "nan", "--v", "2.9e3"], "epr-distance.L: apparatus length must be finite"),
        (["--L", "0", "--v", "2.9e3"], "epr-distance.L: apparatus length must be positive"),
        (["--L", "-1", "--v", "nan"], "epr-distance.L: apparatus length must be positive"),  # L before v
        (["--L", "0.05", "--v", "nan"], "epr-distance.v: velocity must be finite"),
        (["--L", "0.05", "--v", "3.1e8"], "epr-distance.v: velocity must be positive and below the speed of light"),
    ])
    def test_input_errors_name_their_flag(self, capsys, argv, error):
        # Each text once named neither flag: "apparatus length and velocity must be finite".
        code, out = run_cli(capsys, "epr-distance", *argv)
        assert code == 2
        assert out == json.dumps({"error": error}) + "\n"


LOGIC_A = {"label": "A", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}


@pytest.mark.parametrize("command, config, error", [
    ("chsh", {"state": "singlet"}, "chsh: provide exactly one of 'directions' or 'observables'"),
    ("chsh", {"state": "singlet", "directions": CANONICAL_DIRECTIONS,
              "observables": {k: PAULI_Z for k in "abcd"}},
     "chsh: provide exactly one of 'directions' or 'observables'"),
    ("chsh", {"state": {"matrix": [[1, 0], [0, 0]]}, "directions": CANONICAL_DIRECTIONS},
     "chsh.state: direction-based scenarios need a two-qubit state"),
    ("feasibility", {"marginals": {}, "state": "singlet"},
     "feasibility: give either marginals or a scenario, not both"),
    # Neither marginals nor a state: both once exited 3 with KeyError: 'state'.
    ("feasibility", {}, "feasibility.state: required field missing"),
    ("feasibility", {"directions": CANONICAL_DIRECTIONS}, "feasibility.state: required field missing"),
    ("hv", {"state": "singlet", "observables": [{"label": "z", "matrix": diag(1, 1, -1, -1)},
                                                {"label": "z", "matrix": diag(1, -1, 1, -1)}]},
     "hv.observables[1].label: duplicate label 'z'"),
    ("entropy", {"kind": "von_neumann"}, "entropy: provide exactly one of 'state' or 'classical'"),
    ("entropy", {"kind": "von_neumann", "state": "singlet"}, "entropy.dims: required for a quantum state"),
    ("entropy", {"kind": "shannon", "state": "singlet", "dims": [2, 2]},
     "entropy.kind: 'shannon' does not apply to quantum input"),
    # Dims that do not factor the state, and a distribution without dims: both once had no field path.
    ("entropy", {"kind": "von_neumann", "state": "singlet", "dims": [64, 1]},
     "entropy.dims: state dimension 4 does not match dims (64, 1)"),
    ("entropy", {"kind": "shannon", "classical": {"weights": [0.5, 0.5, 0, 0]}},
     "entropy.classical.dims: distribution has no bipartite structure"),
    ("logic", {"state": "singlet", "propositions": [LOGIC_A, LOGIC_A], "checks": []},
     "logic.propositions[1].label: duplicate label 'A'"),
    ("logic", {"state": "singlet", "propositions": [LOGIC_A], "checks": [{"type": "angle"}]},
     "logic.checks[0].type: unknown check type 'angle'"),
    ("logic", {"state": "singlet", "propositions": [LOGIC_A], "checks": [{"type": "distance", "pair": ["A"]}]},
     "logic.checks[0].pair: expected two labels"),
    # Each command reads every field it accepts: these four once exited 0 with the field ignored.
    ("entropy", {"kind": "shannon", "classical": {"weights": [0.25] * 4, "dims": [2, 2]}, "directions": {"a": "junk"}},
     "entropy.directions: does not apply to classical input"),
    ("entropy", {"kind": "shannon", "classical": {"weights": [0.25] * 4, "dims": [2, 2]},
                 "observables": {k: PAULI_Z for k in "abcd"}},
     "entropy.observables: does not apply to classical input"),
    ("entropy", {"kind": "shannon", "classical": {"weights": [0.25] * 4, "dims": [2, 2]}, "dims": [4, 1]},
     "entropy.dims: give classical dims once, here or in entropy.classical.dims"),
    ("feasibility", {"contexts": True, "marginals": {k: 0.25 for k in bellkit.feasibility.MarginalSet._fields}},
     "feasibility.contexts: does not apply to marginals"),
    ("logic", {"state": "singlet", "propositions": [LOGIC_A],
               "checks": [{"type": "distance", "pair": ["A", "A"], "quad": ["A"] * 4}]},
     "logic.checks[0].quad: does not apply to a 'distance' check"),
])
def test_input_errors_of_each_command_are_pinned(tmp_path, capsys, command, config, error):
    code, out = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", {"schema": 1, **config}))
    assert code == 2
    assert out == json.dumps({"error": error}) + "\n"


#: A classical state with one eigenvalue of -5e-10, inside the state tolerance, and a = b = c = d = Z.
_DIAGONAL_SCENARIO = {"state": {"matrix": diag(0.5 + 5e-10, -5e-10, 0, 0.5)},
                      "observables": {k: PAULI_Z for k in "abcd"}}


def _known_false_exit_1(found: str, why: str):
    """A strict xfail naming the CHANGES.md ``FOUND`` behind a standing false exit 1; only the exit check may fail."""
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"FOUND on {found}: {why}")


@pytest.mark.parametrize("command, config", [
    pytest.param("chsh", _DIAGONAL_SCENARIO, id="chsh-diagonal", marks=_known_false_exit_1(
        "cli._cmd_chsh and _cmd_feasibility", "beta = 2.000000002 reads as a violation")),
    pytest.param("feasibility", _DIAGONAL_SCENARIO, id="feasibility-diagonal", marks=_known_false_exit_1(
        "cli._cmd_chsh and _cmd_feasibility", "the marginals read as infeasible")),
    pytest.param("logic", {"state": "mixed", "checks": [{"type": "quad", "quad": list("ABCD")}],
                           "propositions": [{"label": x, "matrix": diag(1 + 3e-10, 1 + 3e-10, 0, 0)} for x in "ABCD"]},
                 id="logic-quad-identical", marks=_known_false_exit_1(
        "logic.triangle_check / quad_check", "quad slack -6.0e-10 is below -SLACK_TOL")),
    pytest.param("entropy", {"kind": "von_neumann", "dims": [2, 2],
                             "state": {"matrix": diag(0.50000000025, 0.50000000025, -2.5e-10, -2.5e-10)}},
                 id="entropy-diagonal", marks=_known_false_exit_1(
        "cli._cmd_entropy", "a negative side entropy reads as a violation")),
])
def test_classical_inputs_inside_the_entry_tolerance_do_not_exit_1(tmp_path, capsys, command, config):
    # Each input is classical by construction, so exit 1 (a violation) is false. These are ROADMAP item 7's
    # standing probes, entered as strict xfails: a mend shows as XPASS and must drop the mark.
    code, _ = run_cli(capsys, command, "--config", write_config(tmp_path, "c.json", {"schema": 1, **config}))
    assert code != 1


class TestErrorHandling:
    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "singlet",
                            "directions": CANONICAL_DIRECTIONS, "extra": True})
        code, out = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 2
        assert "extra" in parse(out)["error"]

    def test_schema_version_checked(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 99, "state": "singlet", "directions": CANONICAL_DIRECTIONS})
        code, _ = run_cli(capsys, "chsh", "--config", cfg)
        assert code == 2

    @pytest.mark.parametrize("command,payload,field", [
        ("chsh", {"schema": True, "state": "singlet", "directions": CANONICAL_DIRECTIONS},
         "chsh.schema"),
        ("sweep", {"schema": 1, "property": "concavity", "samples": True}, "sweep.samples"),
        ("feasibility", {"schema": 1, "state": "singlet", "directions": CANONICAL_DIRECTIONS,
                         "contexts": 1}, "feasibility.contexts"),
        ("chsh", {"schema": 1, "state": "singlet",
                  "directions": {**CANONICAL_DIRECTIONS, "a": [True, 0]}}, "chsh.directions.a"),
    ])
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, command, payload, field):
        cfg = write_config(tmp_path, "c.json", payload)
        code, out = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert parse(out)["error"].startswith(field)

    @pytest.mark.parametrize("matrix, where", [
        ([1, 2], "matrix row [0]"),
        ([[[1, None], 0], [0, 1]], "matrix entry [0][0]"),
        ([[1, 0], [0, True]], "matrix entry [1][1]"),
        ([[["1", "0"], 0], [0, 1]], "matrix entry [0][0]"),
    ])
    @pytest.mark.parametrize("command, config, field", [
        ("chsh", lambda bad: {"state": {"matrix": bad}, "directions": CANONICAL_DIRECTIONS},
         "chsh.state.matrix"),
        ("chsh", lambda bad: {"state": "mixed", "observables": {"a": bad, "b": PAULI_Z, "c": PAULI_Z,
                                                                "d": PAULI_Z}},
         "chsh.observables"),
        ("hv", lambda bad: {"state": "mixed", "observables": [{"label": "x", "matrix": bad}]},
         "hv.observables[0].matrix"),
        ("logic", lambda bad: {"state": "mixed", "propositions": [{"label": "A", "matrix": bad}],
                               "checks": []},
         "logic.propositions[0].matrix"),
    ])
    def test_malformed_matrix_literals_are_input_errors(self, tmp_path, capsys, matrix, where,
                                                        command, config, field):
        cfg = write_config(tmp_path, "c.json", {"schema": 1, **config(matrix)})
        code, out = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        error = parse_strict(out)["error"]
        assert error.startswith(field) and where in error

    @pytest.mark.parametrize("command, raw, field", [
        ("logic", '"checks": [{"type": "distance", "pair": [[], "B"]}]', "logic.checks[0]: unknown proposition []"),
        ("logic", '"checks": [{"type": "quad", "quad": ["A", {}, "A", "B"]}]', "logic.checks[0]: unknown proposition {}"),
        ("entropy", '"classical": {"weights": [{}, 1], "dims": [1, 2]}', "entropy.classical.weights[0]"),
        ("entropy", '"classical": {"weights": [null, 1], "dims": [1, 2]}', "entropy.classical.weights[0]"),
        ("entropy", '"classical": {"weights": [true, false], "dims": [1, 2]}', "entropy.classical.weights[0]"),
        ("entropy", '"classical": {"weights": [0.5, "0.5"]}', "entropy.classical.weights[1]"),
        ("entropy", '"classical": {"weights": [NaN, 1], "dims": [1, 2]}', "entropy.classical.weights[0]"),
        ("entropy", '"classical": {"weights": [1, -Infinity]}', "entropy.classical.weights[1]"),
        ("chsh", '"directions": {"a": [NaN, 0], "b": [45, 0], "c": [90, 0], "d": [135, 0]}',
         "chsh.directions.a"),
        ("chsh", '"directions": {"a": [0, 0], "b": [Infinity, 0], "c": [90, 0], "d": [135, 0]}',
         "chsh.directions.b"),
        ("chsh", '"directions": {"a": [1' + "0" * 400 + ', 0]}', "invalid JSON: an integer exceeds the float range"),
    ])
    def test_unchecked_values_are_input_errors_with_a_field_path(self, tmp_path, capsys, command, raw, field):
        # Each of these once crashed with a traceback and exit 1, or was accepted.
        body = {
            "logic": '"state": "singlet", "propositions": [{"label": "A", "matrix": [[1, 0, 0, 0], '
                     '[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}], ',
            "entropy": '"kind": "shannon", ',
            "chsh": '"state": "singlet", ',
        }[command]
        path = tmp_path / "c.json"
        path.write_text('{"schema": 1, ' + body + raw + "}")
        code, out = run_cli(capsys, command, "--config", str(path))
        assert code == 2
        assert field in parse_strict(out)["error"]

    @pytest.mark.parametrize("command, config, error", [
        ("entropy", {"kind": "shannon", "classical": {"weights": [0.5, 0.4], "dims": [1, 2]}},
         "entropy.classical: weights sum to 0.9, expected 1"),
        ("logic", {"state": "singlet", "propositions": [{"label": "A", "matrix": [[1, 0], [0, 0]]}],
                   "checks": [{"type": "distance", "pair": ["A", "A"]}]},
         "logic.checks[0]: distance: dimension mismatch (2 vs 4)"),
        ("hv", {"state": "singlet", "observables": [{"label": "A", "matrix": PAULI_Z}]},
         "hv.observables: operator 'A' dimension 2 != state dimension 4"),
    ])
    def test_computation_errors_name_their_field(self, tmp_path, capsys, command, config, error):
        cfg = write_config(tmp_path, "c.json", {"schema": 1, **config})
        code, out = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert parse_strict(out) == {"error": error}

    @pytest.mark.parametrize("command, config, error", [
        ("feasibility", {"state": {"matrix": diag(0.5 + 1.5e-9, -1.5e-9, 0, 0.5)},
                         "observables": dict.fromkeys("abcd", PAULI_Z)},
         "feasibility.state: p_ab = 0.5000000015 exceeds min(0.5, 0.5000000015); "
         "p_ad = 0.5000000015 exceeds min(0.5, 0.5000000015); p_bc = 0.5000000015 exceeds "
         "min(0.5000000015, 0.5); p_cd = 0.5000000015 exceeds min(0.5, 0.5000000015)"),
        ("feasibility", {"state": {"matrix": diag(0.5 + 2e-12, 0.5 + 2e-12, -2e-12, -2e-12)}, "contexts": True,
                         "directions": dict.fromkeys("abcd", [0, 0])},
         "feasibility.state: weights must be nonnegative"),
        ("chsh", {"state": {"matrix": diag(0.5 + 1e-9, -1e-9, 0, 0.5)},
                  "observables": dict.fromkeys("abcd", PAULI_Z)},
         "chsh.state: correlation ab = 1.000000002 outside [-1, 1]"),
    ])
    def test_errors_from_an_accepted_states_slack_name_the_state(self, tmp_path, capsys, command, config, error):
        cfg = write_config(tmp_path, "c.json", {"schema": 1, **config})
        code, out = run_cli(capsys, command, "--config", cfg)
        assert code == 2
        assert parse_strict(out) == {"error": error}

    def test_internal_error_exits_3_with_strict_json(self, tmp_path, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("simplex did not terminate")

        monkeypatch.setitem(bellkit.cli._HANDLERS, "chsh", broken)
        cfg = write_config(tmp_path, "c.json",
                           {"schema": 1, "state": "singlet", "directions": CANONICAL_DIRECTIONS})
        code = main(["chsh", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 3
        assert parse_strict(captured.out) == {"error": "RuntimeError: simplex did not terminate",
                                              "kind": "internal"}
        assert captured.err.startswith("bellkit: internal error: RuntimeError: simplex did not terminate "
                                       "(raised at test_cli.py:")
        assert captured.err.endswith(" in broken)\n") and captured.err.count("\n") == 1

    def test_malformed_json_has_line_info(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n "state": }')
        code, out = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 2
        assert ":2:" in parse(out)["error"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "chsh", "--config", "/nonexistent.json")
        assert code == 2

    def test_deeply_nested_json_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out = run_cli(capsys, "chsh", "--config", str(path))
        assert code == 2
        assert parse_strict(out)["error"] == f"{path}: invalid JSON: nested too deeply"


def test_back_to_back_commands_match_fresh_parser(tmp_path, capsys):
    # main reuses one argparse tree per process; a request must not see
    # anything left behind by the ones before it.
    chsh = write_config(tmp_path, "c.json",
                        {"schema": 1, "state": "werner:0.8", "directions": CANONICAL_DIRECTIONS})
    feas = write_config(tmp_path, "f.json",
                        {"schema": 1, "state": "singlet", "directions": CANONICAL_DIRECTIONS})
    sweep = write_config(tmp_path, "s.json",
                         {"schema": 1, "property": "product-beta", "samples": 4})
    ent = write_config(tmp_path, "e.json",
                       {"schema": 1, "state": "singlet", "dims": [2, 2], "kind": "von_neumann"})
    requests = [
        ["sweep", "--config", sweep, "--seed", "7", "--csv", str(tmp_path / "r.csv")],
        ["chsh", "--config", chsh],
        ["epr-distance", "--L", "2", "--v", "1e5"],
        ["entropy", "--config", ent, "--base", "2"],
        ["sweep", "--config", sweep],
        ["chsh", "--config", str(tmp_path / "missing.json")],
        ["feasibility", "--config", feas],
        ["entropy", "--config", ent],
    ]
    warm = [run_cli(capsys, *argv) for argv in requests]
    assert build_parser() is build_parser()
    for argv, result in zip(requests, warm):
        build_parser.cache_clear()
        assert run_cli(capsys, *argv) == result, argv
    assert [code for code, _ in warm] == [0, 1, 0, 1, 0, 2, 1, 1]
    assert parse(warm[0][1])["results"]["seed"] == 7 and parse(warm[4][1])["results"]["seed"] == 0
    assert parse(warm[7][1])["results"]["entropies"]["log_base"] == "e"


@pytest.mark.parametrize("command, config, error", [
    ("logic", {"state": "singlet", "propositions": [
        {"label": "A", "matrix": [[1e300, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}], "checks": []},
     "logic.propositions[0].matrix: proposition 'A': matrix is not a projector within tolerance"),
    ("chsh", {"state": "singlet", "observables": {"a": [[1, 1e200], [0, -1]], "b": PAULI_Z, "c": PAULI_Z, "d": PAULI_Z}},
     "chsh.observables: observable a is not Hermitian within tolerance"),
])
def test_an_overflowing_input_writes_only_its_error_line(tmp_path, capsys, command, config, error):
    cfg = write_config(tmp_path, "c.json", {"schema": 1, **config})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert parse_strict(captured.out) == {"error": error}
    assert captured.err == f"bellkit: error: {error}\n"
    assert caught == []


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "bellkit.cli", "epr-distance", "--L", "1", "--v", "1000", "--timing"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert "wall_time_ms" in report


def test_cross_process_determinism(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"schema": 1, "state": "werner:0.8",
                        "directions": CANONICAL_DIRECTIONS})
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "bellkit.cli", "chsh", "--config", cfg],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["results"]["classical_bound_satisfied"] is False
    assert "wall_time_ms" not in outputs[0]


@pytest.mark.parametrize("state, expected", [("product00", 0), ("singlet", 1), (None, 2)])
def test_a_closed_stdout_keeps_the_exit_code(tmp_path, state, expected):
    # The read end of the pipe is closed before the process starts, as when the reader has gone. Each of
    # these once ended in a BrokenPipeError traceback and exit 1, the violation code.
    cfg = str(tmp_path / "missing.json") if state is None else write_config(
        tmp_path, "c.json", {"schema": 1, "state": state, "directions": CANONICAL_DIRECTIONS})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "bellkit.cli", "chsh", "--config", cfg],
                              stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == expected
    assert proc.stderr == ("" if state else f"bellkit: error: cannot read config {cfg}: "
                           f"[Errno 2] No such file or directory: '{cfg}'\n")


#: The README's example configs, each with its flags and documented exit code.
README_CONFIGS = {
    "chsh": ({"state": "singlet", "directions": CANONICAL_DIRECTIONS}, [], 1),
    "feasibility": ({"marginals": {"p_a": 0.5, "p_b": 0.5, "p_c": 0.5, "p_d": 0.5,
                                   "p_ab": 0.25, "p_ad": 0.25, "p_bc": 0.25, "p_cd": 0.25}}, [], 0),
    "hv": ({"state": "singlet", "observables": [
        {"label": "z1", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]},
        {"label": "z2", "matrix": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]}]},
        ["--csv", "model.csv"], 0),
    "entropy": ({"state": "singlet", "dims": [2, 2], "kind": "von_neumann"}, ["--base", "2"], 1),
    "sweep": ({"property": "fine-equivalence", "samples": 1000}, ["--csv", "rows.csv"], 0),
    "logic": ({"state": "singlet", "propositions": [
        {"label": "A", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]},
        {"label": "B", "matrix": [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5]]}],
        "checks": [{"type": "distance", "pair": ["A", "B"]}]}, [], 0),
}


def run_quietly(command, config, flags, workdir):
    """Run one request in-process on a config file; returns (code, stdout, stderr)."""
    path = workdir / f"{command}.json"
    path.write_text(json.dumps({"schema": 1, **config}))
    flags = [str(workdir / flag) if flag.endswith(".csv") else flag for flag in flags]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--config", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def reference_json(value) -> str:
    """The report encoding the emitter reproduces byte for byte."""
    return json.dumps(value, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)


@pytest.mark.parametrize("command", sorted(README_CONFIGS))
def test_readme_configs_exit_as_documented(tmp_path, monkeypatch, command):
    reports = []
    emit = bellkit.cli._emit
    monkeypatch.setattr(bellkit.cli, "_emit", lambda report, timing: reports.append(report) or emit(report, timing))
    config, flags, expected = README_CONFIGS[command]
    code, out, err = run_quietly(command, config, flags, tmp_path)
    assert code == expected
    assert parse_strict(out)["command"] == command
    assert err == ""
    assert out == reference_json(reports[0]) + "\n"


#: Strings and keys the configs use, so that mutations often reach past the
#: field checks into the commands themselves.
KNOWN_STRINGS = ["A", "B", "z1", "singlet", "mixed", "werner:0.5", "product00", "distance", "triangle",
                 "quad", "von_neumann", "linear_quantum", "shannon", "linear_classical", "concavity",
                 "araki-lieb", "bell-traces", "tsirelson", "sufficiency", "purity-bound"]
KNOWN_KEYS = ["schema", "state", "directions", "observables", "matrix", "label", "dims", "classical",
              "weights", "contexts", "pair", "triple", "quad", "type", "dim", "dims_list", "marginals",
              "a", "b", "c", "d", "p_a", "p_ab"]
# Integers stay small so that a mutated sweep stays cheap.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | st.text(max_size=3)
    | st.sampled_from(KNOWN_STRINGS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KNOWN_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


def subtree_paths(node, path=()):
    """Every key/index path below the root of a JSON tree."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from subtree_paths(child, path + (key,))


def node_at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


@settings(max_examples=300, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_readme_configs_end_in_a_documented_exit(tmp_path_factory, data):
    command = data.draw(st.sampled_from(sorted(README_CONFIGS)))
    config, flags, _ = README_CONFIGS[command]
    config = json.loads(json.dumps(config))
    if command == "sweep":
        config["samples"] = 3  # the README's 1000 samples are too slow to repeat 300 times
    for _ in range(data.draw(st.integers(1, 3))):
        # Replace a value, delete a key or item, or add a known key to an object (the root included).
        paths = list(subtree_paths(config))
        action = data.draw(st.sampled_from(["replace", "delete", "add"])) if paths else "add"
        if action == "add":
            objects = [()] + [path for path in paths if isinstance(node_at(config, path), dict)]
            node_at(config, data.draw(st.sampled_from(objects)))[data.draw(st.sampled_from(KNOWN_KEYS))] = \
                data.draw(JSON_VALUES)
            continue
        *parents, last = data.draw(st.sampled_from(paths))
        if action == "delete":
            del node_at(config, parents)[last]
        else:
            node_at(config, parents)[last] = data.draw(JSON_VALUES)
    code, out, err = run_quietly(command, config, flags, tmp_path_factory.getbasetemp())
    assert code in (0, 1, 2)
    parse_strict(out)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["chsh"], "the following arguments are required: --config"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from 'chsh', 'feasibility', 'hv', "
                "'entropy', 'sweep', 'logic', 'epr-distance')"),
    (["sweep", "--config", "s.json", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["chsh", "--config", "c.json", "--colour", "red"], "unrecognized arguments: --colour red"),
    (["chsh", "--config", "c.json", "--tol", "1"], "unrecognized arguments: --tol 1"),
    (["chsh", "--config", "c.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["epr-distance", "--L", "1"], "the following arguments are required: --v"),
])
def test_argument_errors_are_strict_json_and_exit_2(capsys, argv, error):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == json.dumps({"error": error}) + "\n"
    assert captured.err == f"bellkit: error: {error}\n"


#: Each command's option strings: ``--timing``, ``--config`` on all but ``epr-distance``,
#: and the options its own handler reads.
COMMAND_OPTIONS = {
    "chsh": ["--config", "--timing"],
    "feasibility": ["--config", "--timing"],
    "hv": ["--config", "--csv", "--timing"],
    "entropy": ["--base", "--config", "--timing"],
    "sweep": ["--config", "--csv", "--seed", "--timing"],
    "logic": ["--config", "--timing"],
    "epr-distance": ["--L", "--timing", "--v"],
}


def test_each_command_takes_only_the_options_it_reads():
    options = {name: sorted(flag for action in parser._actions for flag in action.option_strings
                            if flag not in ("-h", "--help"))
               for name, parser in build_parser().commands.items()}
    assert options == COMMAND_OPTIONS


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["chsh", "--help"], ["epr-distance", "-h"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bellkit")


@pytest.mark.parametrize("argv", [
    ["chsh", "--config", "c.json"],
    ["chsh", "--config=c.json", "--timing"],
    ["feasibility", "--con", "f.json", "--timing"],
    ["hv", "--csv", "m.csv", "--config", "h.json"],
    ["entropy", "--config", "e.json", "--base", "2", "--timing"],
    ["sweep", "--config", "s.json", "--csv", "rows.csv", "--seed", "-3"],
    ["logic", "--config", "-"],
    ["epr-distance", "--L", "0.05", "--v", "2.9e3"],
    ["epr-distance", "--v", "inf", "--L", "nan", "--timing"],
    # Errors: each parser raises the same message on both routes.
    ["chsh"], ["chsh", "--config", "c.json", "extra"], ["sweep", "--config", "s.json", "--csv"],
    ["hv", "--base", "10", "--config", "h.json"], ["epr-distance", "--L", "x", "--v", "1"],
    ["chsh", "--config", "c.json", "--L", "1"], ["logic", "--config", "l.json", "--config"],
    ["chsh", "--config=c.json", "--seed", "-3", "--tol", "1e-6", "--base", "2"],
    ["feasibility", "--con", "f.json", "--tol", "nan"], ["entropy", "--config", "e.json", "--seed", "7"],
    ["sweep", "--config", "s.json", "--base", "2"], ["epr-distance", "--L", "1", "--v", "1", "--tol", "0"],
])
def test_a_command_parsed_alone_gives_the_top_level_namespace(argv):
    def outcome(parse):
        try:
            args = parse(argv)
        except ValueError as exc:
            return f"error: {exc}"
        assert args.command == argv[0]
        return repr(sorted(vars(args).items()))  # by repr, so that NaN equals NaN

    assert outcome(bellkit.cli._parse_request) == outcome(build_parser().parse_args)


#: Values that stress each branch of the emitter against ``json.dumps``.
EMITTER_VALUES = [
    {}, [], (), {"a": {}, "b": [], "c": [[], [{}], ()], "d": {"e": {"f": []}}},
    [-0.0, 0.0, 5e-324, 1e-7, 0.1, 1.0 / 3.0, 1e16, 1e308, -1e308, 2.0 ** 63],
    [0, -1, 10 ** 30, -(10 ** 40), 2 ** 63],
    (1, 2.5, ("x", None), [np.float64(0.1), np.float64(-0.0), np.float64(1e300)]),
    [True, False, 1, 0, 1.0, 0.0, None, {"true": True, "1": 1}],
    {'k,[{"\\': ',[{"\\ \n\t\x00', "é": "ünïcødé ☃ \u2028 \U0001f600", "": ""},
    {"b": 1, "a": {"z": [2], "y": {"x": "w"}}, "A": 3, "_": 4, "aa": 5},
]


@pytest.mark.parametrize("value", EMITTER_VALUES)
def test_the_emitter_matches_json_dumps(value):
    assert bellkit.cli._encode(value) == reference_json(value)


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf"), np.int64(1), np.bool_(True),
    np.float32(0.5), {"a": [1.0, {"b": (2, math.nan, math.inf)}]}, [object()],
])
def test_the_emitter_raises_what_json_dumps_raises(value):
    with pytest.raises((ValueError, TypeError)) as expected:
        reference_json({"x": value})
    with pytest.raises(expected.type) as raised:
        bellkit.cli._encode({"x": value})
    assert str(raised.value) == str(expected.value)


def test_an_overflowing_result_keeps_its_error_report(capsys):
    # 2Lc/v overflows to inf: once the encoder's "Out of range float values are not JSON compliant: inf".
    code, out = run_cli(capsys, "epr-distance", "--L", "1", "--v", "5e-324")
    assert code == 2
    assert out == '{"error": "epr-distance: separation 2 L c / v exceeds the float range"}\n'
