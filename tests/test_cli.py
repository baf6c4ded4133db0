import json

import numpy as np
import pytest

from conftest import count_calls
from dkpair import cli
from dkpair.gridio import read_contraction_grid, write_contraction_grid
from dkpair.models import qwz_hoppings


def mat_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def hoppings_json(hops):
    return [{"offset": list(off), "matrix": mat_json(mat)}
            for off, mat in hops.items()]


def qwz_config(mass, spin_doubling=False, extra=None):
    cfg = {
        "dimension": 2,
        "matrix_size": 2,
        "hoppings": hoppings_json(qwz_hoppings(mass)),
        "spin_doubling": spin_doubling,
        "real_structure": "quaternionic" if spin_doubling else "none",
    }
    if extra:
        cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(args):
    return cli.main(args)


def read_report(capsys):
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_missing_partner(tmp_path):
    cfg = {"dimension": 1, "matrix_size": 1,
           "hoppings": [{"offset": [1], "matrix": mat_json([[1]])}]}
    path = write_config(tmp_path, cfg)
    assert run_cli(["pair", "--cycle", "ch0", "--config", path]) == cli.EXIT_VALIDATION


def test_config_rejects_nonhermitian(tmp_path):
    cfg = {"dimension": 1, "matrix_size": 1,
           "hoppings": [{"offset": [1], "matrix": mat_json([[1]])},
                        {"offset": [-1], "matrix": mat_json([[2]])}]}
    path = write_config(tmp_path, cfg)
    assert run_cli(["pair", "--cycle", "ch1", "--config", path]) == cli.EXIT_VALIDATION


def test_config_symmetrizes_rounding_noise(tmp_path):
    eps = 1e-14
    cfg = {"dimension": 1, "matrix_size": 1,
           "hoppings": [{"offset": [1], "matrix": [[[0.5, 0.0]]]},
                        {"offset": [-1], "matrix": [[[0.5 + eps, 0.0]]]},
                        {"offset": [0], "matrix": [[[2.0, 0.0]]]}]}
    path = write_config(tmp_path, cfg)
    with pytest.warns(UserWarning):
        code = run_cli(["pair", "--cycle", "ch0", "--config", path])
    assert code == cli.EXIT_OK


def test_missing_config_file():
    assert run_cli(["pair", "--cycle", "ch0", "--config", "/nonexistent.json"]) \
        == cli.EXIT_VALIDATION


# ---------------------------------------------------------------------------
# pair command
# ---------------------------------------------------------------------------

def test_cmd_pair_ch0_constant_projection(tmp_path, capsys):
    # rank-3 constant projection inside M_4
    h = np.diag([1.0, 1.0, 1.0, -1.0])
    cfg = {"dimension": 0, "matrix_size": 4,
           "hoppings": [{"offset": [], "matrix": mat_json(h)}]}
    path = write_config(tmp_path, cfg)
    assert run_cli(["pair", "--cycle", "ch0", "--config", path]) == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["rank"]["rounded"] == 3
    assert rep["status"] == "ok"


def test_cmd_pair_ch1_winding(tmp_path, capsys):
    # loop modes: U(t) = e^{4 pi i t}, winding 2
    cfg = {"dimension": 1, "matrix_size": 1,
           "hoppings": [{"offset": [2], "matrix": mat_json([[1]])}]}
    path = write_config(tmp_path, cfg)
    code = run_cli(["pair", "--cycle", "ch1", "--config", path, "--tgrid", "64"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["pairing"]["winding"] == 2
    assert abs(rep["values"]["pairing"]["im"] - 4 * np.pi) < 1e-9


def test_cmd_pair_ch1_rejects_nonunitary(tmp_path):
    cfg = {"dimension": 1, "matrix_size": 1,
           "hoppings": [{"offset": [1], "matrix": mat_json([[1]])},
                        {"offset": [-1], "matrix": mat_json([[1]])}]}
    path = write_config(tmp_path, cfg)
    code = run_cli(["pair", "--cycle", "ch1", "--config", path, "--tgrid", "64"])
    assert code == cli.EXIT_VALIDATION


def test_cmd_pair_ch2_qwz(tmp_path, capsys):
    path = write_config(tmp_path, qwz_config(1.0))
    code = run_cli(["pair", "--cycle", "ch2", "--config", path,
                    "--grid", "24", "--tol", "1e-5"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert abs(rep["values"]["chern"]["rounded"]) == 1
    assert rep["values"]["chern"]["refinement_stable"]
    assert rep["status"] == "ok"


def test_cmd_pair_ch2_gap_closed(tmp_path):
    path = write_config(tmp_path, qwz_config(2.0))
    code = run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "16"])
    assert code == cli.EXIT_GAP


# ---------------------------------------------------------------------------
# z2 command
# ---------------------------------------------------------------------------

def test_cmd_z2_topological(tmp_path, capsys):
    path = write_config(tmp_path, qwz_config(1.0, spin_doubling=True))
    code = run_cli(["z2", "--config", path, "--grid", "24", "--tol", "1e-4"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["z2_class"]["rounded"] == 1
    assert abs(rep["values"]["spin_chern"]["rounded"]) == 1
    assert rep["status"] == "ok"


def test_cmd_z2_spin_chern_two_is_trivial(tmp_path, capsys):
    # two stacked QWZ blocks: spin Chern 2, Kane-Mele class 0
    single = qwz_hoppings(1.0)
    stacked = {off: np.kron(np.eye(2), mat) for off, mat in single.items()}
    cfg = {"dimension": 2, "matrix_size": 4,
           "hoppings": hoppings_json(stacked),
           "spin_doubling": True, "real_structure": "quaternionic"}
    path = write_config(tmp_path, cfg)
    code = run_cli(["z2", "--config", path, "--grid", "24", "--tol", "1e-4"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert abs(rep["values"]["spin_chern"]["rounded"]) == 2
    assert rep["values"]["z2_class"]["rounded"] == 0


def test_cmd_z2_trivial_insulator(tmp_path, capsys):
    cfg = qwz_config(3.0, spin_doubling=True)
    for hop in cfg["hoppings"]:
        hop["matrix"] = mat_json(0.4 * (np.array(hop["matrix"])[..., 0]
                                        + 1j * np.array(hop["matrix"])[..., 1]))
    path = write_config(tmp_path, cfg)
    code = run_cli(["z2", "--config", path, "--grid", "24", "--tol", "1e-4"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["z2_class"]["rounded"] == 0


def test_cmd_z2_requires_decoupled(tmp_path):
    cfg = qwz_config(1.0, spin_doubling=True)
    cfg["rashba"] = [{"offset": [0, 0], "matrix": mat_json(0.1 * np.eye(2))}]
    path = write_config(tmp_path, cfg)
    assert run_cli(["z2", "--config", path]) == cli.EXIT_VALIDATION


# ---------------------------------------------------------------------------
# floquet command
# ---------------------------------------------------------------------------

def floquet_config(mass=1.0, scale=0.5):
    hops = {off: scale * mat for off, mat in qwz_hoppings(mass).items()}
    seg = {"duration": 0.5, "hoppings": hoppings_json(hops)}
    return {
        "dimension": 2, "matrix_size": 2,
        "hoppings": hoppings_json(hops),
        "spin_doubling": True,
        "real_structure": "quaternionic",
        "drive": {"period": 1.0, "segments": [seg, seg]},
    }


def test_cmd_floquet_undriven_topological(tmp_path, capsys):
    path = write_config(tmp_path, floquet_config(1.0))
    code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                    "--arc1", "3.14159265", "--grid", "16", "--tgrid", "64",
                    "--tol", "1e-3"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["branch_identity"]["passed"]
    assert checks["time_reversal"]["passed"]
    assert checks["periodicity"]["passed"]
    assert checks["k_refinement_stable"]["passed"]
    assert rep["values"]["k_invariant"]["value"] == 1.0


def test_cmd_floquet_trivial_drive(tmp_path, capsys):
    cfg = floquet_config(1.0)
    for seg in cfg["drive"]["segments"]:
        seg["hoppings"] = []
    path = write_config(tmp_path, cfg)
    code = run_cli(["floquet", "--config", path, "--arc0", "0.5",
                    "--arc1", "3.0", "--grid", "16", "--tgrid", "64"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["k_invariant"]["value"] == 0.0


def test_cmd_floquet_needs_spin_doubling(tmp_path, capsys):
    cfg = floquet_config(1.0)
    cfg.update(spin_doubling=False, real_structure="none")
    path = write_config(tmp_path, cfg)
    code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                    "--arc1", "3.14159265", "--grid", "16", "--tgrid", "64"])
    assert code == cli.EXIT_VALIDATION
    assert "spin-doubled" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify command and report format
# ---------------------------------------------------------------------------

def test_cmd_verify_all_suites(tmp_path, capsys):
    for suite in ("clifford", "selection-rules", "ko-examples"):
        code = run_cli(["verify", suite, "--grid", "16", "--tgrid", "64"])
        assert code == cli.EXIT_OK, suite
        rep = read_report(capsys)
        assert rep["status"] == "ok"
        assert all(c["passed"] for c in rep["checks"])


def test_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    path = write_config(tmp_path, qwz_config(1.0))
    run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "16",
             "--tol", "1e-4", "--report", str(out)])
    on_disk = json.loads(out.read_text())
    printed = read_report(capsys)
    printed.pop("wall_time_s")
    on_disk.pop("wall_time_s")
    assert printed == on_disk
    assert on_disk["schema"] == cli.REPORT_SCHEMA
    assert on_disk["config_digest"]


def test_reports_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, qwz_config(1.0))
    reports = []
    for _ in range(2):
        run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "16",
                 "--tol", "1e-4"])
        rep = read_report(capsys)
        rep.pop("wall_time_s")
        reports.append(rep)
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# contraction grid files
# ---------------------------------------------------------------------------

def test_gridio_rejects_malformed_text(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"shape": [2, 1, 1], "data": [[1.0, 0.0]]}))
    with pytest.raises(ValueError, match="needs 2 samples"):
        read_contraction_grid(str(path))
    path.write_text(json.dumps({"shape": [2, 1, 1],
                                "data": [[1.0, 0.0], [1.0, 0.0, 0.0]]}))
    with pytest.raises(ValueError, match=r"\[re, im\] pairs"):
        read_contraction_grid(str(path))


def test_cmd_floquet_malformed_contraction_files(tmp_path, rng):
    path = write_config(tmp_path, floquet_config(1.0))
    samples = (rng.standard_normal((9, 8, 8, 4, 4))
               + 1j * rng.standard_normal((9, 8, 8, 4, 4)))
    truncated = tmp_path / "truncated.grid"
    write_contraction_grid(str(truncated), samples, binary=True)
    truncated.write_bytes(truncated.read_bytes()[:-16])
    mismatched = tmp_path / "mismatched.json"
    write_contraction_grid(str(mismatched), samples, binary=False)
    payload = json.loads(mismatched.read_text())
    payload["data"] = payload["data"][:-1]
    mismatched.write_text(json.dumps(payload))
    header_only = tmp_path / "header_only.grid"
    header_only.write_bytes(truncated.read_bytes()[:10])
    # a header declaring 2^32 - 1 axes must not size a read from itself
    oversized = tmp_path / "oversized.grid"
    oversized.write_bytes(b"DKGRID1\n" + b"\xff" * 4)
    for bad in (truncated, header_only, mismatched, oversized):
        code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                        "--arc1", "3.14159265", "--grid", "8", "--tgrid", "32",
                        "--strategy", "user_supplied",
                        "--contraction", str(bad), str(bad)])
        assert code == cli.EXIT_VALIDATION, bad.name


def test_gridio_roundtrip(tmp_path, rng):
    samples = (rng.standard_normal((5, 4, 4, 2, 2))
               + 1j * rng.standard_normal((5, 4, 4, 2, 2)))
    for binary in (True, False):
        path = str(tmp_path / f"grid_{binary}.bin")
        write_contraction_grid(path, samples, binary=binary)
        back = read_contraction_grid(path)
        assert back.shape == samples.shape
        assert np.max(np.abs(back - samples)) == 0.0


# ---------------------------------------------------------------------------
# each operator is decomposed once
# ---------------------------------------------------------------------------

def test_floquet_factorizes_each_stroboscopic_operator_once(tmp_path, monkeypatch,
                                                            capsys):
    from dkpair import floquet
    raw = floquet_config(1.0)
    path = write_config(tmp_path, raw)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    files = []
    for b, branch in enumerate(floquet.branch_pair(1.0 + 0j, -1.0 + 0j, 1.0)):
        loop = floquet.decoupled_contraction(
            floquet.periodized_evolution(drive, branch, 64))
        second = [seg for seg in loop.segments if seg.t0 >= 0.5 - 1e-12]
        samples = np.concatenate([second[0].values[0]]
                                 + [seg.values[0, 1:] for seg in second[1:]])
        files.append(str(tmp_path / f"branch{b}.grid"))
        write_contraction_grid(files[-1], samples, binary=True)
    base = ["floquet", "--config", path, "--arc0", "0.0", "--arc1", repr(np.pi),
            "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    calls = count_calls(monkeypatch, floquet.unitary_eig)
    assert run_cli([*base, "--strategy", "user_supplied",
                    "--contraction", *files]) == cli.EXIT_OK
    assert len(calls) == 1
    assert read_report(capsys)["status"] == "ok"
    calls.clear()
    # the refinement check builds a second drive on the doubled grid
    assert run_cli([*base, "--strategy", "decoupled"]) == cli.EXIT_OK
    assert [u.grid.sizes for u in calls] == [(16, 16), (32, 32)]
    assert read_report(capsys)["status"] == "ok"


def test_z2_and_pair_flatten_once_per_grid(tmp_path, monkeypatch, capsys):
    from dkpair import kclass
    calls = count_calls(monkeypatch, kclass.flatten)
    path = write_config(tmp_path, qwz_config(1.0, spin_doubling=True))
    assert run_cli(["z2", "--config", path, "--grid", "24", "--tol", "1e-4"]) \
        == cli.EXIT_OK
    assert [(h.grid.sizes, h.m) for h in calls] == [((24, 24), 2), ((48, 48), 2)]
    assert read_report(capsys)["status"] == "ok"
    calls.clear()
    path = write_config(tmp_path, qwz_config(1.0), name="block.json")
    assert run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "24",
                    "--tol", "1e-5"]) == cli.EXIT_OK
    assert [h.grid.sizes for h in calls] == [(24, 24), (48, 48)]
    assert read_report(capsys)["status"] == "ok"


def test_floquet_builds_one_periodized_evolution_per_branch(tmp_path, monkeypatch,
                                                            capsys):
    # the periodicity check and the degree route share the eps_0 loop
    from dkpair import floquet
    raw = floquet_config(1.0)
    path = write_config(tmp_path, raw)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    files = []
    for b, branch in enumerate(floquet.branch_pair(1.0 + 0j, -1.0 + 0j, 1.0)):
        loop = floquet.decoupled_contraction(
            floquet.periodized_evolution(drive, branch, 64))
        second = [seg for seg in loop.segments if seg.t0 >= 0.5 - 1e-12]
        samples = np.concatenate([second[0].values[0]]
                                 + [seg.values[0, 1:] for seg in second[1:]])
        files.append(str(tmp_path / f"branch{b}.grid"))
        write_contraction_grid(files[-1], samples, binary=True)
    base = ["floquet", "--config", path, "--arc0", "0.0", "--arc1", repr(np.pi),
            "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    calls = count_calls(monkeypatch, floquet.periodized_evolution)
    assert run_cli([*base, "--strategy", "user_supplied",
                    "--contraction", *files]) == cli.EXIT_OK
    assert len(calls) == 2
    rep = read_report(capsys)
    assert rep["status"] == "ok"
    assert rep["values"]["k_invariant"]["value"] == 1.0
    calls.clear()
    assert run_cli([*base, "--strategy", "decoupled"]) == cli.EXIT_OK
    assert len(calls) == 1
    assert read_report(capsys)["status"] == "ok"


def test_cmd_floquet_accepts_rescaled_drive(tmp_path, capsys):
    # (lambda H, T / lambda) with lambda = 1e8: H_eff has scale pi / T, and
    # its hermiticity check is relative to it
    lam = 1e8
    cfg = floquet_config(1.0, scale=0.5 * lam)
    cfg["drive"]["period"] = 1.0 / lam
    for seg in cfg["drive"]["segments"]:
        seg["duration"] = 0.5 / lam
    path = write_config(tmp_path, cfg)
    code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                    "--arc1", "3.14159265", "--grid", "16", "--tgrid", "64",
                    "--tol", "1e-3"])
    assert code == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["status"] == "ok"
    assert rep["values"]["k_invariant"]["value"] == 1.0


def test_failed_check_exits_convergence(tmp_path, capsys):
    # at grid 16 the torsion pairing moves by 1.6e-6 > 1e-6 under grid doubling
    path = write_config(tmp_path, qwz_config(1.0, spin_doubling=True))
    code = run_cli(["z2", "--config", path, "--grid", "16", "--tol", "1e-3"])
    rep = read_report(capsys)
    assert rep["status"] == "failed"
    assert [c["name"] for c in rep["checks"] if not c["passed"]] \
        == ["torsion_refinement"]
    assert code == cli.EXIT_CONVERGENCE
