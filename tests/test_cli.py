import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import count_calls, shifted_qwz_hoppings, split_blocks
from dkpair import cli, grid_alg
from dkpair.clifford import reversion_signs
from dkpair.kclass import GapClosedError
from dkpair.gridio import read_contraction_grid, write_contraction_grid
from dkpair.models import SY, quaternionic_structure, qwz_hoppings


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


def test_cmd_z2_committed_config(capsys):
    # the CI run of z2 on the committed spin-doubled QWZ block, at default --tol
    path = Path(__file__).parent / "data" / "z2_qwz.json"
    assert run_cli(["z2", "--config", str(path), "--grid", "24"]) == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["values"]["z2_class"]["rounded"] == 1
    assert rep["status"] == "ok"


@pytest.mark.parametrize("lam", [1e-6, 1e6])
def test_cmd_z2_energy_scale_invariant(tmp_path, capsys, lam):
    # sign(lambda h) = sign(h) for lambda > 0: every hopping of the committed
    # block scaled by lambda leaves the spin Chern number, the torsion class
    # and the z2 class where they are
    path = Path(__file__).parent / "data" / "z2_qwz.json"
    cfg = json.loads(path.read_text())
    for hop in cfg["hoppings"]:
        hop["matrix"] = (lam * np.array(hop["matrix"])).tolist()
    values = []
    for config in (str(path), write_config(tmp_path, cfg)):
        assert run_cli(["z2", "--config", config, "--grid", "24"]) == cli.EXIT_OK
        values.append(read_report(capsys)["values"])
    ref, got = values
    for key in ("value", "refined"):
        assert abs(got["spin_chern"][key] - ref["spin_chern"][key]) <= 1e-12
    assert got["spin_chern"]["rounded"] == ref["spin_chern"]["rounded"] == 1
    assert abs(got["torsion_pairing"]["value"] - ref["torsion_pairing"]["value"]) <= 1e-12
    assert got["z2_class"] == ref["z2_class"]


def test_cmd_z2_holds_one_grids_working_set(tmp_path, capsys):
    # two stacked QWZ blocks at 64^2; one 4x4 k = 1 element on the 128^2
    # refinement grid is 8 MiB, and the run peaks in its pairing near 32 MiB.
    # The symbol is freed once flattened, each sign once its class is built,
    # each grid's class, base point and symmetry before the next grid's are
    # built, the last two are broadcast views, and `pair` frees the
    # derivatives before it forms x - e; without these the run read 65 MiB
    stacked = {off: np.kron(np.eye(2), mat) for off, mat in qwz_hoppings(1.0).items()}
    path = write_config(tmp_path, {"dimension": 2, "matrix_size": 4,
                                   "hoppings": hoppings_json(stacked),
                                   "spin_doubling": True, "real_structure": "quaternionic"})
    tracemalloc.start()
    try:
        code = run_cli(["z2", "--config", path, "--grid", "64"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert read_report(capsys)["values"]["z2_class"]["rounded"] == 0
    assert peak < 36 * 2 ** 20


def test_cmd_z2_requires_decoupled(tmp_path):
    cfg = qwz_config(1.0, spin_doubling=True)
    cfg["rashba"] = [{"offset": [0, 0], "matrix": mat_json(0.1 * np.eye(2))}]
    path = write_config(tmp_path, cfg)
    assert run_cli(["z2", "--config", path]) == cli.EXIT_VALIDATION


def test_rashba_block_couples_the_spins_of_the_committed_block(tmp_path, capsys):
    # pair --cycle ch2 is the command that reads rashba terms: the committed
    # spin-doubled block with the (0, 0) coupling r = 0.3 (-i sigma_y) holds r
    # above its diagonal blocks and r^H below them, stays hermitian and
    # time-reversal invariant, and its two bands carry Chern number 0
    raw = json.loads((Path(__file__).parent / "data" / "z2_qwz.json").read_text())
    r = 0.3 * (-1j * SY)
    raw["rashba"] = hoppings_json({(0, 0): r})
    grid = grid_alg.TorusGrid((16, 16))
    h = cli.ModelConfig(raw).symbol(grid)
    assert np.array_equal(h.data[0][..., :2, 2:], np.broadcast_to(r, (16, 16, 2, 2)))
    assert np.array_equal(h.data[0][..., 2:, :2],
                          np.broadcast_to(np.conj(r.T), (16, 16, 2, 2)))
    assert (h - h.star()).norm_inf() <= 1e-14
    assert grid_alg.check_invariance(quaternionic_structure(k=0), h) <= 1e-12
    assert run_cli(["pair", "--cycle", "ch2", "--config", write_config(tmp_path, raw),
                    "--grid", "24"]) == cli.EXIT_OK
    assert read_report(capsys)["values"]["chern"]["rounded"] == 0


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
    # --tgrid sets only the exported time nodes, which no reported value reads,
    # and the report names only the momentum grid
    path = write_config(tmp_path, floquet_config(1.0))
    reports = []
    for tgrid in ("64", "256"):
        code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                        "--arc1", "3.14159265", "--grid", "16", "--tgrid", tgrid,
                        "--tol", "1e-3"])
        assert code == cli.EXIT_OK
        reports.append(read_report(capsys))
    rep = reports[0]
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["branch_identity"]["passed"]
    assert checks["time_reversal"]["passed"]
    assert checks["periodicity"]["passed"]
    assert checks["k_refinement_stable"]["passed"]
    assert rep["values"]["k_invariant"]["value"] == 1.0
    for r in reports:
        del r["wall_time_s"]
    assert reports[1] == rep


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


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.floats(0.9, 1.4), st.floats(2.9, 3.5)))
@example(0.9)
@example(1.4)
@example(2.9)
@example(3.5)
def test_floquet_invariant_is_the_same_on_grids_16_and_24(tmp_path, capsys, mass):
    # the grid cell of the invariance matrix on the Floquet route, over the
    # bench's floquet-drive mass windows: the rounded spin Chern number and
    # the invariant do not depend on the grid.  At 16 the spin Chern number
    # may miss the default --tol; it is then read from the failed report
    path = write_config(tmp_path, floquet_config(mass))
    got = []
    for n in ("16", "24"):
        code = run_cli(["floquet", "--config", path, "--strategy", "decoupled",
                        "--arc0", "0", "--arc1", repr(np.pi), "--grid", n])
        rep = read_report(capsys)
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert code == (cli.EXIT_CONVERGENCE if failed else cli.EXIT_OK)
        assert set(failed) <= {"spin_chern_integer"}, (n, failed)
        got.append((rep["values"]["spin_chern"]["rounded"],
                    rep["values"]["k_invariant"]["value"]))
    assert got[0] == got[1], got


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


def test_verify_clifford_reads_the_production_star(monkeypatch, capsys):
    # the suite's star is grid_alg's, the one every pairing runs: flipping the
    # reversion signs it reads fails the gamma self-adjointness checks
    monkeypatch.setattr(grid_alg, "reversion_signs", lambda k: -reversion_signs(k))
    assert run_cli(["verify", "clifford"]) == cli.EXIT_CONVERGENCE
    rep = read_report(capsys)
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert rep["status"] == "failed"
    assert all(f"gamma_{k}_self_adjoint" in failed for k in range(7)), failed


def test_verify_torsion_contracts_carry_residual_and_tolerance(capsys):
    # every check of every suite goes into the report with its residual and
    # bound, so a failed check says by how much it failed, and the report
    # names only the grids the suite reads
    named = {"ko2_nontrivial", "kane_mele_order_two", "ko2_twisted_pairing_two",
             "ko2_delta_one_mod_two", "kramers_even_rank", "real_structure_on_gamma"}
    grids = {"clifford": {}, "selection-rules": {"momentum": 24, "time": 64},
             "pimsner": {"momentum": 24}, "torsion": {"momentum": 24},
             "ko-examples": {"time": 64}}
    seen = set()
    for suite, want in grids.items():
        assert run_cli(["verify", suite, "--grid", "24", "--tgrid", "64"]) == cli.EXIT_OK
        rep = read_report(capsys)
        assert rep["status"] == "ok" and rep["grids"] == want, suite
        for check in rep["checks"]:
            assert check["passed"], check
            assert type(check["residual"]) is type(check["tolerance"]) is float, check
            assert check["passed"] == (check["residual"] <= check["tolerance"]), check
            seen.add(check["name"])
    assert named <= seen


def test_verify_report_ignores_an_unread_grid(capsys):
    # the pimsner suite reads no time grid, so --tgrid changes nothing
    reports = []
    for tgrid in ("64", "256"):
        assert run_cli(["verify", "pimsner", "--grid", "16", "--tgrid", tgrid]) \
            == cli.EXIT_OK
        reports.append(read_report(capsys))
        del reports[-1]["wall_time_s"]
    assert reports[0] == reports[1]


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


def test_pair_ch2_checks_consistency_against_tol(tmp_path, capsys):
    # at grid 16 the pairing and the Chern number differ by about 1e-5
    path = write_config(tmp_path, qwz_config(1.0))
    code = run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "16",
                    "--tol", "1e-4"])
    rep = read_report(capsys)
    assert code == 0
    assert rep["status"] == "ok"
    check = next(c for c in rep["checks"] if c["name"] == "chern_consistency")
    assert check["tolerance"] == 1e-4


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


def test_cmd_floquet_malformed_contraction_files(tmp_path, rng, capsys):
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
    # well-formed files with an even node count, and sampled on a 16 x 16
    # grid, both read at grid 8
    even_nt = tmp_path / "even_nt.grid"
    write_contraction_grid(str(even_nt), np.broadcast_to(np.eye(4), (8, 8, 8, 4, 4)))
    other_grid = tmp_path / "other_grid.grid"
    write_contraction_grid(str(other_grid), np.broadcast_to(np.eye(4), (9, 16, 16, 4, 4)))
    for bad in (truncated, header_only, mismatched, oversized, even_nt, other_grid):
        code = run_cli(["floquet", "--config", path, "--arc0", "0.0",
                        "--arc1", "3.14159265", "--grid", "8", "--tgrid", "32",
                        "--strategy", "user_supplied",
                        "--contraction", str(bad), str(bad)])
        assert code == cli.EXIT_VALIDATION, bad.name
    err = capsys.readouterr().err.splitlines()[-1]
    assert "(9, 16, 16, 4, 4)" in err and "(nt, 8, 8, 4, 4)" in err


def test_gridio_roundtrip(tmp_path, rng):
    samples = (rng.standard_normal((5, 4, 4, 2, 2))
               + 1j * rng.standard_normal((5, 4, 4, 2, 2)))
    for binary in (True, False):
        path = str(tmp_path / f"grid_{binary}.bin")
        write_contraction_grid(path, samples, binary=binary)
        back = read_contraction_grid(path)
        assert back.shape == samples.shape
        assert np.max(np.abs(back - samples)) == 0.0


def interleaved_grid_bytes(samples):
    """A binary grid file as the format describes it: magic, uint32 LE
    ndim, sizes and m, then the samples' re/im pairs as LE float64 in
    row-major order (reference)."""
    samples = np.asarray(samples)
    sizes = samples.shape[:-2]
    header = b"DKGRID1\n" + np.asarray([len(sizes), *sizes, samples.shape[-1]],
                                       dtype="<u4").tobytes()
    inter = np.empty(2 * samples.size, dtype="<f8")
    inter[0::2] = samples.real.ravel()
    inter[1::2] = samples.imag.ravel()
    return header + inter.tobytes()


def test_binary_grid_file_is_header_and_interleaved_pairs(tmp_path, rng):
    full = (rng.standard_normal((9, 8, 12, 4, 4))
            + 1j * rng.standard_normal((9, 8, 12, 4, 4)))
    inputs = {"strided": full[::2, :, ::3],
              "broadcast": np.broadcast_to(np.diag([1.0, -1j, 2.0, 0.5j]),
                                           (5, 8, 8, 4, 4)),
              "real": full.real[:3]}
    for name, samples in inputs.items():
        path = tmp_path / f"{name}.grid"
        write_contraction_grid(str(path), samples, binary=True)
        assert path.read_bytes() == interleaved_grid_bytes(samples), name
        assert np.array_equal(read_contraction_grid(str(path)), samples), name


# ---------------------------------------------------------------------------
# each operator is decomposed once
# ---------------------------------------------------------------------------

def decoupled_contraction_files(tmp_path, drive):
    """Binary grid files of the decoupled contractions of both branches of
    the arc from 1 to -1, in branch order."""
    from dkpair import floquet
    files = []
    for b, branch in enumerate(floquet.branch_pair(1.0 + 0j, -1.0 + 0j, drive.period)):
        loop = floquet.decoupled_contraction(
            floquet.periodized_evolution(drive, branch, 64))
        second = [seg for seg in loop.segments if seg.t0 >= 0.5 - 1e-12]
        samples = np.concatenate([second[0].values[0]]
                                 + [seg.values[0, 1:] for seg in second[1:]])
        files.append(str(tmp_path / f"branch{b}.grid"))
        write_contraction_grid(files[-1], samples, binary=True)
    return files


def test_floquet_factorizes_each_stroboscopic_operator_once(tmp_path, monkeypatch,
                                                            capsys):
    from dkpair import floquet
    raw = floquet_config(1.0)
    path = write_config(tmp_path, raw)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    files = decoupled_contraction_files(tmp_path, drive)
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
    # z2 validates the class at block size, not the doubled one
    osus = count_calls(monkeypatch, kclass.osu_validate)
    path = write_config(tmp_path, qwz_config(1.0, spin_doubling=True))
    assert run_cli(["z2", "--config", path, "--grid", "24", "--tol", "1e-4"]) \
        == cli.EXIT_OK
    # one flattening, on the refined grid: the base grid is its even subgrid
    assert [(h.grid.sizes, h.m) for h in calls] == [((48, 48), 2)]
    assert [(x.grid.sizes, x.m, x.k) for x in osus] == [((24, 24), 2, 1),
                                                        ((48, 48), 2, 1)]
    assert read_report(capsys)["status"] == "ok"
    calls.clear()
    path = write_config(tmp_path, qwz_config(1.0), name="block.json")
    assert run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "24",
                    "--tol", "1e-5"]) == cli.EXIT_OK
    assert [h.grid.sizes for h in calls] == [(48, 48)]
    assert read_report(capsys)["status"] == "ok"


def noisy_qwz_config(rng, layers, amp=0.006):
    """`layers` stacked QWZ blocks at a topological mass with seeded onsite
    and nearest-neighbour noise, each term of spectral norm amp."""
    m = 2 * layers
    hops = {off: np.kron(np.eye(layers), mat) for off, mat in qwz_hoppings(1.0).items()}
    for off in ((0, 0), (1, 0), (0, 1)):
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = b + b.conj().T if off == (0, 0) else b
        b *= amp / np.linalg.norm(b, 2)
        hops[off] = hops[off] + b
        if off != (0, 0):
            hops[(-off[0], -off[1])] = hops[(-off[0], -off[1])] + b.conj().T
    return {"dimension": 2, "matrix_size": m, "hoppings": hoppings_json(hops)}


@pytest.mark.parametrize("layers", [1, 2])
def test_base_grid_is_the_refined_grids_even_subgrid(layers):
    # the premise of one flatten per refinement: the symbol on the n grid and
    # its flattening are the even subgrids of those on the 2n grid, bit for bit
    from dkpair.grid_alg import even_subgrid
    from dkpair.kclass import flatten
    rng = np.random.default_rng(7 + layers)
    for n in (8, 12, 16, 24, 32):
        cfg = cli.ModelConfig(noisy_qwz_config(rng, layers))
        h, fine = (cfg.block_symbol(cfg.grid(size)) for size in (n, 2 * n))
        assert even_subgrid(fine).grid == h.grid
        assert np.array_equal(h.data, even_subgrid(fine).data)
        assert np.array_equal(flatten(h).data, even_subgrid(flatten(fine)).data)


@pytest.mark.parametrize("command", [["pair", "--cycle", "ch2"], ["z2"]])
def test_refinement_exits_4_where_either_grid_closes_its_gap(tmp_path, capsys, command):
    # shifted by pi / 8, the gap closes at an odd point of the 16 grid, which
    # the base grid 8 does not hold; at mass 2 and 0 it closes at base points.
    # The error is the one flattening the first grid that closes gives
    from dkpair.kclass import flatten
    tri = command == ["z2"]
    shifted = {**qwz_config(2.0, tri),
               "hoppings": hoppings_json(shifted_qwz_hoppings(2.0, np.pi / 8))}
    for raw, closes in ((shifted, 16), (qwz_config(2.0, tri), 8), (qwz_config(0.0, tri), 8)):
        path = write_config(tmp_path, raw)
        assert run_cli([*command, "--config", path, "--grid", "8"]) == cli.EXIT_GAP
        cfg = cli.ModelConfig(raw)
        symbol = cfg.block_symbol if tri else cfg.symbol
        if closes == 16:
            flatten(symbol(cfg.grid(8)))
        with pytest.raises(GapClosedError) as exc:
            flatten(symbol(cfg.grid(closes)))
        assert capsys.readouterr().err.strip() == f"gap closed: {exc.value}"


def test_tolerance_checks_take_no_svd(tmp_path, monkeypatch):
    # the unreported checks (OSU, projection, base point, flatten's
    # self-adjointness) settle their rounding-noise residuals on the
    # Frobenius bound; z2's reported time-reversal residual is an exact zero
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    path = write_config(tmp_path, qwz_config(1.0, spin_doubling=True))
    assert run_cli(["z2", "--config", path, "--grid", "24"]) == cli.EXIT_OK
    assert calls == []
    path = write_config(tmp_path, qwz_config(1.0), name="block.json")
    assert run_cli(["pair", "--cycle", "ch2", "--config", path, "--grid", "16",
                    "--tol", "1e-4"]) == cli.EXIT_OK
    assert calls == []


def test_floquet_drive_tolerances_take_no_svd(monkeypatch):
    # a drive segment's hermiticity scale comes from its cached eigh, and
    # H_eff's from its eigenvalues
    from dkpair import floquet
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    for branch in floquet.branch_pair(1.0 + 0j, -1.0 + 0j, drive.period):
        floquet.effective_hamiltonian(drive, branch)
    assert calls == []


def test_floquet_builds_one_periodized_evolution_per_branch(tmp_path, monkeypatch,
                                                            capsys):
    # the periodicity check and the degree route share the eps_0 loop
    from dkpair import floquet
    raw = floquet_config(1.0)
    path = write_config(tmp_path, raw)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    files = decoupled_contraction_files(tmp_path, drive)
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


def test_floquet_forms_each_frame_end_once(tmp_path, monkeypatch, capsys):
    # the loops, the periodicity check and the contraction boundary check
    # share each frame's ends: two frames per branch, two ends per frame
    from dkpair import floquet
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    frame = floquet.FrameSegment
    calls = []
    values_at = frame.values_at
    monkeypatch.setattr(frame, "values_at",
                        lambda seg, s: calls.append(s) or values_at(seg, s))
    assert run_cli(["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0.0",
                    "--arc1", repr(np.pi), "--grid", "16", "--tgrid", "64",
                    "--tol", "1e-3", "--strategy", "user_supplied",
                    "--contraction", *files]) == cli.EXIT_OK
    assert read_report(capsys)["status"] == "ok"
    assert len(calls) <= 8


def test_floquet_builds_one_arc_projection_per_grid(tmp_path, monkeypatch, capsys):
    # the branch identity, the reported rank and gap margin and the decoupled
    # route read one arc projection; the refinement check builds its own
    from dkpair import floquet
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    base = ["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0.0",
            "--arc1", repr(np.pi), "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    calls = count_calls(monkeypatch, floquet.arc_projection)
    assert run_cli([*base, "--strategy", "decoupled"]) == cli.EXIT_OK
    assert [drive.grid.sizes for drive in calls] == [(16, 16), (32, 32)]
    assert read_report(capsys)["status"] == "ok"
    calls.clear()
    assert run_cli([*base, "--strategy", "user_supplied",
                    "--contraction", *files]) == cli.EXIT_OK
    assert [drive.grid.sizes for drive in calls] == [(16, 16)]
    assert read_report(capsys)["status"] == "ok"


def test_floquet_reports_rank_and_gap_margin_once(tmp_path, capsys):
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    base = ["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0.0",
            "--arc1", repr(np.pi), "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    for strategy in (["decoupled"], ["user_supplied", "--contraction", *files]):
        assert run_cli([*base, "--strategy", *strategy]) == cli.EXIT_OK
        rep = read_report(capsys)
        assert rep["schema"] == "dkpair-report/4"
        assert [k for k in rep["values"] if "rank" in k] == ["rank"]
        assert [k for k in rep["values"] if "gap_margin" in k] == ["gap_margin"]


def test_floquet_takes_time_reversal_from_the_doubling(tmp_path, monkeypatch, capsys):
    # a spin-doubled drive diag(h(t), f h(T - t)) is time-reversal invariant
    # by construction: no run checks its segments, and the report records
    # the residual 0.0
    from dkpair import floquet
    calls = count_calls(monkeypatch, floquet.check_time_reversal)
    base = ["floquet", "--arc0", "0.0", "--arc1", repr(np.pi), "--grid", "16",
            "--tgrid", "64", "--tol", "1e-3"]
    path = Path(__file__).parent / "data" / "floquet_qwz.json"
    assert run_cli([*base, "--config", str(path), "--strategy", "decoupled"]) \
        == cli.EXIT_OK
    assert read_report(capsys)["status"] == "ok"
    # a second segment of another mass: a block that does not read the same
    # in reverse, whose doubling both strategies run; its spin Chern number
    # is within 1e-3 of 1 from grid 32 on (0.985 at 16)
    raw = floquet_config(1.0)
    hops = {off: 0.5 * mat for off, mat in qwz_hoppings(-1.5).items()}
    raw["drive"]["segments"][1] = {"duration": 0.5, "hoppings": hoppings_json(hops)}
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(32)))
    path = write_config(tmp_path, raw)
    base[base.index("--grid") + 1] = "32"
    for strategy in (["decoupled"], ["user_supplied", "--contraction", *files]):
        assert run_cli([*base, "--config", path, "--strategy", *strategy]) == cli.EXIT_OK
        rep = read_report(capsys)
        assert rep["status"] == "ok"
        assert [c["residual"] for c in rep["checks"] if c["name"] == "time_reversal"] == [0.0]
    assert calls == []


def test_floquet_checks_the_branch_cut_before_the_arc(capsys):
    # an eigenphase of the committed drive at 16 x 16 sits at 0.5, both on the
    # branch cut eps_0 T = arc0 and on the arc endpoint arc0: both strategies
    # check the effective Hamiltonians first, before any contraction file
    path = str(Path(__file__).parent / "data" / "floquet_qwz.json")
    base = ["floquet", "--config", path, "--grid", "16", "--arc0", "0.5", "--arc1", "3.0"]
    for strategy in (["decoupled"], ["user_supplied", "--contraction", "a", "b"]):
        assert run_cli([*base, "--strategy", *strategy]) == cli.EXIT_GAP
        assert capsys.readouterr().err.strip() \
            == "gap closed: eigenphase within 0.000e+00 of the branch cut"


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("arc", [(0.0, np.pi), (0.3, 2.5)])
def test_decoupled_report_matches_the_full_drive(n, arc, capsys):
    # the decoupled route runs on the spin block; the full drive, factorized
    # afresh at double size, gives the same invariant, rank and margin, and
    # its upper block the same spin Chern number
    from dkpair import floquet, models, pairing
    path = str(Path(__file__).parent / "data" / "floquet_qwz.json")
    assert run_cli(["floquet", "--config", path, "--strategy", "decoupled",
                    "--grid", str(n), "--arc0", repr(arc[0]), "--arc1", repr(arc[1]),
                    "--tol", "1e-3"]) == cli.EXIT_OK
    values = read_report(capsys)["values"]
    cfg = cli.ModelConfig.load(path)
    drive = cfg.drive_object(cfg.grid(n))
    full = floquet.ArcInvariant(floquet.FloquetDrive(drive.period, drive.segments),
                                *(complex(np.exp(1j * a)) for a in arc),
                                models.quaternionic_structure(k=0)).arc
    ch = pairing.chern_number(split_blocks(full.projection)[0])
    assert values["k_invariant"]["value"] == round(ch) % 2
    assert values["rank"]["value"] == full.rank
    assert abs(values["spin_chern"]["value"] - ch) <= 1e-12
    assert abs(values["gap_margin"]["value"] - full.gap_margin) <= 1e-12


def test_spin_doubled_floquet_factors_only_block_matrices(tmp_path, monkeypatch, capsys):
    # every pointwise eigensolve over the grid of either strategy, the Cayley
    # transform's included, is of block-size matrices: the doubled drive reads
    # the block's.  (A Gauss rule's Jacobi matrix is one unbatched eigh.)
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    sizes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), **kwargs):
            if a.ndim > 2:
                sizes.append(a.shape[-1])
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    base = ["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0.0",
            "--arc1", repr(np.pi), "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    for strategy in (["decoupled"], ["user_supplied", "--contraction", *files]):
        sizes.clear()
        assert run_cli([*base, "--strategy", *strategy]) == cli.EXIT_OK
        assert read_report(capsys)["status"] == "ok"
        assert sizes and set(sizes) == {raw["matrix_size"]}, strategy


def test_floquet_checks_time_reversal_before_any_gap(tmp_path, capsys):
    # U(T) = exp(-0.4i) everywhere puts every eigenphase on the branch cut at
    # arc0 = -0.4.  The spin-doubled drive of unequal halves is time-reversal
    # invariant, so the closed gap is reported; the same segments doubled as
    # diag(h_j, f h_j), a plain drive, break R(H(t)) = H(-t), and that broken
    # premise is reported before any gap
    from dkpair import floquet, models
    raw = floquet_config(1.0)
    raw["drive"]["segments"] = [
        {"duration": 0.5, "hoppings": hoppings_json({(0, 0): energy * np.eye(2)})}
        for energy in (0.3, 0.5)]
    code = run_cli(["floquet", "--config", write_config(tmp_path, raw), "--arc0", "-0.4",
                    "--arc1", "3.0", "--grid", "8", "--tgrid", "32"])
    assert code == cli.EXIT_GAP
    assert capsys.readouterr().err.strip() \
        == "gap closed: eigenphase within 0.000e+00 of the branch cut"
    block = cli.ModelConfig(raw).drive_object(cli.ModelConfig(raw).grid(8)).block
    plain = floquet.FloquetDrive(block.period, tuple((tau, models.spin_double(h))
                                                     for tau, h in block.segments))
    with pytest.raises(ValueError) as err:
        floquet.ArcInvariant(plain, complex(np.exp(-0.4j)), complex(np.exp(3j)),
                             models.quaternionic_structure(k=0))
    assert str(err.value) == "drive is not time-reversal invariant (residual 2.000e-01)"


def test_cmd_floquet_reports_branch_degrees(tmp_path, capsys):
    # each branch's degree with its nearest integer and distance to it, as
    # the API's degree difference gives them
    from dkpair import floquet, models
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    drive = cfg.drive_object(cfg.grid(16))
    files = decoupled_contraction_files(tmp_path, drive)
    assert run_cli(["floquet", "--config", write_config(tmp_path, raw),
                    "--arc0", "0.0", "--arc1", repr(np.pi), "--grid", "16",
                    "--tgrid", "64", "--strategy", "user_supplied",
                    "--contraction", *files]) == cli.EXIT_OK
    rep = read_report(capsys)
    loops = [floquet.periodized_evolution(drive, b, 64)
             for b in floquet.branch_pair(1.0 + 0j, np.exp(1j * np.pi), drive.period)]
    _, want = floquet.degree_difference(
        loops, [read_contraction_grid(f) for f in files],
        models.quaternionic_structure(k=0))
    got = [rep["values"][f"degree_branch{b}"] for b in (0, 1)]
    assert [g["value"] for g in got] == list(want)
    for g in got:
        assert g["rounded"] == round(g["value"])
        assert g["residual"] == abs(g["value"] - g["rounded"]) < 1e-4
    assert (got[1]["rounded"] - got[0]["rounded"]) % 2 \
        == rep["values"]["k_invariant"]["value"] == 1.0


def test_import_loads_no_scipy():
    # dkpair's start-up pays for numpy alone; scipy would add ~0.2 s per process
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, dkpair; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert out.stdout.strip() == "[]"


def test_committed_floquet_config_is_the_test_drive():
    # the console-script step of the CI workflow runs this file
    path = Path(__file__).parent / "data" / "floquet_qwz.json"
    assert json.loads(path.read_text()) == floquet_config(1.0)


def test_decoupled_floquet_materializes_no_loop_nodes(monkeypatch, capsys):
    # the periodicity check reads the loop's endpoints from its frames
    from dkpair import floquet, kclass
    seg_cls = floquet._AnalyticSegment
    reads = []
    values = seg_cls.values.fget
    monkeypatch.setattr(seg_cls, "values", property(
        lambda seg: reads.append("values") or values(seg)))
    quadrature = seg_cls.quadrature
    monkeypatch.setattr(seg_cls, "quadrature", lambda seg, *axes:
                        reads.append("quadrature") or quadrature(seg, *axes))
    built = count_calls(monkeypatch, kclass.ClosedSegment)
    path = Path(__file__).parent / "data" / "floquet_qwz.json"
    assert run_cli(["floquet", "--config", str(path), "--strategy", "decoupled",
                    "--arc0", "0", "--arc1", "3.14159265", "--grid", "16",
                    "--tgrid", "64", "--tol", "1e-3"]) == cli.EXIT_OK
    assert read_report(capsys)["status"] == "ok"
    assert reads == [] and built == []


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


def test_failed_integerness_prints_report(tmp_path, capsys):
    # at grid 16 and the default --tol the Chern numbers are 9.75e-6 off an
    # integer: the run records that, prints its report and exits 3
    data = Path(__file__).parent / "data"
    block_path = write_config(tmp_path, qwz_config(1.0))
    floquet = ["floquet", "--config", str(data / "floquet_qwz.json"), "--arc0", "0",
               "--arc1", "3.14159265", "--strategy", "decoupled"]
    for argv, failed in (
            (["z2", "--config", str(data / "z2_qwz.json")],
             ["spin_chern_integer", "torsion_refinement"]),
            (["pair", "--cycle", "ch2", "--config", block_path],
             ["chern_integer", "chern_consistency"]),
            (floquet, ["spin_chern_integer"])):
        assert run_cli([*argv, "--grid", "16"]) == cli.EXIT_CONVERGENCE
        rep = read_report(capsys)
        assert rep["status"] == "failed"
        assert [c["name"] for c in rep["checks"] if not c["passed"]] == failed
        bad = [c["residual"] for c in rep["checks"] if not c["passed"]]
        assert all(1e-6 < r < 1e-5 for r in bad), bad
    # the floquet report keeps the drive checks computed before the verdict
    assert {"branch_identity", "time_reversal", "periodicity"} \
        <= {c["name"] for c in rep["checks"] if c["passed"]}
    assert rep["values"]["spin_chern"]["rounded"] == -1
    # stored halves of the anomalous drive at 16^2 put each branch degree
    # 4.2e-3 off -1, over the degree bound
    path = str(data / "floquet_rlbl.json")
    cfg = cli.ModelConfig.load(path)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    assert run_cli(["floquet", "--config", path, "--strategy", "user_supplied",
                    "--grid", "16", "--arc0", "0", "--arc1", repr(np.pi),
                    "--contraction", *files]) == cli.EXIT_CONVERGENCE
    rep = read_report(capsys)
    assert rep["status"] == "failed"
    assert [c["name"] for c in rep["checks"] if not c["passed"]] \
        == ["degree_branch0_integer", "degree_branch1_integer"]
    for b in (0, 1):
        degree = rep["values"][f"degree_branch{b}"]
        check, = [c for c in rep["checks"] if c["name"] == f"degree_branch{b}_integer"]
        assert degree["rounded"] == -1
        assert check["residual"] == degree["residual"] > check["tolerance"] == 1e-3


def test_floquet_forms_no_doubled_segment(tmp_path, monkeypatch, capsys):
    # every solve of a spin-doubled drive reads its block's segments and
    # eigendata: neither strategy forms a 2m x 2m segment array
    from dkpair import floquet
    raw = floquet_config(1.0)
    cfg = cli.ModelConfig(raw)
    files = decoupled_contraction_files(tmp_path, cfg.drive_object(cfg.grid(16)))
    reads = []
    formed = floquet.SpinDoubledDrive.segments.func
    monkeypatch.setattr(floquet.SpinDoubledDrive, "segments",
                        property(lambda drive: reads.append(drive) or formed(drive)))
    base = ["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0.0",
            "--arc1", repr(np.pi), "--grid", "16", "--tgrid", "64", "--tol", "1e-3"]
    for strategy in (["decoupled"], ["user_supplied", "--contraction", *files]):
        assert run_cli([*base, "--strategy", *strategy]) == cli.EXIT_OK
        assert read_report(capsys)["status"] == "ok"
    assert reads == []


def test_anomalous_rlbl_drive_has_odd_branch_degrees(capsys):
    # the spin doubling of the anomalous drive of Rudner, Lindner, Berg and
    # Levin (PRX 3, 031005 (2013)): four hopping steps of J T / 5 = pi / 2,
    # each moving a particle wholly to the other sublattice, then a sublattice
    # potential.  U(T) = exp(-0.5 i sigma_z) at every k, so the arc projection
    # is flat and its spin Chern parity 0, while each branch's degree is odd
    from dkpair import floquet
    path = str(Path(__file__).parent / "data" / "floquet_rlbl.json")
    assert run_cli(["floquet", "--config", path, "--strategy", "decoupled", "--grid", "16",
                    "--arc0", "0", "--arc1", repr(np.pi)]) == cli.EXIT_OK
    rep = read_report(capsys)
    assert rep["status"] == "ok"
    assert rep["values"]["k_invariant"]["value"] == 0.0
    cfg = cli.ModelConfig.load(path)
    drive = cfg.drive_object(cfg.grid(16))
    assert isinstance(drive, floquet.SpinDoubledDrive) and len(drive.durations) == 5
    for branch in floquet.branch_pair(1.0 + 0j, -1.0 + 0j, drive.period):
        deg = floquet.degree_t3(floquet.decoupled_contraction(
            floquet.periodized_evolution(drive, branch)))
        assert abs(deg - round(deg)) <= 1e-12 and round(deg) % 2 == 1


def test_floquet_rejects_rashba_terms(tmp_path, capsys):
    # a drive's spin blocks stay decoupled, so rashba terms would be dropped
    raw = floquet_config(1.0)
    raw["rashba"] = hoppings_json({(0, 0): 0.1 * np.eye(2)})
    assert run_cli(["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0",
                    "--arc1", "3.0", "--grid", "8"]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "rashba" in err


@pytest.mark.parametrize("duration", [None, "half", [0.5], {"value": 0.5}],
                         ids=["missing", "string", "list", "object"])
def test_floquet_rejects_a_malformed_drive_duration(tmp_path, capsys, duration):
    # a missing or non-numeric duration names its segment and exits 2
    raw = floquet_config(1.0)
    segment = dict(raw["drive"]["segments"][1])
    if duration is None:
        del segment["duration"]
    else:
        segment["duration"] = duration
    raw["drive"]["segments"][1] = segment
    assert run_cli(["floquet", "--config", write_config(tmp_path, raw), "--arc0", "0",
                    "--arc1", "3.0", "--grid", "8"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.strip() \
        == "validation error: drive[1]: missing or non-numeric duration"


def replaced(raw, path, value):
    """raw with its entry at `path`, a list of keys and indices, replaced by
    value; the empty path replaces raw itself."""
    if not path:
        return value
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


PAIR_CH0 = ["pair", "--cycle", "ch0"]
FLOQUET_ARC = ["floquet", "--arc0", "0", "--arc1", "3.0"]
MATRIX_ENTRY = ["hoppings", 0, "matrix", 0, 0, 0]


@pytest.mark.parametrize("command, path, value, field", [
    (PAIR_CH0, [], [floquet_config(1.0)], "config"),
    (PAIR_CH0, ["matrix_size"], "two", "matrix_size"),
    (FLOQUET_ARC, ["drive", "period"], None, "drive.period"),
    (PAIR_CH0, ["hoppings"], 3, "hoppings"),
    (FLOQUET_ARC, ["drive", "segments", 0, "hoppings"], 3, "drive[0].hoppings"),
    (FLOQUET_ARC, ["drive", "segments"], 3, "drive"),
    (["pair", "--cycle", "ch2"], MATRIX_ENTRY, float("nan"), "hoppings[0].matrix"),
    (["z2"], MATRIX_ENTRY, float("nan"), "hoppings[0].matrix"),
    (PAIR_CH0, ["dimension"], float("inf"), "dimension"),
    (PAIR_CH0, ["hoppings", 0, "offset"], [float("inf"), 0], "hoppings[0]"),
    (FLOQUET_ARC, ["drive", "period"], float("inf"), "drive.period"),
    (["z2"], ["spin_doubling"], "no", "spin_doubling"),
    (PAIR_CH0, ["dimension"], 2.5, "dimension"),
    (PAIR_CH0, ["matrix_size"], 2.9, "matrix_size"),
    (PAIR_CH0, ["dimension"], True, "dimension"),
    (PAIR_CH0, ["hoppings", 0, "offset"], [1.7, 0], "hoppings[0]"),
    (["z2"], ["real_structure"], "none", "real_structure"),
    (PAIR_CH0, ["spin_doubling"], False, "real_structure"),
    (PAIR_CH0, ["dimension"], "2", "dimension"),
    (FLOQUET_ARC, ["drive", "period"], "1.0", "drive.period"),
    (FLOQUET_ARC, ["drive", "segments", 0, "duration"], "0.5", "drive[0]"),
    (FLOQUET_ARC, ["drive", "segments", 0, "duration"], True, "drive[0]"),
    (PAIR_CH0, MATRIX_ENTRY, "1.0", "hoppings[0].matrix"),
    (PAIR_CH0, MATRIX_ENTRY, True, "hoppings[0].matrix"),
], ids=["top_level_list", "matrix_size_string", "null_period", "number_hoppings",
        "number_segment_hoppings", "number_segments", "nan_entry_pair", "nan_entry_z2",
        "infinite_dimension", "infinite_offset", "infinite_period", "string_spin_doubling",
        "fractional_dimension", "fractional_matrix_size", "boolean_dimension",
        "fractional_offset", "none_with_spin_doubling", "quaternionic_without_spin_doubling",
        "string_dimension", "string_period", "string_duration", "boolean_duration",
        "string_matrix_entry", "boolean_matrix_entry"])
def test_malformed_config_is_a_validation_error_naming_its_field(tmp_path, capsys, command,
                                                                 path, value, field):
    # each one crashed, exited 3 from the solver, was read as another value
    # (spin_doubling as true, a fractional or boolean integer field rounded
    # down, a number given as a string read as that number, a boolean
    # duration or matrix entry as 1.0) or, for real_structure, went unread,
    # before it was checked at load
    raw = replaced(floquet_config(1.0), path, value)
    assert run_cli([*command, "--config", write_config(tmp_path, raw),
                    "--grid", "8"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"validation error: {field}: ")
