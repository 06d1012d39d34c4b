import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from wellpose import cli


def _read(path: Path):
    return json.loads(path.read_text())


COARSE_INSTANCE = {
    "kind": "segment",
    "a": [-1.0, 0.0],
    "b": [1.0, 0.0],
    "n_samples": 201,
    "base": "linf",
    "mesh": 5e-3,
    "p": [0.0, 2.0],
    "witness_points": [[0.0, 2.0], [0.5, 2.0], [-0.5, 2.0]],
}


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_vime_command(tmp_path):
    out = tmp_path / "v"
    code = cli.main(["vime", "--steps", "99", "--out", str(out)])
    assert code == 0
    report = _read(out / "vime_report.json")
    assert report["value_function_lipschitz_ok"]
    assert all(r["ok"] for r in report["reports"])
    assert report["value_at_ends"] == [-1.0, -1.0]


def test_vime_rejects_bad_eps_grid(tmp_path):
    code = cli.main(["vime", "--steps", "99", "--eps-grid", "0.9",
                     "--out", str(tmp_path / "v")])
    assert code == 2  # eps outside (0, 1/2) is a usage error


@pytest.mark.parametrize("argv", [
    ["perturb", "--eps", "0"],
    ["perturb", "--eps", "-0.5"],
    ["perturb", "--eps", "nan"],
    ["modulus", "--eps-grid", "inf"],
    ["modulus", "--eps-grid", "0.1,nan"],
    ["vime", "--eps-grid", "-inf"],
    ["steckin", "--delta-grid", "0.1,inf"],
    ["modulus", "--eps-grid", "0.1,abc"],
    ["vime", "--eps-grid", ","],
    ["perturb", "--eps", "abc"],
    ["vime", "--steps", "ten"],
    ["modulus", "--steps", "2.5"],
    # numpy refuses a negative seed only when a generator is built, which
    # steckin did after its whole renorming, with ledger.json written
    ["perturb", "--seed", "-1"],
    ["steckin", "--seed", "-1"],
    ["verify", "--seed", "-1"],
])
def test_bad_numbers_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_perturb_with_a_given_eps(tmp_path):
    # argparse applies type= to the text of --eps, never to its float default
    out = tmp_path / "p"
    assert cli.main(["perturb", "--eps", "0.25", "--out", str(out)]) == 0
    report = _read(out / "perturb_report.json")
    assert all(r["eps"] <= 0.25 and r["ok"] for r in report["density_runs"])
    assert any(r["eps"] == 0.25 for r in report["density_runs"])


@pytest.mark.parametrize("command", ["modulus", "vime"])
def test_oversized_steps_are_refused_before_allocating(command, tmp_path, monkeypatch, capsys):
    import wellpose.parametric as parametric

    def unreachable(*args):
        raise AssertionError("vime_family reached")

    monkeypatch.setattr(parametric, "vime_family", unreachable)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--steps", "999999999", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "value table" in capsys.readouterr().err
    # the largest accepted size reaches the family builder
    with pytest.raises(AssertionError, match="vime_family reached"):
        cli.main([command, "--steps", "4095", "--out", str(tmp_path / "o")])


def test_modulus_command(tmp_path):
    out = tmp_path / "m"
    code = cli.main(["modulus", "--steps", "99", "--out", str(out)])
    assert code == 0
    index = _read(out / "modulus_index.json")
    assert len(index["curves"]) == 5
    for entry in index["curves"]:
        csv_file = out / entry["file"]
        lines = csv_file.read_text().strip().splitlines()
        assert lines[0] == "eps,diam"
        assert len(lines) == 50  # header + default 49-point grid


def test_perturb_command_and_determinism(tmp_path):
    out1 = tmp_path / "p1"
    out2 = tmp_path / "p2"
    assert cli.main(["perturb", "--seed", "7", "--out", str(out1)]) == 0
    assert cli.main(["perturb", "--seed", "7", "--out", str(out2)]) == 0
    text1 = (out1 / "perturb_report.json").read_text()
    text2 = (out2 / "perturb_report.json").read_text()
    assert text1 == text2
    report = json.loads(text1)
    assert report["axioms"]["all_ok"]
    assert all(r["ok"] for r in report["density_runs"])


def test_steckin_default_coarse_run(tmp_path):
    out = tmp_path / "s"
    code = cli.main(["steckin", "--mesh", "0.005", "--out", str(out)])
    assert code == 0
    ledger = _read(out / "ledger.json")
    assert ledger["success"] and ledger["reason"] is None
    assert len(ledger["steps"]) == 3
    assert ledger["spent"] <= ledger["eps_total"] == 0.3
    report = _read(out / "report.json")
    assert report["success"]
    assert report["rho_total"]["value"] <= 0.3 + 1e-12
    assert report["a_final"]["equivalent"]
    for pp in report["per_point"]:
        assert pp["diam"] < pp["eps_step"]
        csv_file = out / f"modulus_p{pp['index']:03d}.csv"
        assert csv_file.read_text().startswith("delta,diam\n")
    nu_desc = _read(out / "nu_final.json")
    assert nu_desc["kind"] == "sum"


def test_steckin_instance_file_and_determinism(tmp_path):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(COARSE_INSTANCE))
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    for out in (out1, out2):
        code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)])
        assert code == 0
    for name in ("ledger.json", "report.json", "nu_final.json"):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_steckin_bad_instance_file(tmp_path, capsys):
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(json.dumps({"kind": "nonsense"}))
    code = cli.main(["steckin", "--instance", str(inst_file),
                     "--out", str(tmp_path / "s")])
    assert code == 2
    assert "bad instance" in capsys.readouterr().err


@pytest.mark.parametrize("witnesses, message", [
    ([], "witness_points must not be empty"),
    ([[0.0, 2.0], [float("nan"), 2.0]], "witness points and p must be finite"),
    ([[float("inf"), 2.0]], "witness points and p must be finite"),
    ([[0.0, float("-inf")]], "witness points and p must be finite"),
])
def test_steckin_unusable_witness_points(witnesses, message, tmp_path, capsys):
    inst = {k: v for k, v in COARSE_INSTANCE.items() if k != "p"}
    inst["witness_points"] = witnesses
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(inst))  # nan and inf as NaN and Infinity
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad instance" in err and message in err


def test_steckin_witness_at_distance_0_from_the_body(tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps({"kind": "segment", "a": [0.5, 0.5], "b": [0.5, 0.5],
                                     "p": [0.5, 0.5], "n_samples": 11, "mesh": 0.05}))
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "is at distance 0" in capsys.readouterr().err


@pytest.mark.parametrize("inst, message", [
    # |b - a| overflows: numpy's norm warned, and 3 c_p = inf made every radius 0
    ({"a": [0.0, 0.0], "b": [1e308, 0.0]}, "is too long: its length overflows"),
    ({"a": [-1e308, 0.0], "b": [1e308, 0.0]}, "is too long: its length overflows"),
    ({"a": [0.0, 0.0], "b": [1.0, 0.0], "p": [1e308, 0.0]}, "3 c_p overflows"),
    # a euclidean distance of about 1.41e308 is finite, three times it is not
    ({"a": [0.0, 0.0], "b": [1.0, 0.0], "p": [1e308, 1e308], "base": "euclidean"},
     "3 c_p overflows"),
])
def test_steckin_huge_segment_or_witness(inst, message, tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps({"kind": "segment", "n_samples": 11, "mesh": 0.05, **inst}))
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_steckin_euclidean_witness_at_a_finite_huge_distance_runs(tmp_path, capsys):
    # its squared distance, 1e400, overflows a float, but c_p = 1e200 does
    # not: the witness is not rejected as too far, and its step runs
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps({"kind": "segment", "n_samples": 11, "mesh": 0.05,
                                     "a": [0.0, 0.0], "b": [1.0, 0.0], "p": [1e200, 0.0],
                                     "base": "euclidean"}))
    out = tmp_path / "s"
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)])
    assert code == 4
    assert "step_failed" in capsys.readouterr().err
    ledger = _read(out / "ledger.json")
    assert ledger["reason"] == "step_failed" and ledger["steps"] == []


def test_steckin_far_off_hull_witness_fails_without_a_warning(tmp_path, capsys):
    # the witness's squared distance off the segment's line overflows a
    # float; the hull test must still answer "outside" without a warning
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps({"kind": "segment", "a": [-1, 0], "b": [1, 0],
                                     "p": [0, 1e200]}))
    out = tmp_path / "s"
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)])
    assert code == 4
    assert "step_failed" in capsys.readouterr().err
    assert _read(out / "ledger.json")["reason"] == "step_failed"


def test_steckin_segment_at_the_edge_of_the_float_range(tmp_path):
    # the vertices' sum overflows (-2e308); the hull's centre must not, and
    # the run must match the same segment moved to x = 0 (pytest turns a
    # RuntimeWarning into an error)
    def run(x, name):
        inst_file = tmp_path / f"{name}.json"
        inst_file.write_text(json.dumps({"kind": "segment", "a": [x, 0], "b": [x, 1],
                                         "p": [x, 5], "n_samples": 11, "mesh": 0.05}))
        out = tmp_path / name
        assert cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)]) == 0
        ledger = _read(out / "ledger.json")
        for step in ledger["steps"]:
            assert step.pop("point") == [x, 5.0]
        return ledger

    edge = run(-1e308, "edge")
    assert edge["success"] and edge["steps"]
    assert edge == run(0.0, "origin")


@pytest.mark.parametrize("verts, message", [
    # the squared width overflows
    ([[0, 0], [1e200, 0], [0, 1]], "the vertex spread is too wide"),
    # finite but thin: its width lies within the rounding of its hull coordinates
    ([[0, 0], [1e150, 0], [0, 1]], "too thin to hull"),
])
def test_steckin_polytope_qhull_cannot_hull(verts, message, tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps({"kind": "polytope", "vertices": verts, "n_samples": 64,
                                     "mesh": 0.05, "witness_points": [[2.0, 2.0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Warning" not in err


def test_steckin_mesh_with_an_instance_is_a_usage_error(tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(COARSE_INSTANCE))
    code = cli.main(["steckin", "--instance", str(inst_file), "--mesh", "0.5",
                     "--out", str(tmp_path / "s")])
    assert code == 2
    assert '"mesh" field' in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_steckin_instance_with_a_seminorm_tree_base(tmp_path):
    # the sup norm spelled out as a tree: max(|x|, |y|)
    tree = {"kind": "max", "children": [{"kind": "abslinear", "coef": [1.0, 0.0]},
                                        {"kind": "abslinear", "coef": [0.0, 1.0]}]}
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(dict(COARSE_INSTANCE, base=tree)))
    outs = [tmp_path / "s1", tmp_path / "s2"]
    for out in outs:
        assert cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert "nu_final.json" in names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_text() == (outs[1] / name).read_text()
    assert _read(outs[0] / "ledger.json")["success"]


def test_steckin_unknown_base_name(tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(dict(COARSE_INSTANCE, base="l7")))
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "unknown base norm 'l7'" in capsys.readouterr().err


def test_steckin_fractional_sample_count(tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(dict(COARSE_INSTANCE, n_samples=2.5)))
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "n_samples must be an integer" in capsys.readouterr().err


def test_out_under_a_regular_file_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    code = cli.main(["perturb", "--out", str(tmp_path / "afile" / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "afile" in err


def test_steckin_non_finite_p(tmp_path, capsys):
    inst = dict(COARSE_INSTANCE, p=[float("nan"), 2.0])
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(inst))
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(tmp_path / "s")])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_steckin_missing_instance_file(tmp_path):
    code = cli.main(["steckin", "--instance", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "s")])
    assert code == 2


def test_steckin_budget_over_equivalence_margin(tmp_path, capsys):
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(COARSE_INSTANCE))
    code = cli.main(["steckin", "--instance", str(inst_file), "--eps-total", "1.5",
                     "--out", str(tmp_path / "s")])
    assert code == 2
    assert "precondition" in capsys.readouterr().err


def test_steckin_tiny_budget_names_eps(tmp_path, capsys):
    # the default delta grid's halvings eps / 2^k underflow to 0; the
    # error used to blame a delta grid the user never gave
    code = cli.main(["steckin", "--mesh", "5e-3", "--eps-total", "1e-320",
                     "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: eps 5e-321 is too small for the default delta grid" in err
    assert "delta grid must be positive" not in err


def test_steckin_budget_exhaustion(tmp_path, capsys):
    inst = dict(COARSE_INSTANCE)
    inst["witness_points"] = [[0.1 * k, 2.0] for k in range(-6, 7)]
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(inst))
    out = tmp_path / "s"
    code = cli.main(["steckin", "--instance", str(inst_file), "--out", str(out)])
    assert code == 4
    assert "budget_exhausted" in capsys.readouterr().err
    ledger = _read(out / "ledger.json")  # partial ledger still written
    assert not ledger["success"]
    assert ledger["reason"] == "budget_exhausted"
    assert not (out / "report.json").exists()


def test_steckin_replay_error_exit_code(tmp_path, monkeypatch, capsys):
    import wellpose.seminorms as seminorms
    from wellpose.seminorms import Scale

    # corrupt the round-trip deserializer: the CLI must notice that the
    # serialized final seminorm no longer reproduces its evaluations
    real = seminorms.seminorm_from_json
    monkeypatch.setattr(seminorms, "seminorm_from_json",
                        lambda desc: Scale(0.5, real(desc)))
    inst_file = tmp_path / "instance.json"
    inst_file.write_text(json.dumps(COARSE_INSTANCE))
    code = cli.main(["steckin", "--instance", str(inst_file),
                     "--out", str(tmp_path / "s")])
    assert code == 3
    assert "replay error" in capsys.readouterr().err


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "v"
    code = cli.main(["verify", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASS" in captured and "FAIL" not in captured
    report = _read(out / "verify_report.json")
    assert all(entry["passed"] for entry in report)


def test_verify_inject_fault(capsys):
    code = cli.main(["verify", "--inject-fault"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_snapshot_script_on_verify(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "cli_snapshot.py"
    proc = subprocess.run([sys.executable, str(script), str(tmp_path), "verify"],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "verify: exit 0\n"
    console = (tmp_path / "verify" / "console.txt").read_text()
    assert console.startswith("exit 0\n") and "FAIL" not in console
    report = _read(tmp_path / "verify" / "verify_report.json")
    assert report and all(entry["passed"] for entry in report)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verify"]


def _src_env():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_wellpose(tmp_path):
    run = [sys.executable, "-m", "wellpose"]
    proc = subprocess.run(run + ["--help"], env=_src_env(), capture_output=True,
                          text=True, timeout=60, check=False)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: wellpose")
    proc = subprocess.run(run + ["perturb", "--eps", "0", "--out", str(tmp_path / "o")],
                          env=_src_env(), capture_output=True, text=True, timeout=60,
                          check=False)
    assert proc.returncode == 2 and "--eps" in proc.stderr


def test_import_does_not_load_the_lp_solver():
    code = "import sys, wellpose; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout == "False\n"


def _loaded_after(code: str, *modules: str) -> list[bool]:
    probe = f"import sys\n{code}\nprint([m in sys.modules for m in {modules!r}])"
    proc = subprocess.run([sys.executable, "-c", probe], env=_src_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(proc.stdout.lower())


def test_renorming_a_segment_loads_no_solver():
    run = ("from wellpose.instances import segment_instance\n"
           "from wellpose.steckin import baire_renorm\n"
           "inst = segment_instance()\n"
           "rep = baire_renorm(inst.nu0, inst.body, inst.witness_points, 0.3, 5, inst.setting)\n"
           "assert rep.success")
    assert _loaded_after(run, "scipy.optimize", "scipy.spatial") == [False, False]


def test_building_bodies_loads_no_hull_code():
    build = ("from wellpose.steckin import polytope_body, segment_body\n"
             "segment_body([0.0, 0.0], [1.0, 0.0])\n"
             "polytope_body([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], n_samples=64)")
    assert _loaded_after(build, "scipy.spatial") == [False]
    # the first membership query builds the facets: in closed form for a
    # polygon, by qhull for a 3-dimensional hull
    query = build.replace("n_samples=64)", "n_samples=64).contains([0.2, 0.2])")
    assert _loaded_after(query, "scipy.spatial") == [False]
    query = build + ("\npolytope_body([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],"
                     " [0.0, 0.0, 1.0]], n_samples=64).contains([0.2, 0.2, 0.2])")
    assert _loaded_after(query, "scipy.spatial") == [True]


def test_renorming_on_a_polygon_loads_no_hull_code():
    root = Path(__file__).resolve().parent.parent
    instance = root / "scripts" / "steckin_l1_polytope.json"
    run = ("import json, pathlib\n"
           "from wellpose.instances import steckin_instance_from_json\n"
           "from wellpose.steckin import baire_renorm\n"
           f"inst = steckin_instance_from_json(json.loads(pathlib.Path({str(instance)!r}).read_text()))\n"
           "rep = baire_renorm(inst.nu0, inst.body, inst.witness_points, 0.3, 5, inst.setting)\n"
           "assert rep.success and inst.body.contains(inst.body.vertices.mean(axis=0))")
    assert _loaded_after(run, "scipy.optimize", "scipy.spatial") == [False, False]


def _run_script(name, *args):
    root = Path(__file__).resolve().parent.parent
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args], env=_src_env(),
                          capture_output=True, text=True, timeout=300, check=False)


def test_vime_demo_script():
    proc = _run_script("run_vime_demo.py", "--steps", "99")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "family: 99 steps, V(0) = -1.000000, V(1) = -1.000000"
    rows = [line.split() for line in lines[2:-1]]
    assert [r[0] for r in rows] == ["0.05", "0.10", "0.20", "0.30", "0.40", "0.49"]
    assert all(r[1] == "True" for r in rows)
    assert rows[-1][2:] == ["0.1616", "0.1616"]


def test_steckin_renorm_script():
    proc = _run_script("run_steckin_renorm.py")
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.count("success=True") == 2
    assert "step 0: point=(0.0, 2.0) eps=1.000e-01 status=perturbed" in out
    with_terms = float(out.split("with all terms:")[1].split()[1])
    without = float(out.split("without step 0's terms:")[1].split()[1])
    assert with_terms < 0.1 <= without
