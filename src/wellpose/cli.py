"""Command line front end.

Subcommands: vime, modulus, perturb, steckin, verify; run as
``wellpose COMMAND`` or ``python -m wellpose COMMAND``.  Heavy imports
stay inside the command functions so --help is instant.  Numeric options
are checked before any work starts.

Exit codes: 0 success, 1 a checked property failed, 2 usage or malformed
input, 3 an internal replay failed (bug indicator), 4 renorming budget
exhausted or a renorming step failed.

Outputs are deterministic for a fixed seed: keys are sorted, floats are
emitted with shortest round-trip precision, nothing carries a timestamp.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

__all__ = ["main"]

# largest (steps + 1)^2 value table --steps may ask vime_family for:
# 2^24 float64 cells, 128 MiB, so steps <= 4095
_MAX_TABLE_CELLS = 1 << 24


def _numpy_value(obj):
    """json.dumps's hook for what it cannot write itself: a numpy scalar or
    array becomes Python numbers (a float64 is a float, so it never gets
    here)."""
    import numpy as np

    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=_numpy_value) + "\n")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not vals:
        raise argparse.ArgumentTypeError("empty grid")
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"grid values must be finite: {text!r}")
    return vals


def _positive_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not (math.isfinite(val) and val > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite: {text!r}")
    return val


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc


def _seed(text: str) -> int:
    val = _int(text)
    if val < 0:  # numpy's generators take no negative seed
        raise argparse.ArgumentTypeError(f"must be a non-negative integer: {text!r}")
    return val


def _steps(text: str) -> int:
    val = _int(text)
    if (val + 1) ** 2 > _MAX_TABLE_CELLS:
        raise argparse.ArgumentTypeError(
            f"{val} steps need a ({val + 1})^2 value table, more than {_MAX_TABLE_CELLS} cells")
    return val


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_vime(args) -> int:
    import numpy as np

    from .parametric import no_continuous_selection_demo, value_function, vime_family

    fam = vime_family(args.steps, args.steps)
    eps_grid = args.eps_grid or (0.1, 0.3, 0.49)
    reports = []
    all_ok = True
    for eps in eps_grid:
        rep = no_continuous_selection_demo(fam, eps)
        all_ok = all_ok and rep.ok
        reports.append({
            "eps": eps, "ok": rep.ok, "left_ok": rep.left_ok,
            "right_ok": rep.right_ok, "gap_ok": rep.gap_ok,
            "gap_interval": rep.gap_interval, "bad_p": rep.bad_p,
        })
    vals = value_function(fam)
    ps = np.arange(args.steps + 1) / args.steps
    slopes = np.abs(np.diff(vals)) / np.diff(ps)
    value_ok = bool(np.all(slopes <= 1.0 + 1e-12))
    out = _out_dir(args)
    _write_json(out / "vime_report.json", {
        "steps": args.steps,
        "reports": reports,
        "value_function_lipschitz_ok": value_ok,
        "value_at_ends": [vals[0], vals[-1]],
    })
    print(f"wrote {out / 'vime_report.json'}")
    return 0 if (all_ok and value_ok) else 1


def _cmd_modulus(args) -> int:
    from .objectives import wellposedness_modulus
    from .parametric import vime_family

    fam = vime_family(args.steps, args.steps)
    eps_grid = args.eps_grid or tuple(k / 100.0 for k in range(1, 50))
    n = fam.params.space.n
    picks = sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})
    out = _out_dir(args)
    index = []
    for k in picks:
        curve = wellposedness_modulus(fam.objective(k), eps_grid)
        path = out / f"modulus_p{k:03d}.csv"
        path.write_text(curve.to_csv())
        index.append({"p_index": k, "file": path.name,
                      "max_diam": max(curve.diam_values)})
    _write_json(out / "modulus_index.json", {"steps": args.steps, "curves": index})
    print(f"wrote {len(picks)} curves to {out}")
    return 0


def _cmd_perturb(args) -> int:
    import numpy as np

    from .instances import random_objective, random_perturbation, random_space
    from .parametric import vime_family
    from .perturbation import buc_density_step, check_pert_axioms

    rng = np.random.default_rng(args.seed)
    runs = []
    all_ok = True
    for k in range(20):
        sp = random_space(rng, max_n=60)
        dia = sp.diameter()
        if dia <= 0.0:
            continue
        f = random_objective(rng, sp, inf_prob=0.1)
        g = random_perturbation(rng, sp, 1.0)
        e = min(args.eps, 0.999 * dia)
        step = buc_density_step(f, g, e)
        ok = bool(step.achieved_diam <= e and step.distance_moved <= e)
        all_ok = all_ok and ok
        runs.append({"trial": k, "n": sp.n, "eps": e, "center": step.center,
                     "achieved_diam": step.achieved_diam,
                     "distance_moved": step.distance_moved, "ok": ok})
    fam = vime_family(99, 99)
    axioms = check_pert_axioms(fam, sample_p=(0, 50, 99), eps_list=(0.1, 0.3))
    all_ok = all_ok and axioms["all_ok"]
    out = _out_dir(args)
    _write_json(out / "perturb_report.json",
                {"seed": args.seed, "density_runs": runs, "axioms": axioms})
    print(f"wrote {out / 'perturb_report.json'}")
    return 0 if all_ok else 1


def _cmd_steckin(args) -> int:
    import numpy as np

    from .errors import ReplayError
    from .instances import segment_instance, steckin_instance_from_json
    from .seminorms import seminorm_from_json, seminorm_to_json
    from .steckin import baire_renorm

    if args.instance:
        if args.mesh is not None:
            print('error: --mesh applies to the built-in segment only; an instance file '
                  'sets its mesh in its "mesh" field', file=sys.stderr)
            return 2
        try:
            desc = json.loads(Path(args.instance).read_text())
            inst = steckin_instance_from_json(desc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad instance file: {exc}", file=sys.stderr)
            return 2
    else:
        inst = segment_instance(mesh=1e-3 if args.mesh is None else args.mesh)
    delta_grid = args.delta_grid
    report = baire_renorm(inst.nu0, inst.body, inst.witness_points,
                          eps_total=args.eps_total, n_target=args.n_target,
                          setting=inst.setting, delta_grid=delta_grid)
    out = _out_dir(args)
    ledger_obj = {
        "eps_total": report.ledger.eps_total,
        "spent": report.ledger.spent,
        "success": report.success,
        "reason": report.reason,
        "steps": [{
            "index": s.index, "point": s.point, "eps_step": s.eps_step,
            "status": s.status, "delta": s.delta,
            "achieved_diam": s.achieved_diam, "c_p": s.c_p,
            "radius": s.radius, "moved": s.moved, "x_star": s.x_star,
        } for s in report.ledger.steps],
    }
    _write_json(out / "ledger.json", ledger_obj)
    if not report.success:
        print(f"renorming failed: {report.reason} (ledger written to {out})",
              file=sys.stderr)
        return 4

    nu_desc = seminorm_to_json(report.nu_final)
    probe = np.random.default_rng(args.seed).normal(0.0, 2.0, size=(64, inst.setting.dim))
    back = seminorm_from_json(nu_desc)
    if not np.array_equal(report.nu_final.eval_many(probe), back.eval_many(probe)):
        raise ReplayError("serialized seminorm fails to reproduce evaluations")
    _write_json(out / "nu_final.json", nu_desc)
    for pp in report.per_point:
        path = out / f"modulus_p{pp['index']:03d}.csv"
        path.write_text(pp["curve"].to_csv(header="delta,diam"))
    _write_json(out / "report.json", {
        "success": True,
        "rho_total": {"value": report.rho_total.value,
                      "error_bound": report.rho_total.error_bound},
        "a_final": {"value": report.a_final.value,
                    "error_bound": report.a_final.error_bound,
                    "equivalent": report.a_final.equivalent},
        "per_point": [{k: v for k, v in pp.items() if k != "curve"}
                      for pp in report.per_point],
    })
    print(f"renorming succeeded: {len(report.ledger.steps)} steps, "
          f"spent {report.ledger.spent:.6f} of {report.ledger.eps_total}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(seed=args.seed, inject_fault=args.inject_fault)
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark} {res.name}: {res.detail}")
    if args.out:
        out = _out_dir(args)
        _write_json(out / "verify_report.json",
                    [{"name": r.name, "passed": r.passed, "detail": r.detail}
                     for r in results])
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellpose",
        description="near-minimizer localization and renorming toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vime", help="two-ramp family selection-gap demo")
    p.add_argument("--steps", type=_steps, default=999)
    p.add_argument("--eps-grid", type=_float_list, default=None)
    p.add_argument("--out", default="out_vime")
    p.set_defaults(fn=_cmd_vime)

    p = sub.add_parser("modulus", help="well-posedness modulus curves")
    p.add_argument("--steps", type=_steps, default=999)
    p.add_argument("--eps-grid", type=_float_list, default=None)
    p.add_argument("--out", default="out_modulus")
    p.set_defaults(fn=_cmd_modulus)

    p = sub.add_parser("perturb", help="density-step batch and axiom battery")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--eps", type=_positive_float, default=0.5)
    p.add_argument("--out", default="out_perturb")
    p.set_defaults(fn=_cmd_perturb)

    p = sub.add_parser("steckin", help="budgeted renorming on an instance")
    p.add_argument("--instance", default=None, help="instance JSON file")
    p.add_argument("--mesh", type=float, default=None,
                   help="sphere mesh of the built-in segment (default 1e-3)")
    p.add_argument("--eps-total", type=float, default=0.3)
    p.add_argument("--n-target", type=int, default=5)
    p.add_argument("--delta-grid", type=_float_list, default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default="out_steckin")
    p.set_defaults(fn=_cmd_steckin)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--inject-fault", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    from .errors import PreconditionError, ReplayError

    try:
        return args.fn(args)
    except ReplayError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out path that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
