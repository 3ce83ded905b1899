"""Write references.json: the outputs of the code at hand, frozen as the
references the correctness gate compares against.

The committed file was written from the seed commit of the benchmark.  Run
this again only to re-anchor the references on purpose, never to make a
failing check pass; the diff of references.json shows every value it moved.

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _kahane(outcome, gate) -> dict:
    rep = outcome.value
    ts = next(iter(rep.series.values())).log_points
    return {"checkpoints": ts.tolist(),
            "series": {k: s.values.tolist() for k, s in rep.series.items()},
            "verdicts": gate.kahane_verdicts(rep),
            "identity_max_rel": rep.identity_max_rel,
            "mk_route_gap": rep.mk_route_gap}


def _fit(outcome, keys) -> dict:
    rep = outcome.value
    return {"constants": {k: rep.constants[k] for k in keys}, "passed": rep.passed}


def _systems_ops(outcomes, gate) -> dict:
    ops = {}
    checkpoints = [float(t) for t in range(5, 55, 5)]
    for o in outcomes:
        if o.op == "identities":
            ops[o.op] = {"exit": o.exit, "gaps": gate.parse_law_gaps(o.stdout)}
        elif o.op.startswith("build/"):
            ref = {"exit": 0, "checkpoints": checkpoints}
            if o.error is None and o.exit == 0:
                probes = {}
                for name in ("pi", "n"):
                    h, c = gate.read_measure(os.path.join(o.out_dir, f"{name}.csv"))
                    probes[name] = gate.measure_probes(h, c, checkpoints)
                ref["probes"] = probes
            else:
                ref["known_defect"] = {"error": gate.error_type(o) or f"exit {o.exit}",
                                       "detail": (o.error or o.stderr.strip())[:200]}
            ops[o.op] = ref
        else:
            csv = {}
            ts = None
            for name in gate.HYPOTHESIS_SERIES:
                ts, vals = gate.read_series_csv(os.path.join(o.out_dir, f"{name}.csv"))
                csv[name] = vals
            ops[o.op] = {"exit": o.exit, "checkpoints": ts, "csv": csv}
    # the same lattice step makes the FFT grid's primitives below log x = 50
    # those of the recurrence grid, so a fixed FFT build is held to them
    for op, ref in ops.items():
        if op.startswith("build/") and op.endswith("/fft"):
            ref["probes"] = ops[op[: -len("fft")] + "rec"]["probes"]
    return ops


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import gate
    import workloads

    refs = {"note": "outputs of the seed commit; see perfbench/gate.py for tolerances"}
    work = os.path.join(ROOT, ".perfbench_out", "freeze")
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = workloads.setup("kahane", 0, work)
        refs["kahane"] = _kahane(workloads.run(inp)[0], gate)
        inp = workloads.setup("transform", 0, work)
        mel, dh = workloads.run(inp)
        refs["transform"] = {
            mel.op: _fit(mel, ("alpha", "c1", "c2")),
            dh.op: _fit(dh, ("b1_checkpoint", "b1_mellin")),
        }
        refs["systems"] = {}
        for variant in range(workloads.SYSTEMS_VARIANTS):
            inp = workloads.setup("systems", variant, os.path.join(work, f"v{variant}"))
            entry = {"params": workloads.systems_params(variant),
                     "identity_seed": inp.identity_seed,
                     "ops": _systems_ops(workloads.run(inp), gate)}
            refs["systems"][str(variant)] = entry
            print(f"variant {variant}: " + ", ".join(
                f"{op}={r['known_defect']['error']}" for op, r in entry["ops"].items()
                if "known_defect" in r), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
