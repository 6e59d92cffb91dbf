"""Regenerate fingerprints.json, the stored outputs the benchmark gates on.

    python3 perfbench/make_fingerprints.py

Run it only when a change to rdars is meant to move these outputs, and say
why in that change. It solves the scan_default pool (about 20 s) and
evaluates every stored two_ue_closed drop, with the same workload code the
benchmark times.
"""

import json

import run  # pins BLAS threads before numpy loads
from workloads import drop, evaluate_two_ue, two_ue_scenario

SCAN_POOL = (0,)
TWO_UE_STORED = 1024


def main() -> None:
    r = run.import_rdars()
    scenario = r.scenario.default_scenario()
    scan = {}
    for d in SCAN_POOL:
        _, _, report = r.wmmse.wa_solve(drop(r, scenario, d), scenario.config)
        scan[str(d)] = report.sum_rate

    pairs = two_ue_scenario(r)
    rows = [evaluate_two_ue(r, pairs, drop(r, pairs, d).ue_pos)
            for d in range(TWO_UE_STORED)]
    eta, rate_selected, rate_compact = (list(col) for col in zip(*rows))
    out = {"scan_default": {"sum_rate": scan},
           "two_ue_closed": {"eta": [int(e) for e in eta],
                             "rate_selected": rate_selected,
                             "rate_compact": rate_compact}}
    path = run.HERE / "fingerprints.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.name}: {len(scan)} scan drops, {len(rows)} pair drops")


if __name__ == "__main__":
    main()
