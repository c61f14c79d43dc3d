"""Record perfbench/reference.json from the current sources.

    python3 perfbench/record_reference.py

Re-record only for a change that is meant to alter outputs, and say so in
CHANGES.md: every benchmark item is checked against this file.  Takes
about five minutes (the 260 sweep delays dominate).
"""

from __future__ import annotations

import json
import shutil
import sys

import workloads as wl


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    hd = wl.fresh_import()
    ref, _opts = hd.parse_config(hd.default_config_path())
    fn = wl.api(hd)

    out_dir = wl.reproduce_out()
    shutil.rmtree(out_dir, ignore_errors=True)
    child = wl.run_child(["-m", "hemodelay", "reproduce", "--out-dir", str(out_dir)], wl.Clock())
    reproduce = wl.reproduce_record(child["code"], child["out"], out_dir)

    members = [
        wl.member_record(wl.map_member(fn, wl.member_params(hd, ref, i)))
        for i in range(wl.POOL_SIZE)
    ]
    delays = {}
    for tau in (0.0,) + wl.SWEEP_POOL:
        out = wl.simulate_delay(hd, fn, ref, {"tau": tau, "reads": [], "mesh": []})
        delays[repr(tau)] = wl.delay_record(out)

    reference = {"reproduce": reproduce, "stability_map": members, "sweep_dense": delays}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
