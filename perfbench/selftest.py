"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, on toy instance sets,
and checks that:
* every metric of BENCHMARK.json is printed with its unit and lands in
  the result object under the same name and unit;
* fail_rate is 0;
* each sparse-attach instance makes n - t attach rounds, counted from the
  extend_sparse.capacity_graph spans of that instance;
* dense-complete runs no colouring at all.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections import Counter
from contextlib import redirect_stdout

import run
from workloads import WORKLOADS


def check_workload(name: str, spec: dict) -> list[str]:
    errors = []
    out_dir = run.OUT / "selftest"
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        buf = io.StringIO()
        with redirect_stdout(buf):
            res = run.run(name, seed=1, seconds=0, trace=trace, toy=True,
                          out_dir=out_dir)
        text = buf.getvalue()
        where = f"{name} trace={int(trace)}"
        result = res.result
        if not result["correct"] or result["failed"]:
            errors.append(f"{where}: result not correct: {json.dumps(result)}")
        if not re.search(r"^fail_rate = 0 ratio", text, re.M):
            errors.append(f"{where}: fail_rate line missing or not 0")
        for metric in spec[key]:
            mname, unit = metric["name"], metric["unit"]
            line = rf"^{re.escape(mname)} = [-+0-9.e]+ {re.escape(unit)}$"
            if not re.search(line, text, re.M):
                errors.append(f"{where}: no line '{mname} = <value> {unit}'")
            got = result["metrics"].get(mname)
            if got is None or got["unit"] != unit:
                errors.append(f"{where}: result lacks {mname} in {unit}")
        extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
        if extra:
            errors.append(f"{where}: result has undeclared metrics {sorted(extra)}")
        if not trace:
            continue

        spans = res.spans
        instances = res.instances
        rounds = Counter(s[4] for s in spans
                         if s[0] == "extend_sparse.capacity_graph")
        colorings = sum(1 for s in spans if s[0].startswith("coloring."))
        if name == "sparse-attach":
            for idx, inst in enumerate(instances):
                if rounds[idx] != inst.rounds:
                    errors.append(f"{where}: {inst.name} made {rounds[idx]} "
                                  f"rounds, wanted n - t = {inst.rounds}")
        if name == "dense-complete" and colorings:
            errors.append(f"{where}: {colorings} colouring calls, wanted 0")
    return errors


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        print(f"selftest: BENCHMARK.json names {names}, code has {sorted(WORKLOADS)}")
        return 1
    errors = []
    for name in names:
        errors += check_workload(name, spec)
    for err in errors:
        print(f"selftest: {err}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
