"""Record the reference values the presets workload checks against.

    python3 bench/record_reference.py

Runs figure1..figure4 and writes, for every CSV curve (file and model), its
row count, largest |n|, exact sum and every STRIDE-th density value to
bench/reference/presets.json. Re-record only when the figures are meant to
change.
"""

import json
import math
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from slabdiff import runner, scenario  # noqa: E402

from workloads import Presets, read_curves  # noqa: E402

STRIDE = 10


def main() -> int:
    work = BENCH / "results" / "record_reference"
    reference = {}
    for figure in Presets.FIGURES:
        shutil.rmtree(work, ignore_errors=True)
        written = runner.run_scenario(scenario.preset(figure), work)
        curves = {}
        for path in sorted(written, key=lambda p: p.name):
            if path.suffix != ".csv" or path.name.endswith("_events.csv"):
                continue
            curves[path.name] = {
                model: {"n": len(values), "scale": max(abs(x) for x in values),
                        "sum": math.fsum(values), "stride": STRIDE, "samples": values[::STRIDE]}
                for model, values in sorted(read_curves(path).items())
            }
        reference[figure] = {"files": sorted(p.name for p in written), "curves": curves}
    shutil.rmtree(work, ignore_errors=True)
    out = BENCH / "reference" / "presets.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
