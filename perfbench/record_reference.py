"""Record the field-energy reference series the workloads check against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/{vlasov,wigner,fluid}.json`` from the current
sources.  The committed files were recorded at the seed commit; record
again only when a change is meant to alter the physics, and say so.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qplasma import simulate  # noqa: E402
from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main():
    rng = np.random.default_rng(0)
    configs = [WORKLOADS["vlasov_trapping"]().inputs(rng),
               WORKLOADS["wigner_quantum"]().inputs(rng),
               WORKLOADS["mixture_small"]().inputs(rng)[1]]
    REFERENCE_DIR.mkdir(exist_ok=True)
    for cfg in configs:
        cfg = dataclasses.replace(cfg, snapshot_times=(), save_final=False)
        series = simulate.run(cfg).series
        path = REFERENCE_DIR / f"{cfg.model}.json"
        with open(path, "w") as fh:
            json.dump({"config": cfg.to_text(),
                       "times": [float(t) for t in series.times],
                       "field_energy": [float(w)
                                        for w in series.field_energy]},
                      fh, indent=0)
            fh.write("\n")
        print(path)


if __name__ == "__main__":
    main()
