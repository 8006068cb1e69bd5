"""One benchmark step in a fresh process, started by run.py.

    child.py batch --seed S --count N [--spans FILE --run ID]
        print one line per seeded fraction (see layers.batch_line)
    child.py cli --spans FILE --run ID -- ARGS...
        run `twobridge ARGS...` with every public call spanned
    child.py layers --seed S --count N --formulas-max-c N --spans FILE --run ID
        run the per-layer probes; print their metrics and checks as JSON

With --spans, the spans are written to FILE when the step ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import layers
import reference
from tracer import Tracer, install


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=["batch", "cli", "layers"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--formulas-max-c", type=int, default=3)
    ap.add_argument("--spans")
    ap.add_argument("--run", default="")
    cli_args = []
    if "--" in argv:
        i = argv.index("--")
        argv, cli_args = argv[:i], argv[i + 1:]
    a = ap.parse_args(argv)

    tracer = None
    if a.spans:
        tracer = Tracer(a.run)
        install(tracer)
    try:
        if a.step == "batch":
            for x in reference.fraction_batch(a.seed, a.count):
                sys.stdout.write(layers.batch_line(x) + "\n")
        elif a.step == "cli":
            from twobridge.cli import main as cli_main

            tracer.call("cli.main", cli_main.main, cli_args, prog_name="twobridge")
        else:
            expected = json.loads((Path(__file__).parent / "expected.json").read_text())
            metrics, checks = layers.run_layers(
                tracer, a.seed, expected, a.formulas_max_c, a.count)
            print(json.dumps({"metrics": metrics, "attempted": checks.attempted,
                              "failures": checks.failures}))
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(a.spans)


if __name__ == "__main__":
    main(sys.argv[1:])
