"""Records the reference values that the benchmark's oracles compare with.

    python3 perfbench/record.py        # rewrites perfbench/reference.json

Run it only on a commit whose outputs are trusted; the committed file was
written on the commit that introduced the benchmark.  For each command that
does not depend on the workload seed it stores the JSON payload and the
SHA-256 of stdout of one cold CLI run.  For each Monte Carlo command it stores
the exact norm of the same law, priced by the exact route (walk layers or the
signed-indicator log-tails), so that a change of random stream cannot move the
oracle.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402
from rispaces import (  # noqa: E402
    parse_space,
    rademacher_sum_norm,
    signed_indicator_sum_log_tails,
    space_norm_from_layers,
)


def signed_law_norm(n: int, u: float, space) -> float:
    """Norm of |S_n| for the n-fold signed indicator sum, from its exact log-tails."""
    log_tails = signed_indicator_sum_log_tails(n, u)  # log P(|S_n| >= s), s = 1..n
    return space_norm_from_layers(np.arange(n, 0, -1, dtype=float), log_tails[::-1], space)


def _flags(args):
    return dict(zip(args[1::2], args[2::2]))  # args[0] is the subcommand


def exact_value(cmd):
    """Exact norm behind a Monte Carlo command; None where the oracle is a closed form."""
    a = _flags(cmd.args)
    if cmd.id == "mc-rademacher-orlicz":
        return rademacher_sum_norm(int(a["--n"]), parse_space(a["--space"]))
    if cmd.id == "mc-signed-lpq":
        u = float(a["--sampler"].split(":")[1])
        return signed_law_norm(int(a["--n"]), u, parse_space(a["--space"]))
    if cmd.id == "growth-mc-signed-lpq":
        u = float(a["--sampler"].split(":")[1])
        space = parse_space(a["--space"])
        return {str(n): signed_law_norm(int(n), u, space) for n in a["--ns"].split(",")}
    return None


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(run.child_env(), time.perf_counter() + 1e9)
    reference = {}
    try:
        for size in workloads.SIZES:
            table = reference[size] = {}
            for name, build in workloads.WORKLOADS.items():
                for cmd in build(0, size, run.WORK):
                    if cmd.seeded:
                        value = exact_value(cmd)
                        if value is not None:
                            table[cmd.id] = {"exact": value}
                        continue
                    res = runner.run(run.command_argv(cmd))
                    if res["code"] != 0:
                        raise SystemExit(f"{size} {cmd.id}: exit {res['code']}\n"
                                         + res["stderr"].decode(errors="replace"))
                    entry = {"stdout_sha256": hashlib.sha256(res["stdout"]).hexdigest()}
                    if cmd.kind == "cli":
                        entry["payload"] = cmd.parse(res["stdout"])
                    table[cmd.id] = entry
                    print(f"{size} {name} {cmd.id}: {res['wall_s']:.2f} s", flush=True)
    finally:
        run.shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
