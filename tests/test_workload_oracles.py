"""The benchmark's oracles, run in process on every workload command at both sizes.

``perfbench/workloads.py`` gives each command an oracle.  A hash in
``test_output_bytes.py`` says that an output moved; these say whether the output
is right, so they can vouch for bytes that a change moves on purpose.  By oracle:

- independent of any recorded output: the indicator norms (closed forms), the
  Kruglov series at t = 1 (a closed-form sum), the step-file norms (a NumPy
  pricing of the seeded file), the Gaussian self-similarity ratio (sqrt n) and the
  Gaussian Monte Carlo sum (sqrt(2n));
- against exact values recorded in ``reference.json``: the other Monte Carlo
  commands, each within its band of the exact law's norm, priced by the exact
  route when the reference was recorded;
- partly independent: ``opnorm`` (||A_n|| = n * sup ratio with the ratio in
  (0, 1]), ``classify`` (the PowerBound branch, q and C recomputed from their
  formulas, the Kruglov verdict) and the full-size Marcinkiewicz growth tables
  (the criterion-6 exponent); each also compares its values with recorded ones;
- recorded only: the other exact growth tables.
"""

import json

import pytest

from conftest import ROOT, _load, run_main
from rispaces import gaussian_selfsimilarity_check

workloads = _load(ROOT / "perfbench" / "workloads.py")
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def _problems(cmd, ref) -> list:
    if cmd.kind == "selfsim":
        return cmd.check(gaussian_selfsimilarity_check(int(cmd.args[0])), ref)
    code, out, err = run_main(*cmd.args)
    if code != 0:
        return [f"exit code {code}: {err.strip()}"]
    return cmd.check(cmd.parse(out.encode()), ref)


@pytest.mark.parametrize("size", workloads.SIZES)
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_commands_pass_their_oracles(tmp_path, workload, size):
    problems = {cmd.id: found for cmd in workloads.WORKLOADS[workload](0, size, tmp_path)
                if (found := _problems(cmd, REFERENCE[size].get(cmd.id)))}
    assert problems == {}
