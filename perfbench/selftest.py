"""Self-test of the benchmark itself.

* Every workload runs at a tiny size, twice from the same seed; both rounds
  must pass every check and give the same stdout-and-exit-code digest.
* Wrong outputs are planted into real op results (a wrong exit code, and
  per command a few edited fields); every one must be counted as a failure.
* A tiny traced run per workload confirms the layer split: ``survey`` makes
  no algebra or genus calls, ``genus-dense`` spends most of its self time in
  algebra and genus, and every generated ``corpus`` instance builds a
  multigraph.

Run with ``python3 perfbench/run.py --self-test``; it exits 0 when all pass.
"""

from __future__ import annotations

import json
from collections import Counter

import run
from workloads import WORKLOADS

SEED = 7


def _bump(payload, *path):
    """Add 1 to the integer at ``path``."""
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] += 1


def _set(payload, value, *path):
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = value


def _toggle(payload, *path):
    for key in path[:-1]:
        payload = payload[key]
    payload[path[-1]] = not payload[path[-1]]


def _negate_weight(points):
    points[0]["weights"][0] *= -1


#: command -> edits of its JSON stdout; each must make the check fail.
JSON_EDITS = {
    "classify": [
        lambda p: _bump(p, "candidates"),
        lambda p: p["flagged"].append({"flag": "planted"}),
        lambda p: _bump(p, "rejects", "weight_balance"),
        lambda p: _negate_weight(p["survivors"][0]["points"]),
    ],
    "genus": [
        lambda p: _bump(p, "report", "N", 0),
        lambda p: _bump(p, "report", "txy", -1),
        lambda p: _toggle(p, "report", "symbolic_constant"),
        lambda p: _set(p, "7", "components", 0, "series", 0),
        lambda p: _set(p, "7", "components", -1, "series", 1)
        if p["report"]["symbolic_constant"]
        else _set(p, "(1)/(1 + t)", "components", -1, "symbolic"),
        lambda p: _toggle(p, "components", 0, "constant"),
    ],
    "report": [
        lambda p: _toggle(p, "validation", "verdict"),
        lambda p: _bump(p, "genus", "N", -1),
        lambda p: _set(p, "1/2", "abbv", 0, "value")
        if p["validation"]["verdict"]
        else _toggle(p, "genus", "symbolic_constant"),
    ],
    "validate": [
        lambda p: _toggle(p, "verdict"),
        lambda p: _toggle(p, "checks", 0, "passed"),
        lambda p: _set(p, [], "checks"),
    ],
    "random": [
        lambda p: _negate_weight(p["fixed_points"]),
        lambda p: _bump(p, "dimension"),
        lambda p: p["fixed_points"].pop(),
    ],
    "graph": [
        lambda p: _bump(p, "edges", 0, "label") if "edges" in p else p.pop("error"),
        lambda p: _toggle(p, "describes") if "edges" in p else _set(p, "other", "error"),
    ],
    "subgraph": [
        lambda p: p["edges"].pop() if p["edges"] else _bump(p, "modulus"),
        lambda p: _bump(p, "modulus"),
    ],
    "abbv": [
        lambda p: _set(p, "1/2", "value"),
        lambda p: _toggle(p, "zero"),
    ],
}
#: edits of (stdout, stderr) for ops that must exit 2 with one stderr line.
EXIT2_EDITS = [
    lambda out, err: (out, err + "second line\n"),
    lambda out, err: ("{}\n", err),
    lambda out, err: (out, "Traceback (most recent call last):\n"),
]


def planted_failures(op, rc, stdout, stderr, problems: list) -> int:
    """Plant wrong outputs into one real result; return how many were caught."""
    caught = 0

    def expect_failure(new_rc, new_out, new_err, what):
        nonlocal caught
        if run.evaluate(op, new_rc, new_out, new_err, None) is None:
            problems.append(f"planted {what} not caught for {' '.join(op.argv)}")
        else:
            caught += 1

    expect_failure(op.expect_rc + 1, stdout, stderr, "exit code")
    if op.expect_rc == 2:
        for edit in EXIT2_EDITS:
            expect_failure(rc, *edit(stdout, stderr), "exit-2 output")
        return caught
    for number, edit in enumerate(JSON_EDITS[op.argv[0]]):
        payload = json.loads(stdout)
        try:
            edit(payload)
        except (IndexError, KeyError):  # nothing to edit in this output
            continue
        expect_failure(rc, json.dumps(payload), stderr, f"edit {number}")
    return caught


def check_workload(cli, name: str, problems: list) -> Counter:
    caught: Counter = Counter()
    digests = []
    for _ in range(2):
        workload = WORKLOADS[name](SEED, True)
        run.write_inputs(workload)
        tally = run.run_ops(cli, workload.ops, 0, 1, run.Tally())
        digests.append(tally.digests[0])
        problems += [f"{name}: {failure}" for failure in tally.unexpected]
    if digests[0] != digests[1]:
        problems.append(f"{name}: two repeats gave different digests")
    for command, outcome in run.run_probes(cli, workload.probes).items():
        print(f"{name}: known defect {command}: {outcome['observed'] or 'passes now'}")
    for op in workload.ops:  # inputs, captured ones too, exist from the passes
        rc, stdout, stderr, error, _ = run.execute(cli, op)
        if error is not None:
            continue
        caught[op.check.__qualname__.split(".")[0]] += planted_failures(
            op, rc, stdout, stderr, problems
        )
    return caught


def check_layers(cli, name: str, problems: list) -> None:
    workload = WORKLOADS[name](SEED, True)
    run.write_inputs(workload)
    tracer, tally = run.traced_run(cli, workload.ops, 0, 1)
    values = tracer.layer_metrics()
    problems += [f"{name} traced: {failure}" for failure in tally.unexpected]
    sites = set(tracer.patch_sites)
    for site in (
        ("fpkit.cli", "chi_symbolic"),
        ("fpkit.identities", "chi_symbolic"),
        ("fpkit.genus", "chi_series"),
        ("fpkit.classify", "parallel_map"),
    ):
        if site not in sites:
            problems.append(f"tracer did not patch {site}")
    if name == "survey":
        busy = [
            key for key, value in values.items()
            if key.startswith(("algebra.", "genus.")) and key.endswith(".calls") and value
        ]
        if busy:
            problems.append(f"survey made algebra/genus calls: {busy}")
    if name == "genus-dense":
        shares = run.layer_shares(values)
        if shares.get("algebra", 0) + shares.get("genus", 0) <= 0.5:
            problems.append(f"genus-dense: algebra+genus self share {shares}")
    if name == "corpus":
        builds = {
            op for span_name, *_, op in tracer.spans() if span_name == "multigraph.build_multigraph"
        }
        for index, op in enumerate(workload.ops):
            graph_op = op.argv[0] in ("graph", "subgraph", "report")
            if graph_op and op.input_class == "generated" and index not in builds:
                problems.append(f"corpus: no build_multigraph span for {' '.join(op.argv)}")


def self_test(cli) -> int:
    problems: list[str] = []
    for name in WORKLOADS:
        caught = check_workload(cli, name, problems)
        print(f"{name}: planted failures caught per check: {dict(sorted(caught.items()))}")
        if not caught or min(caught.values()) == 0:
            problems.append(f"{name}: some check caught no planted failure")
        check_layers(cli, name, problems)
    unsteady = run.Tally(digests=["a", "b"])
    if unsteady.correct:
        problems.append("a run whose passes differ was reported correct")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
