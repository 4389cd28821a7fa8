"""The benchmark's workloads: inputs made from a seed, the ops run on them,
and the independent checks applied to every op's output.

An op is one ``fpkit.cli.main([...])`` call.  A workload is a fixed list of
ops (one pass); the runner repeats whole passes.  Every check recomputes the
expected answer from the input itself, without calling fpkit.

Workloads:

* ``survey``: a ladder of ``classify`` bounds.  The identity checks and the
  survey loop do almost all of the work (``weight_balance`` rejects 97-99 %
  of candidates); no algebra or multigraph code runs, so a genus-engine
  change should show no change here.
* ``genus-dense``: ``genus``, ``report`` and ``validate --strict`` on data
  whose weight magnitudes grow.  The dense degree (the sum of |w|) drives the
  algebra and genus layers; the other layers do almost nothing.  Each file
  has a copy with one point's sign flipped: those sums are not constant, so
  a fast path for constant sums cannot hide a cost on non-constant data.
* ``corpus``: many small ops (``random``, ``validate``, ``graph --dot``,
  ``subgraph``, ``abbv``, ``report``) on generated data of every
  generator-feasible shape with weights up to 5, plus unbalanced copies
  that must exit 1 and malformed documents that must exit 2.  Per-op cli,
  data and multigraph cost matters here, and the failure paths run too.

An op that fails today because of a recorded fpkit bug is not timed: it is a
*probe*, run once per run after the timed passes, and its outcome is reported
beside the metrics (``known_defects``) rather than in the op counts, so every
timed op of every workload is expected to succeed.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

#: Names of the non-strict identity checks, in fpkit's evaluation order.
CHECK_NAMES = (
    "weight_balance",
    "hattori_parity",
    "odd_points_even_dim",
    "chern_sum",
    "min_weight_index_balance",
    "abbv_vanishing",
    "chern_class_map",
)
STRICT_CHECK_NAMES = CHECK_NAMES + ("isotropy_congruence", "symbolic_constancy")


class CheckFailed(Exception):
    """An op's output disagrees with what the benchmark computed itself."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One ``main(argv)`` call with its expected exit code and output check.

    ``items`` is the number of work items the op completes: survey
    candidates, or 1 on the last op over an input file.  ``capture`` names a
    file the op's stdout is written to, for ops whose output is the next
    op's input.  ``known_defect`` describes the recorded fpkit bug that
    makes a probe op fail today.
    """

    argv: list[str]
    expect_rc: int
    check: Callable[[str, str], None]
    input_class: str
    items: int = 0
    capture: "str | None" = None
    known_defect: "str | None" = None


@dataclass
class Workload:
    name: str
    item_unit: str
    ops: list[Op]
    warmup: list[Op]
    properties: dict
    min_passes: int
    files: dict = field(default_factory=dict)
    #: Ops of known-defect inputs, run once per run outside the timed passes.
    probes: list = field(default_factory=list)


# -- plain-data helpers (independent of fpkit) -------------------------------


def doc(name: str, half_dim: int, points: list[tuple[str, int, list[int]]]) -> dict:
    return {
        "name": name,
        "dimension": 2 * half_dim,
        "fixed_points": [
            {"id": pid, "sign": sign, "weights": sorted(weights)}
            for pid, sign, weights in points
        ],
    }


def points_of(document: dict) -> list[tuple[str, int, list[int]]]:
    return [(p["id"], p["sign"], list(p["weights"])) for p in document["fixed_points"]]


def signed_index_counts(document: dict) -> list[int]:
    n = document["dimension"] // 2
    counts = [0] * (n + 1)
    for _, sign, weights in points_of(document):
        counts[sum(1 for w in weights if w < 0)] += sign
    return counts


def chi_from_counts(counts: list[int]) -> list[int]:
    return [(-1) ** i * c for i, c in enumerate(counts)]


def first_unbalanced(points: list[tuple[str, int, list[int]]]) -> "int | None":
    """Smallest |w| whose signed multiplicity differs from that of -w."""
    for m in sorted({abs(w) for _, _, weights in points for w in weights}):
        plus = sum(sign * weights.count(m) for _, sign, weights in points)
        minus = sum(sign * weights.count(-m) for _, sign, weights in points)
        if plus != minus:
            return m
    return None


def dense_degree(document: dict) -> int:
    return sum(abs(w) for _, _, weights in points_of(document) for w in weights)


def weights_from_edges(graph: dict) -> dict[str, list[int]]:
    """Each edge s -> t with label L gives s the weight sign(s)*L and t the
    weight -sign(t)*L."""
    signs = {v["id"]: v["sign"] for v in graph["vertices"]}
    rebuilt: dict[str, list[int]] = {vid: [] for vid in signs}
    for edge in graph["edges"]:
        rebuilt[edge["from"]].append(signs[edge["from"]] * edge["label"])
        rebuilt[edge["to"]].append(-signs[edge["to"]] * edge["label"])
    return {vid: sorted(ws) for vid, ws in rebuilt.items()}


def value_at_one(poly: str) -> Fraction:
    """Value at t = 1 of a polynomial printed by fpkit (sum of coefficients)."""
    total = Fraction(0)
    for term in poly.replace(" - ", " + -").split(" + "):
        if "*" in term:
            total += Fraction(term.split("*")[0])
        elif "t" in term:
            total += -1 if term.startswith("-") else 1
        else:
            total += Fraction(term)
    return total


def has_pole_at_one(function: str) -> bool:
    """True for a printed reduced ``(num)/(den)`` with den(1) = 0 != num(1)."""
    if not function.startswith("(") or ")/(" not in function:
        return False
    num, den = function[1:-1].split(")/(")
    return value_at_one(den) == 0 and value_at_one(num) != 0


def parse_json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from None


def write_json(path: str, document) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def spread(values: list[int]) -> dict:
    return {
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
        "total": sum(values),
    }


# -- checks shared by genus-dense and corpus ---------------------------------


def check_genus_report(genus: dict, document: dict, constant: bool) -> None:
    counts = signed_index_counts(document)
    chi = chi_from_counts(counts)
    require(genus["N"] == counts, f"N {genus['N']} != recount {counts}")
    require(genus["chi"] == chi, f"chi {genus['chi']} != {chi}")
    require(genus["txy"] == genus["chi"], "txy != chi")
    require(genus["todd"] == chi[0], "todd != chi[0]")
    require(
        genus["symbolic_constant"] is constant,
        f"symbolic_constant should be {constant}",
    )


def check_validation(payload: dict, names: tuple, verdict: bool, document: dict) -> dict:
    checks = {c["name"]: c["passed"] for c in payload["checks"]}
    require(tuple(checks) == names, f"check names {tuple(checks)}")
    require(payload["verdict"] is verdict, f"verdict should be {verdict}")
    require(payload["verdict"] == all(checks.values()), "verdict != all checks")
    balanced = first_unbalanced(points_of(document)) is None
    require(checks["weight_balance"] is balanced, f"weight_balance should be {balanced}")
    return checks


def check_abbv_zero(entries: list, n: int) -> None:
    require([e["power"] for e in entries] == list(range(n)), "abbv powers")
    require(all(e["value"] == "0" for e in entries), "abbv sum not zero")


def check_graph_rebuilds(graph: dict, document: dict) -> None:
    expected = {pid: sorted(ws) for pid, _, ws in points_of(document)}
    signs = {pid: sign for pid, sign, _ in points_of(document)}
    require(
        {v["id"]: v["sign"] for v in graph["vertices"]} == signs, "vertex signs"
    )
    require(weights_from_edges(graph) == expected, "edges do not rebuild weights")


def check_exit2(stdout: str, stderr: str) -> None:
    require(stdout == "", "exit-2 op wrote to stdout")
    lines = stderr.splitlines()
    require(len(lines) == 1, f"stderr has {len(lines)} lines, expected one")
    require(lines[0].startswith("error: "), "stderr line is not 'error: ...'")


# -- survey -----------------------------------------------------------------

#: (points, half-dimension, max weight): candidate counts from 2,628 to
#: 31,878 over two, three and four points in dimensions 2 to 8.
SURVEY_LADDER = (
    (2, 2, 4),
    (2, 3, 3),
    (4, 2, 2),
    (4, 1, 5),
    (3, 2, 3),
    (2, 3, 4),
    (2, 4, 3),
)
TINY_SURVEY_LADDER = ((2, 1, 3), (2, 2, 2))


def survey_candidates(points: int, half_dim: int, max_weight: int) -> int:
    universe = 2 * math.comb(2 * max_weight + half_dim - 1, half_dim)
    return math.comb(universe + points - 1, points)


def check_survey(bounds: tuple[int, int, int]):
    points, half_dim, max_weight = bounds
    expected = survey_candidates(points, half_dim, max_weight)

    def check(stdout: str, stderr: str) -> None:
        report = parse_json(stdout)
        require(report["candidates"] == expected, f"candidates != {expected}")
        survivors = report["survivors"]
        require(
            sum(report["rejects"].values()) + len(survivors) == expected,
            "rejects + survivors != candidates",
        )
        require(report["flagged"] == [], "flagged is not empty")
        for entry in survivors:
            pts = [(p["id"], p["sign"], p["weights"]) for p in entry["points"]]
            require(len(pts) == points, "survivor point count")
            require(first_unbalanced(pts) is None, "survivor is unbalanced")

    return check


def build_survey(seed: int, tiny: bool = False) -> Workload:
    ladder = list(TINY_SURVEY_LADDER if tiny else SURVEY_LADDER)
    random.Random(seed).shuffle(ladder)
    ops = [
        Op(
            ["classify", "--points", str(k), "--dim", str(2 * n), "--max-weight", str(w)],
            0,
            check_survey((k, n, w)),
            "survey",
            items=survey_candidates(k, n, w),
        )
        for k, n, w in ladder
    ]
    smallest = min(ops, key=lambda op: op.items)
    return Workload(
        "survey",
        "candidates",
        ops,
        [smallest],
        {
            "ladder": [
                {"points": k, "dimension": 2 * n, "max_weight": w,
                 "candidates": survey_candidates(k, n, w)}
                for k, n, w in ladder
            ],
            "candidates_per_pass": sum(op.items for op in ops),
        },
        min_passes=2 if tiny else 7,
    )


# -- genus-dense ------------------------------------------------------------

DIM6_LADDER = (5, 10, 15, 20, 25, 50, 100, 200)
TINY_DIM6_LADDER = (3, 6)
#: (points, half-dimension) of the random realizable data and its label bounds.
GENUS_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (4, 2))
#: Label bound -> data drawn per shape: more of the cheap ones, so that the
#: median op falls where ops are dense and hardly moves between seeds.
GENUS_LABELS = {10: 2, 25: 2, 40: 1}
#: Each datum is the median-dense-degree one of this many seeded draws, so
#: that seeds change the data but hardly its size.
GENUS_DRAWS = 9


def dim6(b: int) -> dict:
    """The six-dimensional two-point datum {-1-b, 1, b} / {-1, -b, 1+b}."""
    return doc(f"dim6-a1-b{b}", 3, [("p", 1, [-1 - b, 1, b]), ("q", 1, [-1, -b, 1 + b])])


def flipped(document: dict, index: int) -> dict:
    """A copy with one point's sign flipped: its genus sum is not constant."""
    out = json.loads(json.dumps(document))
    out["name"] += f"-flip{index}"
    out["fixed_points"][index]["sign"] *= -1
    return out


def from_fpkit(data) -> dict:
    return doc(data.name, data.n, [(p.id, p.sign, list(p.weights)) for p in data.points])


def check_genus(document: dict, constant: bool):
    n = document["dimension"] // 2
    counts = signed_index_counts(document)
    order = 1 + dense_degree(document)

    def check(stdout: str, stderr: str) -> None:
        payload = parse_json(stdout)
        check_genus_report(payload["report"], document, constant)
        require(payload["series_order"] == order, "series order != 1 + sum |w|")
        components = payload["components"]
        require([c["i"] for c in components] == list(range(n + 1)), "components")
        for c in components:
            value = (-1) ** c["i"] * counts[c["i"]]
            series = [Fraction(x) for x in c["series"]]
            require(len(series) == order + 1, "series length")
            require(series[0] == value, f"series[0] != {value}")
            require(Fraction(c["constant_term"]) == value, "constant_term")
            if constant:
                require(c["constant"] and c["symbolic"] == str(value), "not constant")
                require(not any(series[1:]), "constant sum has a t-term")
            else:
                require(not c["constant"], "flipped component reported constant")
                require(has_pole_at_one(c["symbolic"]), "no pole at t = 1")

    return check


def check_report(document: dict, realizable: bool):
    n = document["dimension"] // 2

    def check(stdout: str, stderr: str) -> None:
        payload = parse_json(stdout)
        check_validation(payload["validation"], STRICT_CHECK_NAMES, realizable, document)
        check_genus_report(payload["genus"], document, realizable)
        if realizable:
            check_abbv_zero(payload["abbv"], n)
            check_graph_rebuilds(payload["graph"], document)
            require(payload["graph"]["describes"] is True, "graph does not describe")

    return check


def check_strict_validation(document: dict, realizable: bool):
    def check(stdout: str, stderr: str) -> None:
        checks = check_validation(parse_json(stdout), STRICT_CHECK_NAMES, realizable, document)
        require(checks["symbolic_constancy"] is realizable, "symbolic_constancy")

    return check


def genus_ops(path: str, document: dict, realizable: bool) -> list[Op]:
    rc = 0 if realizable else 1
    cls = "realizable" if realizable else "flipped"
    return [
        Op(["genus", path], 0, check_genus(document, realizable), cls),
        Op(["report", path], rc, check_report(document, realizable), cls),
        Op(["validate", "--strict", path], rc, check_strict_validation(document, realizable), cls, items=1),
    ]


def build_genus_dense(seed: int, tiny: bool = False) -> Workload:
    from fpkit.classify import random_graph_data

    rng = random.Random(seed)
    documents = [dim6(b) for b in (TINY_DIM6_LADDER if tiny else DIM6_LADDER)]
    cells = [
        (k, n, ml) for k, n in GENUS_SHAPES for ml, count in GENUS_LABELS.items()
        for _ in range(count)
    ]
    for k, n, max_label in cells[:2] if tiny else cells:
        draws = sorted(
            (from_fpkit(random_graph_data(rng.randrange(2**32), k, n, max_label))
             for _ in range(GENUS_DRAWS)),
            key=dense_degree,
        )
        documents.append(draws[GENUS_DRAWS // 2])
    ops: list[Op] = []
    files: dict = {}
    for index, document in enumerate(documents):
        copy = flipped(document, rng.randrange(len(document["fixed_points"])))
        for suffix, data, realizable in (("", document, True), ("-flip", copy, False)):
            path = f"g{index}{suffix}.json"
            files[path] = data
            ops.extend(genus_ops(path, data, realizable))
    everything = list(files.values())
    return Workload(
        "genus-dense",
        "files",
        ops,
        ops[:3],
        {
            "files": len(everything),
            "dense_degree": spread([dense_degree(d) for d in everything]),
            "points": spread([len(d["fixed_points"]) for d in everything]),
            "flipped_share": sum("-flip" in path for path in files) / len(files),
        },
        min_passes=3,
        files=files,
    )


# -- corpus -----------------------------------------------------------------

CORPUS_MAX_LABEL = 5
CORPUS_POINTS = range(2, 9)
CORPUS_HALF_DIMS = range(1, 5)


def malformed_documents() -> list[tuple[str, "str | None", "str | None"]]:
    """(file name, text or None for a missing file, known defect or None)."""
    good = json.dumps(doc("m", 1, [("p", 1, [1]), ("q", 1, [-1])]))

    def edited(**changes) -> str:
        document = json.loads(good)
        document.update(changes)
        return json.dumps(document)

    points = json.loads(good)["fixed_points"]
    return [
        ("bad-json.json", good[:-7], None),
        ("bad-toplevel.json", "[1, 2]", None),
        ("bad-dimension.json", edited(dimension=3), None),
        ("bad-dimension-type.json", edited(dimension="2"), None),
        ("bad-points.json", edited(fixed_points={"p": 1}), None),
        ("bad-sign.json", edited(fixed_points=[dict(points[0], sign=0), points[1]]), None),
        ("bad-zero-weight.json", edited(fixed_points=[dict(points[0], weights=[0]), points[1]]), None),
        ("bad-weight-count.json", edited(fixed_points=[dict(points[0], weights=[1, 1]), points[1]]), None),
        ("bad-duplicate-id.json", edited(fixed_points=[points[0], dict(points[1], id="p")]), None),
        ("bad-components.json", edited(isotropy_components=[]), None),
        ("bad-modulus.json", edited(isotropy_components={"0": [["p", "q"]]}), None),
        ("missing.json", None, None),
        (
            "bad-empty-block.json",
            edited(isotropy_components={"1": [["p", "q"], []]}),
            "an empty isotropy block passes the shape check and "
            "validate --strict raises IndexError (ROADMAP item 5)",
        ),
    ]


def perturbed(document: dict, rng: random.Random) -> dict:
    """A copy with one weight's sign swapped, so the data is unbalanced."""
    out = json.loads(json.dumps(document))
    out["name"] += "-perturbed"
    point = rng.choice(out["fixed_points"])
    slot = rng.randrange(len(point["weights"]))
    point["weights"][slot] *= -1
    point["weights"].sort()
    return out


def check_random(document: dict):
    n = document["dimension"] // 2

    def check(stdout: str, stderr: str) -> None:
        payload = parse_json(stdout)
        pts = points_of(payload)
        require(payload["dimension"] == document["dimension"], "dimension")
        require(len(pts) == len(document["fixed_points"]), "point count")
        require(len({pid for pid, _, _ in pts}) == len(pts), "duplicate ids")
        for _, sign, weights in pts:
            require(sign in (1, -1) and len(weights) == n, "point shape")
            require(all(0 < abs(w) <= CORPUS_MAX_LABEL for w in weights), "weight bound")
        require(first_unbalanced(pts) is None, "generated data is unbalanced")
        require(points_of(payload) == points_of(document), "generated data changed")

    return check


def check_plain_validation(document: dict):
    def check(stdout: str, stderr: str) -> None:
        check_validation(parse_json(stdout), CHECK_NAMES, True, document)

    return check


def check_graph(document: dict):
    def check(stdout: str, stderr: str) -> None:
        graph = parse_json(stdout)
        check_graph_rebuilds(graph, document)
        require(graph["describes"] is True, "graph does not describe the data")

    return check


def check_subgraph(document: dict, modulus: int):
    expected = {
        pid: sorted(w for w in ws if w % modulus == 0) for pid, _, ws in points_of(document)
    }

    def check(stdout: str, stderr: str) -> None:
        graph = parse_json(stdout)
        require(graph["modulus"] == modulus, "modulus")
        require(weights_from_edges(graph) == expected, "subgraph weights")

    return check


def check_abbv(power: int):
    def check(stdout: str, stderr: str) -> None:
        payload = parse_json(stdout)
        require(payload["power"] == power, "power")
        require(payload["value"] == "0" and payload["zero"] is True, "abbv sum not zero")

    return check


def check_unbalanced_validation(document: dict):
    m = first_unbalanced(points_of(document))

    def check(stdout: str, stderr: str) -> None:
        payload = parse_json(stdout)
        check_validation(payload, CHECK_NAMES, False, document)
        witness = payload["checks"][0]["witness"]
        require(witness["w"] == m, f"witness w {witness['w']} != {m}")

    return check


def check_balance_error(stdout: str, stderr: str) -> None:
    payload = parse_json(stdout)
    require(payload.get("error") == "per-index balance violated", "no BalanceError")


def build_corpus(seed: int, tiny: bool = False) -> Workload:
    from fpkit.classify import random_graph_data

    rng = random.Random(seed)
    ops: list[Op] = []
    files: dict = {}
    generated: list[dict] = []
    shapes = [(k, n) for k in CORPUS_POINTS for n in CORPUS_HALF_DIMS]
    feasible: list[tuple[int, int]] = []
    for k, n in shapes[:5] if tiny else shapes:
        for _ in range(1 if tiny else 4):
            instance_seed = rng.randrange(2**31)
            try:
                data = random_graph_data(instance_seed, k, n, CORPUS_MAX_LABEL)
            except ValueError:  # the shape is not generator-feasible
                break
            if feasible[-1:] != [(k, n)]:
                feasible.append((k, n))
            document = from_fpkit(data)
            generated.append(document)
            path = f"c{len(generated)}.json"
            bad_path = f"c{len(generated)}-perturbed.json"
            bad = files[bad_path] = perturbed(document, rng)
            modulus = rng.randint(1, 3)
            power = rng.randrange(n)
            ops += [
                Op(
                    ["random", "--seed", str(instance_seed), "--points", str(k),
                     "--dim", str(2 * n), "--max-label", str(CORPUS_MAX_LABEL)],
                    0, check_random(document), "generated", capture=path,
                ),
                Op(["validate", path], 0, check_plain_validation(document), "generated"),
                Op(["graph", path, "--dot", path + ".dot"], 0, check_graph(document), "generated"),
                Op(["subgraph", path, "--modulus", str(modulus)], 0,
                   check_subgraph(document, modulus), "generated"),
                Op(["abbv", path, "--power", str(power)], 0, check_abbv(power), "generated"),
                Op(["report", path], 0, check_report(document, True), "generated", items=1),
                Op(["validate", bad_path], 1, check_unbalanced_validation(bad), "perturbed"),
                Op(["graph", bad_path], 1, check_balance_error, "perturbed", items=1),
            ]
    malformed = malformed_documents()
    probes: list[Op] = []
    for name, text, defect in malformed:
        if text is not None:
            files[name] = text
        op = Op(["validate", "--strict", name], 2, check_exit2, "malformed",
                items=1, known_defect=defect)
        (ops if defect is None else probes).append(op)
    timed_malformed = len(malformed) - len(probes)
    files_total = 2 * len(generated) + timed_malformed
    return Workload(
        "corpus",
        "files",
        ops,
        ops[:8] + [ops[-timed_malformed]],
        {
            "files": files_total,
            "shapes": [{"points": k, "dimension": 2 * n} for k, n in feasible],
            "dense_degree": spread([dense_degree(d) for d in generated]),
            "points": spread([len(d["fixed_points"]) for d in generated]),
            "generated_share": len(generated) / files_total,
            "perturbed_share": len(generated) / files_total,
            "malformed_share": timed_malformed / files_total,
            "known_defect_probes": len(probes),
        },
        min_passes=3,
        files=files,
        probes=probes,
    )


WORKLOADS = {
    "survey": build_survey,
    "genus-dense": build_genus_dense,
    "corpus": build_corpus,
}
