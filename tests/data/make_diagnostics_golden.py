"""Write ``diagnostics_golden.json``: seeded broken descriptions and their diagnostics.

Each case is a description text holding several faults across the
``scale``, ``elements``, ``groups``, ``hierarchy`` and ``network`` sections,
stored with the full ``DescriptionError.diagnostics`` tuple the parser
gave for it when the corpus was recorded.  ``tests/test_diagnostics_golden.py``
asserts that the parser still reports exactly those tuples, order included.

Run from the repository root, only to record a new corpus on purpose:

    PYTHONPATH=src python tests/data/make_diagnostics_golden.py
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

from aggeval import DescriptionError, parse_description

SEED = 20261018
CASES = 300
OUT = Path(__file__).resolve().parent / "diagnostics_golden.json"

# Wrong-typed and out-of-range stand-ins for any field.
JUNK = [None, True, False, "", "x", "12", -1, 0, 0.0, -0.5, 1e309, float("nan"),
        float("-inf"), [], [1], {}, {"a": 1}, 101, 1e300, 3]


def base_document(rng: random.Random) -> dict:
    """A valid document: flat groups over the elements, a two-level tree, a network."""
    n = rng.randint(4, 9)
    ids = [f"e{k}" for k in range(n)]
    elements = []
    for element_id in ids:
        entry = {"id": element_id, "evaluation": rng.choice([rng.randint(0, 100), round(rng.uniform(0, 100), 2)])}
        if rng.random() < 0.3:
            entry["priority"] = rng.choice([1, 2, 0.5, 3.25])
        elements.append(entry)
    half = n // 2
    groups = [
        {"id": "g1", "members": ids[:half], "priority": rng.choice([1, 2.5])},
        {"id": "g2", "members": ids[half:]},
    ]
    sub_a = {"id": "A", "method": {"method": "nam"}, "children": ids[:half]}
    sub_b = {
        "id": "B",
        "method": {
            "method": "hybrid",
            "groups": [
                {"id": "h1", "members": ids[half:half + 1], "priority": 2},
                {"id": "h2", "members": ids[half + 1:]},
            ],
            "threshold": 0.4,
        },
        "children": ids[half:],
    }
    hierarchy = {"id": "root", "method": {"method": "wlam"}, "children": [sub_a, sub_b]}
    nodes = ["n1", "n2", "n3", "n4"]
    network = {
        "nodes": nodes,
        "edges": [["n1", "n2"], ["n2", "n3"], ["n3", "n4"], ["n4", "n1"]],
        "flows": [{"route": ["n1", "n2", "n3"], "volume": 2}, {"route": ["n3", "n4"]}],
    }
    doc = {"scale": {"min": 0, "max": 100}, "elements": elements, "groups": groups,
           "hierarchy": hierarchy, "network": network}
    for key in ("groups", "hierarchy", "network"):
        if rng.random() < 0.15:
            del doc[key]
    return doc


def _junk(rng: random.Random):
    return copy.deepcopy(rng.choice(JUNK))


def _subsystems(doc: dict) -> list[dict]:
    found = []
    stack = [doc.get("hierarchy")]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            found.append(node)
            children = node.get("children")
            if isinstance(children, list):
                stack.extend(children)
    return found


def _element_ids(doc: dict) -> list[str]:
    raw = doc.get("elements")
    if not isinstance(raw, list):
        return ["e0"]
    return [e["id"] for e in raw if isinstance(e, dict) and isinstance(e.get("id"), str)] or ["e0"]


# Each fault edits the document in place; faults that find their target
# already broken do nothing, so several can stack on one section.
def fault_scale(doc: dict, rng: random.Random) -> None:
    choice = rng.randrange(7)
    scale = doc.get("scale")
    if choice == 0:
        doc.pop("scale", None)
    elif choice == 1 or not isinstance(scale, dict):
        doc["scale"] = _junk(rng)
    elif choice == 2:
        scale.pop(rng.choice(["min", "max"]), None)
    elif choice == 3:
        scale[rng.choice(["min", "max"])] = _junk(rng)
    elif choice == 4:
        scale["step"] = 1
    elif choice == 5:
        scale["min"], scale["max"] = 100, 0
    else:
        scale["min"] = -10


def fault_elements(doc: dict, rng: random.Random) -> None:
    raw = doc.get("elements")
    choice = rng.randrange(12)
    if choice == 0:
        doc["elements"] = rng.choice([_junk(rng), []])
        return
    if not isinstance(raw, list) or not raw:
        return
    index = rng.randrange(len(raw))
    entry = raw[index]
    if choice == 1:
        raw[index] = _junk(rng)
    elif not isinstance(entry, dict):
        return
    elif choice == 2:
        entry.pop(rng.choice(["id", "evaluation"]), None)
    elif choice == 3:
        entry[rng.choice(["weight", "label"])] = 1
    elif choice == 4:
        entry["id"] = _junk(rng)
    elif choice == 5:
        entry["evaluation"] = _junk(rng)
    elif choice == 6:
        entry["priority"] = _junk(rng)
    elif choice == 7:
        other = raw[rng.randrange(len(raw))]
        entry["id"] = other.get("id", "e0") if isinstance(other, dict) else "e0"
    elif choice == 8:
        entry["evaluation"] = rng.choice([100.5, -0.001, 250, -3])
    elif choice == 9:
        entry["priority"] = rng.choice([0, -2, 0.0])
    elif choice == 10:
        raw.append(copy.deepcopy(entry))
    else:
        raw.append({"id": f"extra{index}", "evaluation": 50})


def fault_groups(doc: dict, rng: random.Random) -> None:
    raw = doc.get("groups")
    choice = rng.randrange(12)
    if choice == 0 or raw is None:
        doc["groups"] = rng.choice([_junk(rng), []])
        return
    if not isinstance(raw, list) or not raw:
        return
    index = rng.randrange(len(raw))
    entry = raw[index]
    ids = _element_ids(doc)
    if choice == 1:
        raw[index] = _junk(rng)
    elif not isinstance(entry, dict):
        return
    elif choice == 2:
        entry.pop(rng.choice(["id", "members"]), None)
    elif choice == 3:
        entry["priority"] = _junk(rng)
    elif choice == 4:
        entry["members"] = rng.choice([[], "e0", None, {}])
    elif choice == 5 and isinstance(entry.get("members"), list):
        entry["members"].append(_junk(rng))
    elif choice == 6 and isinstance(entry.get("members"), list):
        entry["members"].append(rng.choice(["ghost", "zz", "E0"]))
    elif choice == 7 and isinstance(entry.get("members"), list):
        entry["members"].append(rng.choice(ids))
    elif choice == 8:
        raw.append({"id": entry.get("id", "g1"), "members": [rng.choice(ids)]})
    elif choice == 9 and isinstance(entry.get("members"), list) and entry["members"]:
        entry["members"].pop()
    elif choice == 10:
        entry["id"] = _junk(rng)
    else:
        entry["colour"] = "red"


def fault_hierarchy(doc: dict, rng: random.Random) -> None:
    if "hierarchy" not in doc or rng.random() < 0.05:
        doc["hierarchy"] = rng.choice([_junk(rng), "e0", "ghost"])
        return
    subs = _subsystems(doc)
    if not subs:
        return
    node = rng.choice(subs)
    ids = _element_ids(doc)
    choice = rng.randrange(16)
    children = node.get("children")
    if choice == 0 and isinstance(children, list):
        children.append(rng.choice(["ghost", "nobody", ""]))
    elif choice == 1 and isinstance(children, list):
        children.append(rng.choice(ids))
    elif choice == 2 and isinstance(children, list):
        children.append(_junk(rng))
    elif choice == 3:
        node["children"] = rng.choice([[], None, "e0", {}])
    elif choice == 4:
        node["id"] = rng.choice([rng.choice(ids), "", 7, "root"])
    elif choice == 5:
        node["priority"] = _junk(rng)
    elif choice == 6:
        node["method"] = _junk(rng)
    elif choice == 7:
        node["method"] = {"method": rng.choice(["median", "WLAM", 3, None, "hybrid", "wem-then"])}
    elif choice == 8:
        method = node.setdefault("method", {"method": "wlam"})
        if isinstance(method, dict):
            method[rng.choice(["extra", "weights"])] = 1
    elif choice == 9:
        method = node.setdefault("method", {"method": "wem-then"})
        if isinstance(method, dict):
            method["critical"] = rng.choice([[], "e0", [1], [""], ["ghost"], ids[:1]])
    elif choice == 10:
        method = node.setdefault("method", {"method": "wem-then"})
        if isinstance(method, dict):
            method["fallback"] = rng.choice(["wem", "hybrid", 1, None, "nam", "wlam"])
    elif choice == 11:
        method = node.setdefault("method", {"method": "wlam"})
        if isinstance(method, dict):
            method["threshold"] = rng.choice([_junk(rng), 1.5, -0.1, 0.5])
    elif choice == 12:
        method = node.setdefault("method", {"method": "hybrid"})
        if isinstance(method, dict):
            method["groups"] = rng.choice(
                [_junk(rng), [], [{"id": "q", "members": ["ghost"]}],
                 [{"id": "q", "members": ids[:1]}, {"id": "q", "members": ids[:1]}],
                 [{"id": "q", "members": [], "priority": -1}]]
            )
    elif choice == 13:
        node.pop(rng.choice(["id", "children"]), None)
    elif choice == 14 and isinstance(children, list) and children:
        children.pop(rng.randrange(len(children)))
    else:
        node["label"] = "x"


def fault_network(doc: dict, rng: random.Random) -> None:
    raw = doc.get("network")
    choice = rng.randrange(12)
    if choice == 0 or not isinstance(raw, dict):
        doc["network"] = _junk(rng)
        return
    if choice == 1:
        raw.pop("nodes", None)
    elif choice == 2:
        raw["nodes"] = rng.choice([_junk(rng), ["n1", ""], ["n1", 2], ["n1", "n1"]])
    elif choice == 3:
        raw["edges"] = _junk(rng)
    elif choice == 4 and isinstance(raw.get("edges"), list):
        raw["edges"].append(rng.choice([["n1"], ["n1", 2], "n1", ["n1", "n9"], ["n2", "n2"], ["n1", "n2"]]))
    elif choice == 5:
        raw["flows"] = _junk(rng)
    elif choice == 6 and isinstance(raw.get("flows"), list):
        raw["flows"].append(rng.choice([_junk(rng), {"route": ["n1"]}, {"route": ["n1", "n3"]}, {}]))
    elif choice == 7 and isinstance(raw.get("flows"), list) and raw["flows"]:
        flow = raw["flows"][0]
        if isinstance(flow, dict):
            flow["volume"] = _junk(rng)
    elif choice == 8 and isinstance(raw.get("flows"), list) and raw["flows"]:
        flow = raw["flows"][0]
        if isinstance(flow, dict):
            flow["route"] = _junk(rng)
    elif choice == 9:
        raw["weights"] = {}
    elif choice == 10 and isinstance(raw.get("flows"), list):
        raw["flows"].append({"route": ["n1", "n2"], "volume": rng.choice([0, -1, 0.0])})
    else:
        raw["nodes"] = []


def fault_document(doc: dict, rng: random.Random) -> None:
    doc[rng.choice(["version", "Scale", "meta"])] = 1


FAULTS = [fault_scale, fault_elements, fault_elements, fault_groups, fault_groups,
          fault_hierarchy, fault_hierarchy, fault_hierarchy, fault_network, fault_document]


def main() -> None:
    rng = random.Random(SEED)
    cases = []
    while len(cases) < CASES:
        doc = base_document(rng)
        for _ in range(rng.randint(2, 6)):
            rng.choice(FAULTS)(doc, rng)
        text = json.dumps(doc)
        try:
            parse_description(text)
        except DescriptionError as exc:
            cases.append({"document": text, "diagnostics": list(exc.diagnostics)})
    OUT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} broken documents written to {OUT}")


if __name__ == "__main__":
    main()
