#!/usr/bin/env python3
"""Regenerate the frozen corpora under tests/data/.

Both files are deterministic: rerunning this script must reproduce them
byte-for-byte. The use-case corpus carries the three showcase sentences
with every ordered entity pair labeled (listed triples plus noRelation
for the rest); the smoke corpus is 50 template sentences whose relation
labels follow the bundled ontology so that a small model can overfit
them quickly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def bio_labels(n_tokens: int, spans) -> list[str]:
    labels = ["O"] * n_tokens
    for start, end, name in spans:
        labels[start] = f"B-{name}"
        for pos in range(start + 1, end):
            labels[pos] = f"I-{name}"
    return labels


def record(tokens, spans, positives) -> dict:
    """positives: list of (head_idx, relation, tail_idx); every other ordered
    pair becomes noRelation."""
    listed = {(h, t) for h, _r, t in positives}
    relations = [[h, r, t] for h, r, t in positives]
    for i in range(len(spans)):
        for j in range(len(spans)):
            if i != j and (i, j) not in listed:
                relations.append([i, "noRelation", j])
    return {
        "text": " ".join(tokens),
        "entities": [[s, e, n] for s, e, n in spans],
        "relations": relations,
        "entity_labels": bio_labels(len(tokens), spans),
    }


def use_case_corpus() -> list[dict]:
    records = []

    tokens = ("In this same time frame , APT10 also targeted a U.S. law firm and an "
              "international apparel company , likely to gather information for "
              "commercial advantage .").split()
    spans = [(6, 7, "HackOrg"), (10, 13, "Org"), (16, 18, "Org"), (21, 23, "Purp")]
    positives = [(0, "targets", 1), (0, "targets", 2), (0, "motivates", 3)]
    records.append(record(tokens, spans, positives))

    tokens = ("Carbanak is a cybercriminal group that has used Carbanak malware to "
              "target financial institutions since at least 2013 .").split()
    spans = [(0, 1, "HackOrg"), (8, 10, "Tool"), (12, 14, "Org"), (17, 18, "Time")]
    positives = [
        (0, "uses", 1),
        (0, "targets", 2),
        (0, "hasAttackTime", 3),
        (1, "targets", 2),
        (1, "hasAttackTime", 3),
    ]
    records.append(record(tokens, spans, positives))

    tokens = ("Night Dragon was a cyber espionage campaign that targeted oil , energy "
              ", petrochemical companies , along with individuals and executives in "
              "Kazakhstan , Taiwan , Greece , the United States .").split()
    spans = [
        (0, 2, "HackOrg"),
        (4, 7, "OffAct"),
        (9, 10, "Org"),
        (11, 12, "Org"),
        (13, 15, "Org"),
        (22, 23, "Area"),
        (24, 25, "Area"),
        (26, 27, "Area"),
        (28, 31, "Area"),
    ]
    positives = [(0, "uses", 1)]
    for target in range(2, 9):
        positives.append((0, "targets", target))
        positives.append((1, "targets", target))
    records.append(record(tokens, spans, positives))
    return records


# ---------------------------------------------------------------------------
# Smoke corpus
# ---------------------------------------------------------------------------

POOLS = {
    "HackOrg": ["APT28", "APT33", "Lazarus", "Turla", "MuddyWater", "FIN7",
                "OilRig", "Sofacy", "Cozy Bear", "Deep Panda"],
    "Tool": ["Mimikatz", "PlugX", "LaZagne", "X-Agent", "Flame", "ChChes",
             "Cobalt Strike", "Poison Ivy"],
    "Org": ["defense contractors", "government agencies", "banking networks",
            "energy companies", "telecom operators", "aviation firms"],
    "Area": ["China", "Iran", "Russia", "Europe", "Ukraine", "Taiwan",
             "South Korea"],
    "Time": ["2014", "2015", "March 2016", "late 2017", "April 2018"],
    "SecTeam": ["FireEye", "Kaspersky", "Symantec", "CrowdStrike", "ESET"],
    "SamFile": ["dropper.exe", "payload.dll", "install.bat", "update.vbs"],
    "Exp": ["EternalBlue", "CVE-2017-0199", "Heartbleed", "Shellshock"],
    "Way": ["spear-phishing", "watering hole", "credential dumping",
            "SQL injection"],
    "Purp": ["espionage", "data theft", "financial gain", "sabotage"],
    "OffAct": ["phishing campaign", "brute force attack", "DDoS attack",
               "supply chain attack"],
    "Features": ["keylogging", "lateral movement", "persistence",
                 "screen capture"],
}

# (template tokens with {k} slots, slot types, positive relations over slots,
#  extra noRelation ordered pairs)
TEMPLATES = [
    ("{0} used {1} to target {2} in {3} .",
     ("HackOrg", "Tool", "Org", "Area"),
     [(0, "uses", 1), (0, "targets", 2), (1, "targets", 2), (2, "locatedAt", 3)],
     [(3, 1)]),
    ("{0} discovered {1} attacking {2} since {3} .",
     ("SecTeam", "HackOrg", "Org", "Time"),
     [(0, "discovers", 1), (1, "targets", 2), (1, "hasAttackTime", 3)],
     [(3, 2), (2, 3)]),
    ("{0} exploited {1} against {2} .",
     ("HackOrg", "Exp", "Org"),
     [(0, "uses", 1), (0, "targets", 2), (1, "targets", 2)],
     []),
    ("{0} analysed {1} dropped by {2} .",
     ("SecTeam", "SamFile", "Tool"),
     [(0, "analyses", 1), (1, "usedBy", 2)],
     [(2, 0)]),
    ("{0} conducted a {1} driven by {2} .",
     ("HackOrg", "OffAct", "Purp"),
     [(0, "uses", 1), (0, "motivatedBy", 2), (2, "motivates", 0)],
     []),
    ("{0} provides {1} for {2} .",
     ("Tool", "Features", "HackOrg"),
     [(0, "hasCharacteristics", 1), (0, "usedBy", 2)],
     [(1, 2)]),
    ("{0} relied on {1} to compromise {2} in {3} .",
     ("HackOrg", "Way", "Org", "Area"),
     [(0, "uses", 1), (0, "targets", 2), (2, "locatedAt", 3)],
     [(3, 0)]),
    ("{0} monitors {1} targeted by {2} .",
     ("SecTeam", "Org", "HackOrg"),
     [(0, "monitors", 1), (1, "targetedBy", 2), (2, "discoveredBy", 0)],
     []),
]


def fill_template(template, slot_types, positives, extra_norel, rng) -> dict:
    surfaces = []
    for slot_type in slot_types:
        pool = POOLS[slot_type]
        surfaces.append(pool[int(rng.integers(len(pool)))])
    tokens: list[str] = []
    spans = []
    for piece in template.split():
        if piece.startswith("{"):
            idx = int(piece.strip("{}."))
            words = surfaces[idx].split()
            spans.append((len(tokens), len(tokens) + len(words), slot_types[idx]))
            tokens.extend(words)
            if piece.endswith("."):
                tokens.append(".")
        else:
            tokens.append(piece)
    relations = [[h, r, t] for h, r, t in positives]
    relations += [[h, "noRelation", t] for h, t in extra_norel]
    return {
        "text": " ".join(tokens),
        "entities": [[s, e, n] for s, e, n in spans],
        "relations": relations,
        "entity_labels": bio_labels(len(tokens), spans),
    }


def smoke_corpus(n_sentences: int = 50, seed: int = 7) -> list[dict]:
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n_sentences):
        template, slot_types, positives, extra = TEMPLATES[k % len(TEMPLATES)]
        records.append(fill_template(template, slot_types, positives, extra, rng))
    return records


def fixture_files() -> dict[str, str]:
    """File name under tests/data/ -> its exact text."""
    return {
        name: json.dumps(records, indent=1) + "\n"
        for name, records in (
            ("use_case_corpus.json", use_case_corpus()),
            ("smoke_corpus.json", smoke_corpus()),
        )
    }


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in fixture_files().items():
        (DATA_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {DATA_DIR / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
