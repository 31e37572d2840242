"""Compare two result files: ``python3 perf/compare.py A.json B.json``.

A is the base, B the candidate. Every (workload, end-to-end metric)
pair gets its ratio B/A with the base beside it and one verdict:

* ``ok``          B is not worse than A by more than the metric's bound;
* ``REGRESSION``  it is;
* ``unresolved``  either side's own repeats spread (IQR / median) wider
                  than the bound, so the pair cannot tell;
* ``MISMATCH``    a value that repeats exactly for a seed differs
                  (simulated latency, report hash, failure counts, and
                  every per-layer count when both sides were traced).

Exits 1 on any REGRESSION or MISMATCH. Two runs of the same commit
should print only ``ok`` (and, on a noisy host, ``unresolved``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf.measure import END_TO_END, EXACT  # noqa: E402


def _relative_iqr(entry: dict) -> float:
    if "median" not in entry or not entry["median"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / entry["median"]


def compare_metric(name: str, base: dict, new: dict) -> tuple[float, str]:
    """Ratio new/base and the verdict for one end-to-end metric."""
    _, better, bound = END_TO_END[name]
    ratio = new["value"] / base["value"]
    if name in EXACT:
        return ratio, "ok" if new["value"] == base["value"] else "MISMATCH"
    if max(_relative_iqr(base), _relative_iqr(new)) > bound:
        return ratio, "unresolved"
    worsening = 1 - ratio if better == "higher" else ratio - 1
    return ratio, "REGRESSION" if worsening > bound else "ok"


def compare(base: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines and whether anything failed."""
    lines: list[str] = []
    bad = False
    if base["manifest"]["seed"] != new["manifest"]["seed"]:
        lines.append("seeds differ: exact values are expected to differ too")
    header = f"{'workload':<16}{'metric':<22}{'base':>14}{'new':>14}{'new/base':>10}  verdict"
    lines.append(header)
    for workload, old in base["workloads"].items():
        section = new["workloads"].get(workload)
        if section is None:
            lines.append(f"{workload:<16}missing from the second file")
            bad = True
            continue
        for name in END_TO_END:
            a, b = old["end_to_end"][name], section["end_to_end"][name]
            ratio, verdict = compare_metric(name, a, b)
            bad |= verdict in ("REGRESSION", "MISMATCH")
            lines.append(
                f"{workload:<16}{name:<22}{a['value']:>14.6g}{b['value']:>14.6g}"
                f"{ratio:>10.4f}  {verdict} (bound {END_TO_END[name][2]:g}, {a['unit']})"
            )
        for key in ("report_sha", "failed"):
            if old[key] != section[key]:
                bad = True
                lines.append(f"{workload:<16}{key:<22}{old[key]!s:>14.14}{section[key]!s:>14.14}"
                             f"{'':>10}  MISMATCH")
        if old["per_layer"] and section["per_layer"]:
            for name, a in old["per_layer"].items():
                b = section["per_layer"][name]
                if a["unit"] == "count" and a["value"] != b["value"]:
                    bad = True
                    lines.append(f"{workload:<16}{name:<22}{a['value']!s:>14}{b['value']!s:>14}"
                                 f"{'':>10}  MISMATCH (count)")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    lines, bad = compare(base, new)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
