"""FlexLedger command line.

``python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
measures one workload in this process and prints, as its last line, the
contract's JSON object (end-to-end metrics untraced, per-layer metrics
traced). Without ``--workload`` it runs every workload, untraced and
traced, each in a subprocess of its own (so peak RSS does not leak
across workloads), and writes the merged result to ``--json PATH``.
Exits non-zero when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf: {ROOT / 'src' / 'repro'} not found; run from a checkout of the repo")
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import calib, measure  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 7
DEFAULT_SECONDS = 22


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def pin_to_one_cpu() -> int:
    """Keep this process on one CPU (the lowest it is allowed on).

    Unpinned, the scheduler moves the process between the vCPUs and
    every move costs warm caches the calibration ticks do not see: ten
    same-seed invocations of ``fabric_forward`` spread 6.5% (IQR /
    median) unpinned and 1.4% pinned. ``fabric_sharded`` is left
    unpinned, because its workers are meant to use both cores."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def manifest(args: argparse.Namespace, affinity: int, pinned_cpu: int | None = None) -> dict:
    """What makes this result comparable with another one."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": pinned_cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "quick": args.quick,
        "calib.tick_ref_ms": calib.TICK_REF_S * 1e3,
    }


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_workload(name: str, section: dict) -> None:
    print(f"\n== {name} (seed {section['seed']}, {section['repeats']} timed repeat(s), "
          f"{section['hops']} hops, {section['packets']} packets) ==")
    print(f"report_sha {section['report_sha'][:16]}  attempted {section['attempted']}  "
          f"failed {section['failed']}  correct {section['correct']}")
    for problem in section["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"{'end-to-end metric':<24}{'value':>14} {'unit':<8} over repeats")
    for metric, entry in section["end_to_end"].items():
        detail = ""
        if "median" in entry:
            detail = (f"median {_format(entry['median'])} "
                      f"[{_format(entry['q1'])}, {_format(entry['q3'])}]")
        elif "samples" in entry:
            detail = f"{entry['samples']} samples"
        print(f"{metric:<24}{_format(entry['value']):>14} {entry['unit']:<8} {detail}")
    if section["per_layer"] is None:
        return
    print(f"{'layer':<12}{'spans':>10}{'self ms':>12}{'share':>9}{'ns/hop':>10}")
    for row in section["layer_table"]:
        print(f"{row['layer']:<12}{row['spans']:>10}{row['self_ms']:>12.1f}"
              f"{row['share']:>9.3f}{row['self_ns_per_hop']:>10.0f}")
    print(f"{'per-layer metric':<32}{'value':>14} unit")
    for metric, entry in section["per_layer"].items():
        print(f"{metric:<32}{_format(entry['value']):>14} {entry['unit']}")
    if section["absent_probes"]:
        print(f"absent probes: {', '.join(section['absent_probes'])}")


def contract_line(section: dict) -> str:
    """The last line the driver reads. It wants a number for every
    metric, so a per-layer metric that is ``null`` here (layer not
    exercised, probe target gone) is sent as 0."""
    chosen = section["per_layer"] if section["per_layer"] is not None else section["end_to_end"]
    metrics = {
        name: {"value": entry["value"] if entry["value"] is not None else 0, "unit": entry["unit"]}
        for name, entry in chosen.items()
    }
    return json.dumps(
        {
            "correct": section["correct"],
            "attempted": section["attempted"],
            "failed": section["failed"],
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    affinity = len(os.sched_getaffinity(0))
    pinned_cpu = None if workload.shards else pin_to_one_cpu()
    section = measure.run_workload(
        workload,
        args.seed,
        seconds=args.seconds,
        repeats=args.repeats,
        trace=bool(args.trace),
        quick=args.quick,
        keep_spans=args.spans is not None,
    )
    spans = section.pop("spans", None)
    if args.spans is not None:
        Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
    result = {
        "manifest": manifest(args, affinity, pinned_cpu),
        "workloads": {args.workload: section},
    }
    result["manifest"]["wall_s"] = time.perf_counter() - started
    print(f"manifest {json.dumps(result['manifest'])}")
    print_workload(args.workload, section)
    if args.json is not None:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(contract_line(section))
    return 0 if section["correct"] else 1


def _run_child(args: argparse.Namespace, name: str, trace: int, out: Path) -> dict | None:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--json", str(out),
    ]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    if args.quick:
        command.append("--quick")
    subprocess.run(command)
    if not out.exists():
        return None
    return json.loads(out.read_text(encoding="utf-8"))["workloads"][name]


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced, one subprocess each."""
    started = time.perf_counter()
    sections: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOADS:
            untraced = _run_child(args, name, 0, Path(scratch) / f"{name}.untraced.json")
            traced = _run_child(args, name, 1, Path(scratch) / f"{name}.traced.json")
            if untraced is None or traced is None:
                continue
            for key in ("per_layer", "layer_table", "absent_probes"):
                untraced[key] = traced[key]
            for key in ("attempted", "failed", "problems"):
                untraced[key] += traced[key]
            untraced["correct"] = untraced["failed"] == 0
            sections[name] = untraced
    result = {"manifest": manifest(args, len(os.sched_getaffinity(0))), "workloads": sections}
    result["manifest"]["wall_s"] = time.perf_counter() - started
    print(f"\nmanifest {json.dumps(result['manifest'])}")
    for name, section in sections.items():
        print(f"{name}: report_sha {section['report_sha'][:16]} "
              f"fail_ratio {section['failed'] / section['attempted']:.6g}")
    if args.json is not None:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    complete = len(sections) == len(WORKLOADS)
    return 0 if complete and all(s["correct"] for s in sections.values()) else 1


def parse(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="host seconds of timed repeats per invocation")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeats", type=int, help="fixed repeat count instead of --seconds")
    parser.add_argument("--quick", action="store_true", help="1/10 sizes, 2 repeats (smoke)")
    parser.add_argument("--json", help="write the full result here")
    parser.add_argument("--spans", help="write the fastest traced repeat's raw spans here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
