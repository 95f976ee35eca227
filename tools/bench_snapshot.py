"""Run the benchmark for both workloads, untraced and traced, and keep the results
under a label in a ``BENCH_<pr>.json`` file.

    python tools/bench_snapshot.py --label change --out BENCH_26.json --seeds 21 22 --seconds 20
    python tools/bench_snapshot.py --label parent --root ../parent --out BENCH_26.json

``--root`` is the checkout whose ``bench/run.py`` runs (default: this one), so
a second checkout of another commit can be measured into the same file.  Each
run is ``bench/run.py --workload W --seed S --seconds T --trace M`` for
``W`` in ``verdict`` and ``cli`` and ``M`` in 0 (end-to-end metrics) and 1
(per-layer metrics).  The label holds the commit of ``--root``, the tracked
files under ``src`` and ``bench`` that differ from it, and per run its
arguments, exit code, ``# environment`` line and last-line result object.
Other labels already in ``--out`` are kept.  Exits 1 when any run exits
nonzero, after writing what it measured.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("verdict", "cli")
TRACES = (0, 1)


def _git(root: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    done = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=root,
                          capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = [line.removeprefix("# environment ") for line in lines
           if line.startswith("# environment ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode:
        sys.stderr.write(f"bench/run.py {' '.join(argv)} exited {done.returncode}\n"
                         + "\n".join(lines[-20:]) + done.stderr[-2000:] + "\n")
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "exit": done.returncode, "environment": json.loads(env[0]) if env else None,
            "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this snapshot, e.g. parent or change")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<pr>.json to update")
    parser.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    parser.add_argument("--seeds", type=int, nargs="+", default=[21])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    changed = _git(root, "diff", "--name-only", "HEAD", "--", "src", "bench")
    runs = [run_one(root, workload, seed, args.seconds, trace)
            for seed in args.seeds for workload in WORKLOADS for trace in TRACES]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = {
        "commit": _git(root, "rev-parse", "HEAD"),
        "changed": changed.splitlines() if changed else [],
        "runs": runs,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if any(run["exit"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
