#!/usr/bin/env bash
# Run the hot-path microbenchmarks and record the ops/sec trajectory
# (includes the end-to-end fig8 and fig10 cells, so every run stamps a
# detection-subsystem trajectory point alongside the kernel numbers).
#
# Usage:  benchmarks/run_perf.sh [extra pytest args...]
#
# The benchmarks run in three pytest processes, one after another (the
# extra arguments go to each): a whole process can land in a fast or a
# slow host state, so one process's best of 3 rounds cannot resolve a
# change.  Each cell's compact entry is the median of the three
# processes' bests (benchmarks/compare.py, merge_process_bests).
#
# Writes:
#   benchmarks/results/BENCH_hotpath.json       — compact ops/sec record
#   benchmarks/results/BENCH_hotpath.<n>.raw.json
#                                               — process n's full
#                                                 pytest-benchmark dump
#                                                 (gitignored host-noise detail)
#   benchmarks/results/BENCH_trajectory.json    — one appended entry per run,
#                                                 stamped with the git SHA, so
#                                                 the perf trajectory across
#                                                 PRs stays machine-readable
#
# The compact record is the file to diff across PRs (see
# benchmarks/compare.py, which flags >10% regressions between two
# records); the trajectory file accumulates history.
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p benchmarks/results

OUT=benchmarks/results/BENCH_hotpath.json
TRAJECTORY=benchmarks/results/BENCH_trajectory.json
GIT_SHA=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
GIT_DIRTY=""
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    GIT_DIRTY="-dirty"
fi
# Fallback engine label only: the authoritative stamp comes from the
# benchmark processes themselves (each bench records the *effective*
# engine in its extra_info, after any toolchain fallback), so records
# stay truthful even when `--engine` is passed through to pytest or
# the C backend degrades.
ENGINE=${REPRO_ENGINE:-c}

RAWS=()
for n in 1 2 3; do
    RAW=benchmarks/results/BENCH_hotpath.$n.raw.json
    RAWS+=("$RAW")
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
        benchmarks/bench_hotpath.py \
        -q -m tier2_perf \
        --benchmark-json="$RAW" \
        "$@"
done

PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python - "$OUT" "$TRAJECTORY" "$GIT_SHA$GIT_DIRTY" "$ENGINE" "${RAWS[@]}" <<'EOF'
import json
import os
import sys

sys.path.insert(0, "benchmarks")
from compare import merge_process_bests

out_path, trajectory_path, git_sha, engine = sys.argv[1:5]
raws = []
for raw_path in sys.argv[5:]:
    with open(raw_path) as fh:
        raws.append(json.load(fh))
raw = raws[0]


def host_provenance():
    # The host fingerprint compare.py checks before diffing two
    # records: CPU model, core count, Python, and the C compiler the
    # cffi engine would build with.  Best-effort per field — a host
    # where /proc/cpuinfo or the compiler probe is unavailable still
    # stamps the rest.
    import platform
    import shutil
    import subprocess

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if not cpu:
        cpu = platform.processor() or platform.machine() or None
    compiler = None
    cc = shutil.which(os.environ.get("CC", "cc")) or shutil.which("gcc")
    if cc:
        try:
            probe = subprocess.run(
                [cc, "--version"], capture_output=True, text=True, timeout=10
            )
            if probe.returncode == 0 and probe.stdout:
                compiler = probe.stdout.splitlines()[0].strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "compiler": compiler,
    }


host = host_provenance()

# Prefer the engine the benchmarks actually ran (recorded per-bench
# after fallback resolution) over the shell's environment guess.
measured = {
    b.get("extra_info", {}).get("engine")
    for r in raws
    for b in r["benchmarks"]
    if b.get("extra_info", {}).get("engine")
}
if len(measured) == 1:
    engine = measured.pop()
elif measured:
    engine = "mixed:" + "+".join(sorted(measured))

record = {
    "machine": raw.get("machine_info", {}).get("node"),
    "datetime": raw.get("datetime"),
    "commit": git_sha,
    "engine": engine,
    "host": host,
    "processes": len(raws),
    "benchmarks": merge_process_bests(raws),
}

def atomic_write(path, payload):
    # write-temp-then-rename: an interrupted run can never leave a
    # truncated record or trajectory behind (same directory, so the
    # os.replace is atomic).
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)

atomic_write(out_path, record)

# Append this run to the machine-readable trajectory (one entry per
# invocation; compact form only — per-round data stays in the raw dump).
try:
    with open(trajectory_path) as fh:
        trajectory = json.load(fh)
except (FileNotFoundError, json.JSONDecodeError):
    trajectory = []
trajectory.append({
    "commit": record["commit"],
    "datetime": record["datetime"],
    "machine": record["machine"],
    "engine": record["engine"],
    "host": host,
    "processes": record["processes"],
    "benchmarks": {
        name: {"ops_per_sec": entry["ops_per_sec"],
               "best_seconds": entry["best_seconds"]}
        for name, entry in record["benchmarks"].items()
    },
})
atomic_write(trajectory_path, trajectory)

width = max(len(n) for n in record["benchmarks"])
print(f"\n{'benchmark'.ljust(width)}  {'ops/sec':>14}  {'median best':>12}")
for name, entry in sorted(record["benchmarks"].items()):
    print(f"{name.ljust(width)}  {entry['ops_per_sec']:>14,.1f}  "
          f"{entry['best_seconds']:>11.4f}s")
print(f"\nwrote {out_path}")
print(f"appended run {len(trajectory)} (commit {record['commit']}, engine {engine}) to {trajectory_path}")
EOF
