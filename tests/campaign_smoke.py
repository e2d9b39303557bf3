"""CI campaign smoke: fault injection + SIGKILL + resume == reference.

Drives the full fleet-campaign recovery story end to end, heavier than
tier-1 but still minutes-scale:

1. an uninterrupted reference campaign records its aggregate digest;
2. the same campaign reruns with deterministic crash/hang injection
   (``REPRO_FAULTS=crash:0.05,hang:0.02``) and per-chunk checkpoints,
   and is SIGKILLed mid-sweep;
3. a resumed invocation replays only the missing tenants;
4. the resumed digest must equal the reference **bit-exactly**, with
   at least one tenant loaded from the shards.

With ``--trace FILE`` an extra leg runs between the reference and the
faulted sweep: the same campaign with the trace recorder attached
(workers streaming span/counter sidecars back over the result pipes).
Its aggregate digest must equal the untraced reference bit-exactly —
observability that changes results is a bug, full stop — the written
file must validate as a Chrome-trace JSON object, and under the ``c``
engine it must carry the C walk's ``engine.llc_fills`` counter.

Standalone (not a pytest module) so the CI job can run it directly:

    python tests/campaign_smoke.py --tenants 200 --jobs 2 --trace out.json
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

BUDGETS = dict(
    benign_instructions=(6_000, 12_000),
    attack_iterations=(6, 10),
    covert_bits=(8, 12),
)


def _campaign_script(tenants: int, jobs: int, seed: int) -> str:
    return f"""
import sys, warnings
sys.path.insert(0, {str(SRC)!r})
warnings.simplefilter("ignore")
from repro.experiments.campaign import run
r = run(seed={seed}, tenants={tenants}, jobs={jobs}, chunk_size=25,
        **{BUDGETS!r})
print("DIGEST", r.data["aggregate_digest"])
print("LOADED", r.data["stream"]["loaded"])
print("COMPUTED", r.data["stream"]["computed"])
print("FAILURES", len(r.data["stream"]["failures"]))
"""


def _traced_leg(args, expected: str) -> bool:
    """Rerun the reference campaign with the trace recorder attached
    and prove it is invisible: bit-identical digest, valid Chrome-trace
    file, zero dropped sidecars — and alive: under ``c`` the file
    carries the C walk's counters."""
    import json

    from repro.engine import effective_engine
    from repro.experiments.campaign import run
    from repro.obs.trace import (
        TraceRecorder,
        attach_recorder,
        detach_recorder,
        validate_chrome_trace,
    )

    recorder = attach_recorder(TraceRecorder())
    recorder.process_name("campaign-smoke")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traced = run(
                seed=args.seed, tenants=args.tenants, jobs=args.jobs,
                chunk_size=25, **BUDGETS,
            )
    finally:
        detach_recorder()

    recorder.write(args.trace)
    with open(args.trace) as fh:
        written = json.load(fh)
    problems = validate_chrome_trace(written)
    fills = written.get("telemetry", {}).get("counters", {}).get(
        "engine.llc_fills", 0
    )
    digest = traced.data["aggregate_digest"]
    spans = len(recorder.events)
    print(
        f"      traced digest {digest}; {spans} span(s), "
        f"{recorder.dropped} dropped sidecar(s), engine.llc_fills "
        f"{fills:,} -> {args.trace}"
    )
    if problems:
        print("FAIL: trace file is not valid Chrome-trace JSON:")
        for problem in problems[:10]:
            print(f"  {problem}")
        return False
    if spans <= args.tenants:
        # One span per tenant cell at minimum, plus chunk/campaign
        # spans: far fewer means worker sidecars never streamed back.
        print(f"FAIL: only {spans} span(s) for {args.tenants} tenants")
        return False
    if recorder.dropped:
        print(f"FAIL: {recorder.dropped} sidecar(s) failed integrity checks")
        return False
    if effective_engine() == "c" and not fills:
        # The C walk exports its counters to the recorder attached at
        # install time; none in the file means that path is dead.
        print("FAIL: the trace has no engine.llc_fills counter under c")
        return False
    if digest != expected:
        print(
            "FAIL: tracing changed the aggregate digest\n"
            f"  untraced {expected}\n  traced   {digest}"
        )
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tenants", type=int, default=200)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="also run a traced leg and write its Chrome-trace JSON "
             "here; the traced digest must equal the reference",
    )
    args = parser.parse_args()

    from repro.experiments.campaign import run

    legs = 4 if args.trace else 3
    print(f"[1/{legs}] reference: {args.tenants} tenants, uninterrupted")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = run(
            seed=args.seed, tenants=args.tenants, jobs=args.jobs,
            chunk_size=25, **BUDGETS,
        )
    expected = reference.data["aggregate_digest"]
    print(f"      digest {expected}")

    if args.trace:
        print(f"[2/{legs}] traced: spans + counters on, digest must not move")
        if not _traced_leg(args, expected):
            return 1

    script = _campaign_script(args.tenants, args.jobs, args.seed)
    with tempfile.TemporaryDirectory(prefix="campaign-smoke-") as ckpt:
        env = {
            **os.environ,
            "REPRO_CHECKPOINT_DIR": ckpt,
            "REPRO_RESUME": "1",
            "REPRO_FAULTS": "crash:0.05,hang:0.02",
            "REPRO_FAULT_SEED": "51",
            "REPRO_FAULT_HANG": "30",
            "REPRO_CELL_TIMEOUT": "10",
            "REPRO_RETRIES": "6",
        }
        print(f"[{legs - 1}/{legs}] faulted run, SIGKILL mid-sweep")
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        ckpt_path = Path(ckpt)
        shard = None
        deadline = time.monotonic() + 120
        # Kill once a couple of chunks' worth of tenants are durable,
        # so the resume leg provably has work both to load and to do.
        want = min(args.tenants // 4, 50)
        while time.monotonic() < deadline:
            time.sleep(0.05)
            lines = sum(
                sum(1 for ln in p.read_text().splitlines() if ln.strip())
                for p in ckpt_path.glob("campaign-*.jsonl")
            )
            if lines >= want:
                shard = lines
                break
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        if shard is None:
            print("FAIL: no checkpointed tenants before the kill deadline")
            return 1
        print(f"      killed with >= {shard} tenants checkpointed")

        print(f"[{legs}/{legs}] resume (faults still injected)")
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, timeout=1800,
        )
        if out.returncode != 0:
            print(f"FAIL: resume leg exited {out.returncode}\n{out.stdout}")
            return 1
        fields = dict(
            line.split(" ", 1)
            for line in out.stdout.strip().splitlines() if " " in line
        )
        loaded = int(fields.get("LOADED", 0))
        computed = int(fields.get("COMPUTED", 0))
        print(
            f"      resumed: {loaded} loaded + {computed} computed, "
            f"digest {fields.get('DIGEST')}"
        )
        if loaded <= 0:
            print("FAIL: resume replayed nothing from the shards")
            return 1
        if loaded + computed != args.tenants:
            print(f"FAIL: {loaded}+{computed} != {args.tenants} tenants")
            return 1
        if fields.get("FAILURES") != "0":
            print(f"FAIL: {fields.get('FAILURES')} unrecovered tenants")
            return 1
        if fields.get("DIGEST") != expected:
            print(
                "FAIL: resumed aggregate digest differs from the "
                f"uninterrupted reference\n  expected {expected}\n  "
                f"got      {fields.get('DIGEST')}"
            )
            return 1
    print("OK: SIGKILL + resume reproduced the reference bit-exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
