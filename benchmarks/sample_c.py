#!/usr/bin/env python
"""Where the time inside the C extension goes: a program-counter sampler.

Under ``REPRO_ENGINE=c`` a fig8 cell or a benign campaign tenant spends
almost all of its time in one C call, ``cw_schedule``, and the trace
recorder's per-layer metrics read 0 inside it.  This script answers
"where inside ``cw_schedule``".  It runs a perfbench-shaped fig8 round
(mix3, mix1, mix5 and mix7, each with the monitor off and with the
Table II 1024x8 filter, 250 k instructions per core) or one 40-tenant
campaign under a ``SIGPROF`` sampler: ``ITIMER_PROF`` fires every
millisecond of process CPU time, or every tick of the kernel's clock
if that is longer, and a small cffi-compiled signal handler records
the interrupted program counter.  Each sample inside
the extension is then symbolised with ``addr2line -f -i`` against the
loaded build, which names the innermost inlined function (at ``-O3``
most of the walk is inlined into ``cw_schedule``), and the script
prints the shares by innermost C function and by layer.

Usage::

    python benchmarks/sample_c.py                      # one fig8 round
    python benchmarks/sample_c.py --rounds 10          # 80 cells
    python benchmarks/sample_c.py --workload campaign  # one campaign

Nothing in the extension changes: the sampler is a module of its own,
and the symbols come from the cached build the run loads.  Linux on
x86-64 or aarch64 only (the program counter is read from the signal
context); it needs cffi, a C compiler, binutils' ``addr2line`` and
an extension built with DWARF (``-g``, which sysconfig's ``CFLAGS``
normally carry).  Without the DWARF the script exits with status 2:
``addr2line`` would name each inlined sample after its enclosing
symbol.
One sample is one interval of CPU time, which the kernel rounds up to
its tick (4 ms at HZ=250), so a share is a fraction of the run's CPU
time; runs of a few hundred samples carry a few percent of sampling
noise, and ``--rounds 10`` (80 cells) gives about a thousand.
"""

from __future__ import annotations

import argparse
import os
import platform
import shutil
import struct
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

_SUPPORTED = {"x86_64", "aarch64"}

#: The ITIMER_PROF interval; the kernel rounds it up to its tick.
INTERVAL_US = 1000

#: Instructions per core of a fig8 cell, as in perfbench's round.
FIG8_INSNS = 250_000

#: Layers by innermost C function.  Any other ``cw_`` function is the
#: rest of the cache walk, an ``acf_`` function the filter, and a sample
#: outside the extension (or in its cffi glue) is Python's.
_LAYERS = {
    "MT": ("cw_genrand", "cw_mt_refill", "cw_mt_temper", "cw_random",
           "cw_randbelow", "cw_mt_seed"),
    "emission": ("cw_emit_one", "cw_next_line", "cw_advance", "cw_emit",
                 "cw_chain"),
    "set scans": ("cw_slot", "cw_fill"),
    "scheduler": ("cw_schedule",),
}
_LAYER_OF = {fn: layer for layer, fns in _LAYERS.items() for fn in fns}
LAYER_ORDER = ("MT", "emission", "set scans", "rest of walk", "scheduler",
               "filter", "Python")

_SAMPLER_CDEF = """
int pcs_start(long interval_us);
void pcs_stop(void);
size_t pcs_count(void);
size_t pcs_dropped(void);
uintptr_t *pcs_buffer(void);
"""

_SAMPLER_SOURCE = r"""
#ifndef _GNU_SOURCE
#define _GNU_SOURCE         /* REG_RIP; Python.h has defined it already */
#endif
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define PCS_CAP (1 << 20)
static uintptr_t pcs[PCS_CAP];
static volatile size_t count, dropped;
static volatile sig_atomic_t recording;

static void on_prof(int sig, siginfo_t *info, void *ctx)
{
    const ucontext_t *uc = (const ucontext_t *)ctx;
    uintptr_t pc;
    (void)sig;
    (void)info;
    if (!recording)
        return;
#if defined(__x86_64__)
    pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "the sampler reads the program counter on x86-64 and aarch64 only"
#endif
    if (count < PCS_CAP)
        pcs[count++] = pc;
    else
        dropped++;
}

int pcs_start(long interval_us)
{
    struct sigaction sa;
    struct itimerval it;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return -1;
    count = 0;
    dropped = 0;
    recording = 1;
    it.it_interval.tv_sec = interval_us / 1000000;
    it.it_interval.tv_usec = interval_us % 1000000;
    it.it_value = it.it_interval;
    return setitimer(ITIMER_PROF, &it, NULL);
}

/* The handler stays installed: a SIGPROF still pending after the timer
 * stops would otherwise take the default action and end the process. */
void pcs_stop(void)
{
    struct itimerval it;
    memset(&it, 0, sizeof it);
    setitimer(ITIMER_PROF, &it, NULL);
    recording = 0;
}

size_t pcs_count(void) { return count; }
size_t pcs_dropped(void) { return dropped; }
uintptr_t *pcs_buffer(void) { return pcs; }
"""


def unsupported_reason() -> str | None:
    """Why this host cannot run the sampler, or None."""
    if sys.platform != "linux" or platform.machine() not in _SUPPORTED:
        return (f"the sampler supports Linux on x86-64 and aarch64, not "
                f"{sys.platform} on {platform.machine()}")
    if shutil.which("addr2line") is None:
        return "addr2line (binutils) is not on PATH"
    try:
        import cffi  # noqa: F401
    except ImportError:
        return "cffi is not installed"
    return None


def build_sampler():
    """Compile and load the signal-handler module: ``(ffi, lib)``."""
    import importlib.util

    from cffi import FFI

    builder = FFI()
    builder.cdef(_SAMPLER_CDEF)
    builder.set_source("_repro_pc_sampler", _SAMPLER_SOURCE)
    tmp = tempfile.mkdtemp(prefix="pc-sampler-")
    try:
        built = builder.compile(tmpdir=tmp)
        spec = importlib.util.spec_from_file_location("_repro_pc_sampler",
                                                      built)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        # The loaded mapping outlives the file.
        shutil.rmtree(tmp, ignore_errors=True)
    return module.ffi, module.lib


def sample(work):
    """Run ``work()`` under the sampler.  Returns the program counters,
    the number of samples dropped when the buffer was full, and the
    CPU seconds the run took."""
    ffi, lib = build_sampler()
    started = time.process_time()
    if lib.pcs_start(INTERVAL_US) != 0:
        raise OSError("could not install the SIGPROF sampler")
    try:
        work()
    finally:
        lib.pcs_stop()
    cpu_s = time.process_time() - started
    n = lib.pcs_count()
    return ffi.unpack(lib.pcs_buffer(), n), lib.pcs_dropped(), cpu_s


def extension_mapping() -> tuple[str, int, int]:
    """The loaded engine extension's path, load base and end address,
    from this process's memory map."""
    from repro.engine import c_backend

    name = c_backend._MODULE_NAME
    spans = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) >= 6 and Path(fields[5]).name.startswith(name):
                start, end = (int(x, 16) for x in fields[0].split("-"))
                spans.append((start, end, int(fields[2], 16), fields[5]))
    if not spans:
        raise RuntimeError(f"{name} is not loaded in this process")
    # A shared object's first PT_LOAD sits at file offset and address 0,
    # so the mapping at offset 0 is the load base.
    base = next(start for start, _, offset, _ in spans if offset == 0)
    return spans[0][3], base, max(end for _, end, _, _ in spans)


def has_debug_info(path: str) -> bool:
    """Whether the ELF64 little-endian shared object at ``path`` has a
    ``.debug_info`` section: without DWARF ``addr2line -i`` names each
    inlined frame after the symbol it was inlined into."""
    data = Path(path).read_bytes()
    shoff, = struct.unpack_from("<Q", data, 0x28)
    shentsize, shnum, shstrndx = struct.unpack_from("<HHH", data, 0x3A)
    # Each section header starts with sh_name, sh_type, sh_flags,
    # sh_addr, sh_offset, sh_size; sh_name indexes the shstrtab section.
    headers = [struct.unpack_from("<IIQQQQ", data, shoff + i * shentsize)
               for i in range(shnum)]
    strtab = headers[shstrndx][4]
    return any(
        data[strtab + name:data.index(b"\0", strtab + name)] == b".debug_info"
        for name, *_ in headers
    )


def symbolise(pcs) -> list[str | None]:
    """The innermost C function of each program counter, or None for a
    counter outside the extension.  One ``addr2line`` call covers every
    distinct address."""
    path, base, end = extension_mapping()
    inside = sorted({pc - base for pc in pcs if base <= pc < end})
    names = {}
    if inside:
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-e", path],
            input="\n".join(f"{off:#x}" for off in inside),
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        # -a heads each address's block with the address itself, and -i
        # then lists (function, file:line) pairs from the innermost
        # inlined frame outwards: the first function is the innermost.
        offset = None
        for line in out:
            if line.startswith("0x"):
                offset = int(line, 16)
            elif offset is not None:
                names[offset] = line.strip()
                offset = None
    return [names.get(pc - base) if base <= pc < end else None for pc in pcs]


def layer_of(function: str | None) -> str:
    if function in _LAYER_OF:
        return _LAYER_OF[function]
    if function is None or not function.startswith(("cw_", "acf_")):
        return "Python"
    return "filter" if function.startswith("acf_") else "rest of walk"


def report(functions: list[str | None], dropped: int, cpu_s: float) -> str:
    total = len(functions)
    inside = sum(f is not None for f in functions)
    lines = [
        f"{total} samples over {cpu_s:.2f} s of CPU in-process (one per "
        f"{1e3 * cpu_s / max(total, 1):.2f} ms; {dropped} dropped); "
        f"{100 * inside / max(total, 1):.1f} % inside the extension",
        "",
        "by layer:",
    ]
    layers = Counter(layer_of(f) for f in functions)
    for layer in LAYER_ORDER:
        n = layers.get(layer, 0)
        lines.append(f"  {layer:<14} {100 * n / max(total, 1):5.1f} %  {n:>7}")
    lines += ["", "by innermost C function (top 15):"]
    for name, n in Counter(f for f in functions if f is not None).most_common(15):
        lines.append(f"  {name:<28} {100 * n / max(total, 1):5.1f} %  {n:>7}"
                     f"  [{layer_of(name)}]")
    return "\n".join(lines)


def fig8_round(rounds: int):
    """The cells of ``rounds`` perfbench-shaped fig8 rounds, ``r % 16``
    as the simulation seed of round ``r``."""
    from repro.cpu.system import run_workloads
    from repro.experiments.common import (
        scaled_mix_workloads,
        scaled_system_config,
    )

    def work():
        for r in range(rounds):
            for mix in ("mix3", "mix1", "mix5", "mix7"):
                for monitor in (False, True):
                    config = scaled_system_config(
                        False, filter_size=(1024, 8), monitor_enabled=monitor,
                    )
                    run_workloads(config, scaled_mix_workloads(mix, False),
                                  FIG8_INSNS, seed=r % 16)

    return work


def one_campaign():
    """One serial 40-tenant campaign at perfbench's attack share."""
    import warnings

    from repro.experiments import campaign

    def work():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            campaign.run(seed=0, tenants=40, attack_fraction=0.45,
                         jobs=1)

    return work


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fig8", "campaign"),
                        default="fig8")
    parser.add_argument("--rounds", type=int, default=1,
                        help="fig8 rounds of 8 cells (default 1)")
    args = parser.parse_args(argv)
    reason = unsupported_reason()
    if reason is not None:
        print(f"sample_c: {reason}", file=sys.stderr)
        return 2
    os.environ["REPRO_ENGINE"] = "c"
    from repro.engine import c_backend

    # Build or load the extension before the timer starts.
    if not c_backend.available():
        print(f"sample_c: the C engine is unavailable "
              f"({c_backend.unavailable_reason()})", file=sys.stderr)
        return 2
    path = extension_mapping()[0]
    if not has_debug_info(path):
        print(f"sample_c: {path} has no DWARF (.debug_info): addr2line "
              f"cannot name inlined functions, so every sample would be "
              f"put under its enclosing symbol; rebuild the extension "
              f"with -g in CFLAGS", file=sys.stderr)
        return 2
    work = fig8_round(args.rounds) if args.workload == "fig8" else one_campaign()
    pcs, dropped, cpu_s = sample(work)
    print(report(symbolise(pcs), dropped, cpu_s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
