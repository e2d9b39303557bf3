"""``benchmarks/sample_c.py`` — the program-counter sampler that
attributes time inside the C extension (skipped where it cannot run:
no cffi, no ``addr2line``, no toolchain, or a host other than Linux on
x86-64 or aarch64; the sampled round also without a ``-g`` build)."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SAMPLE_C = Path(__file__).resolve().parents[1] / "benchmarks" / "sample_c.py"
_spec = importlib.util.spec_from_file_location("bench_sample_c", _SAMPLE_C)
sample_c = importlib.util.module_from_spec(_spec)
sys.modules["bench_sample_c"] = sample_c
_spec.loader.exec_module(sample_c)


@pytest.fixture(autouse=True)
def _require_sampler(monkeypatch):
    reason = sample_c.unsupported_reason()
    if reason is not None:
        pytest.skip(reason)
    from repro.engine import c_backend

    if not c_backend.available():
        pytest.skip("C backend unavailable (no cffi/toolchain)")
    monkeypatch.setenv("REPRO_ENGINE", "c")


def test_symbolise_names_exported_kernels():
    # The load base read from the memory map turns a function's address
    # back into its name, and an address outside the extension is None.
    import ctypes

    path = sample_c.extension_mapping()[0]
    dll = ctypes.CDLL(path)  # the loaded extension's handle, not a copy
    pcs = [ctypes.cast(getattr(dll, name), ctypes.c_void_p).value
           for name in ("cw_schedule", "cw_emit", "cw_mt_seed")]
    assert sample_c.symbolise(pcs + [0]) == [
        "cw_schedule", "cw_emit", "cw_mt_seed", None,
    ]
    assert [sample_c.layer_of(f) for f in (
        "cw_schedule", "cw_genrand", "cw_slot", "cw_access", "acf_access",
        "_cffi_f_cw_emit", None,
    )] == [
        "scheduler", "MT", "set scans", "rest of walk", "filter", "Python",
        "Python",
    ]


def test_has_debug_info_reads_the_section_table(tmp_path):
    # The DWARF check agrees with readelf on the loaded extension and on
    # a copy of it with the debug sections stripped.
    import shutil
    import subprocess

    readelf, strip = shutil.which("readelf"), shutil.which("strip")
    if readelf is None or strip is None:
        pytest.skip("binutils' readelf or strip is not on PATH")
    path = sample_c.extension_mapping()[0]
    stripped = str(tmp_path / "stripped.so")
    subprocess.run([strip, "--strip-debug", "-o", stripped, path],
                   check=True)
    for so in (path, stripped):
        sections = subprocess.run([readelf, "-S", "-W", so], check=True,
                                  capture_output=True, text=True).stdout
        assert sample_c.has_debug_info(so) == (" .debug_info " in sections)
    assert not sample_c.has_debug_info(stripped)


def test_main_refuses_an_extension_without_dwarf(monkeypatch, capsys):
    monkeypatch.setattr(sample_c, "has_debug_info", lambda path: False)
    assert sample_c.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ".debug_info" in captured.err


def test_fig8_round_smoke(capsys):
    # One fig8 round: the report lists every layer and at least one
    # sample symbolised inside the extension.
    if not sample_c.has_debug_info(sample_c.extension_mapping()[0]):
        pytest.skip("the cached extension was built without -g")
    assert sample_c.main([]) == 0
    out = capsys.readouterr().out
    for layer in sample_c.LAYER_ORDER:
        assert f"\n  {layer} " in out
    functions = out.split("by innermost C function")[1].splitlines()[1:]
    assert functions and all("[" in row for row in functions)
