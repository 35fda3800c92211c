"""Every output byte of the presets and of two small sweeps, held by sha256.

``tests/golden/digests.json`` holds the digest of every file and stream the
three presets, ``SWEEP``, ``SWEEP_OPT`` and the ``ERRORS`` runs write (CSV, every SVG, stdout and
stderr), with the numpy version and the platform they were made on.  The bits
depend on the logarithms of numpy (and on the SIMD code numpy dispatches
them to) and of the C library, so on another numpy version or platform the
test skips and says why; ``test_golden.py`` still holds the presets to
1e-12 there.  On the recorded one a single moved byte fails.

A change that moves bits on purpose rewrites the digests in the same
commit, from a checkout's root::

    PYTHONPATH=src python tests/test_byte_identity.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from cvqkd_fading import cli

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
# all four approaches; an optimize-v block (cma); error rows (V = 1e200
# overflows the exact spectrum); skips (fixed at delta_t > 0,
# hba_asymptotic at delta_t = 0 and below its large-V floor); log-axis
# plots, whose y <= 0 breaks a curve
SWEEP = ["sweep", "--approach", "fixed,hba_exact,hba_asymptotic,cma",
         "--v", "1.5,10,1e3,1e200", "--eps", "0,0.02", "--t-min", "0.1:0.7:0.3",
         "--delta-t", "0,0.2", "--optimize-v", "cma", "--x-axis", "t_min,variance",
         "--y-column", "rate_bits,holevo_bits", "--log-y", "true",
         "--csv", "sweep.csv", "--svg", "sweep.svg"]
# V=opt skip lines for both reasons (fixed at delta_t > 0, and t_max > 1),
# and an optimized row through the log grid of a non-default bracket
SWEEP_OPT = ["sweep", "--approach", "fixed,cma", "--v", "10", "--eps", "0.01",
             "--t-min", "0.3,1", "--delta-t", "0.2", "--optimize-v", "all",
             "--v-lo", "1.5", "--v-hi", "1e6"]
# scalar point masses (delta_t = 0): every approach that takes one, each
# through run_point's own branch
POINT_MASS = {"optimize-v": ["optimize-v", "--eps", "0.01", "--t-min", "0.3"]}
for approach in ("fixed", "hba_exact", "cma"):
    POINT_MASS[f"point_{approach}"] = ["point", "--approach", approach, "--v", "10",
                                       "--eps", "0.01", "--t-min", "0.3"]
    POINT_MASS[f"threshold_{approach}"] = ["threshold", "--approach", approach, "--v", "10",
                                           "--eps", "0.1", "--delta-t", "0"]
# a Monte-Carlo check that passes its 5-sigma band: the draws, the closed
# forms and the printed band
MC_VALIDATE = ["mc-validate", "--v", "10", "--eps", "0.01", "--t-min", "0.3", "--delta-t", "0.2",
               "--n", "1000"]
# errors: a negative large-V average, a spectrum that overflows at a node, T
# below T_FLOOR (at a node, and as t_eff), and a sweep whose kernels refuse
# cells that fall back to error rows
ERRORS = {
    "error_hba_asymptotic": ["point", "--approach", "hba_asymptotic", "--v", "1.2", "--eps", "0.01",
                             "--t-min", "0.5", "--delta-t", "0.2"],
    "error_hba_exact_v": ["point", "--approach", "hba_exact", "--v", "1e200", "--eps", "0.01",
                          "--t-min", "0.5", "--delta-t", "0.2"],
    "error_hba_exact_t": ["point", "--approach", "hba_exact", "--v", "10", "--eps", "0.01",
                          "--t-min", "1e-320", "--delta-t", "0.2"],
    "error_cma": ["point", "--approach", "cma", "--v", "10", "--eps", "0.01", "--t-min", "1e-320"],
    "error_sweep": ["sweep", "--approach", "hba_asymptotic,hba_exact,cma", "--v", "1.2,1e200",
                    "--eps", "0.01", "--t-min", "0.5", "--delta-t", "0.2"],
}
RUNS = {name: ["preset", name, "--csv", f"{name}.csv", "--svg", f"{name}.svg"]
        for name in ("fig2", "fig3", "fig45")}
RUNS |= {"sweep": SWEEP, "sweep_opt": SWEEP_OPT} | POINT_MASS
RUNS["mc_validate"] = MC_VALIDATE
RUNS |= ERRORS


def platform_tag() -> str:
    """The OS, machine and C library, and the SIMD targets numpy runs its
    float64 logarithms and exponentials on."""
    try:
        from numpy.lib.introspect import opt_func_info

        info = opt_func_info(func_name="log|log2|log10|log1p|exp|expm1", signature="float64")
        simd = "+".join(sorted({sig["current"] for f in info.values() for sig in f.values()}))
    except ImportError:
        simd = "unknown"
    return "-".join([sys.platform, platform.machine(), *platform.libc_ver(), simd])


def digests(out_dir: Path) -> tuple[dict, dict]:
    """Run every command of RUNS in its own directory under out_dir: the
    sha256 of each file it writes and of its stdout and stderr, and the
    exit code of each command."""
    found, codes = {}, {}
    cwd = os.getcwd()
    for name, argv in RUNS.items():
        (out_dir / name).mkdir()
        os.chdir(out_dir / name)  # file names in the stderr lines are relative
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes[name] = cli.main(argv)
        finally:
            os.chdir(cwd)
        for stream, text in (("stdout", out.getvalue()), ("stderr", err.getvalue())):
            found[f"{name}/{stream}"] = hashlib.sha256(text.encode()).hexdigest()
        for path in sorted((out_dir / name).iterdir()):
            found[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found, codes


def test_outputs_keep_their_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "platform": platform_tag()}
    for key, value in here.items():
        if want[key] != value:
            pytest.skip(f"digests made on {key} {want[key]}, running on {value}")
    got, codes = digests(tmp_path)
    want_codes = {"fig2": 0, "fig3": 0, "fig45": 0, "sweep": 3, "sweep_opt": 0, "mc_validate": 0}
    want_codes |= dict.fromkeys(ERRORS, 1) | {"error_sweep": 3}
    assert codes == want_codes | dict.fromkeys(POINT_MASS, 0)
    assert sorted(got) == sorted(want["digests"])
    moved = sorted(key for key in got if got[key] != want["digests"][key])
    assert not moved, f"outputs whose bytes moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"numpy": np.__version__, "platform": platform_tag(), "digests": digests(Path(tmp))[0]}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(record['digests'])} digests to {DIGESTS}")
