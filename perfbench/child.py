"""Run one benchmark job in a fresh interpreter; print its result as one JSON line.

    python3 perfbench/child.py '<job as JSON>'

A job is ``{"kind": "cli", "argv": [...]}``, one pbtfid invocation with its
stdout captured in memory, or ``{"kind": "channel", "d": 2, "N": 8}``, the
direct channel simulation under the square-root measurement. With
``"trace": "<path>"`` the span recorder is installed after the import and
its spans are written to that path. ``cal_s`` is the time of two fixed
calibration kernels: pure Python before anything is imported, dense LAPACK
after the job. ``pbtfid`` must be importable
(``PYTHONPATH`` names the checkout's ``src``).
"""

import ctypes
import io
import json
import math
import resource
import sys
import time


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded into this process, by library file."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[path.rsplit("/", 1)[-1]] = fn()
                break
    return out


def calibrate_python() -> float:
    """Wall time of a fixed pure-Python kernel: tuple allocation, big-integer
    products and float arithmetic. It runs before anything is imported, so
    the program cannot affect it."""
    start = time.perf_counter()
    for _ in range(3):
        rows = [(i, i + 1, i % 7) for i in range(100_000)]
    product = 1
    for i in range(1, 4000):
        product *= i
    total = 0.0
    for i in range(1, 300_000):
        total += math.sqrt(i) / i
    elapsed = time.perf_counter() - start
    del rows, product, total
    return elapsed


def calibrate_lapack() -> float:
    """Wall time of fixed complex Hermitian eigenvalue solves at dimension
    512, the dense kernel and working set of the oracle at d=2, N=8."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
    h = a + a.conj().T
    start = time.perf_counter()
    for _ in range(2):
        np.linalg.eigvalsh(h)
    return time.perf_counter() - start


def main() -> None:
    job = json.loads(sys.argv[1])
    cal_s = calibrate_python()
    t0 = time.perf_counter()
    import pbtfid.cli

    import_s = time.perf_counter() - t0
    recorder = None
    if job.get("trace"):
        import spans

        recorder = spans.install()
    result = {"import_s": import_s, "cal_s": cal_s}
    start = time.perf_counter()
    if job["kind"] == "cli":
        captured, real = io.StringIO(), sys.stdout
        sys.stdout = captured
        try:
            exit_code = pbtfid.cli.main(job["argv"])
        finally:
            sys.stdout = real
        result["wall_s"] = time.perf_counter() - start
        result.update(exit_code=exit_code, stdout=captured.getvalue())
    else:
        from pbtfid import oracle

        d, n = job["d"], job["N"]
        povm = oracle.pretty_good_measurement(oracle.pbt_ensemble(d, n))
        value = oracle.teleportation_fidelity_direct(d, n, povm)
        result["wall_s"] = time.perf_counter() - start
        result.update(exit_code=0, fidelity=value)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        result["trace"] = recorder.finish(job["trace"])
    result["cal_s"] += calibrate_lapack()
    if job["kind"] == "channel":
        from pbtfid import fidelity

        result["formula"] = fidelity.fidelity_standard(d, n).fidelity
    result["blas_threads"] = blas_threads()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
