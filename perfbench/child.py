"""One `hyperlab run` in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py ROOT CONFIG OUT RESULT [SPANS]
    python3 perfbench/child.py ROOT --probe

Imports hyperlab from ROOT/src, runs the real `hyperlab run` command on
CONFIG into OUT, and writes RESULT, a JSON object with the moment the
config was validated and the moment the run returned, both on the
system-wide monotonic clock so the parent can subtract its spawn time, plus
the exit code, the peak resident memory and the CPU time of the run.
With SPANS, every public hyperlab function is traced from the first
moment of the run and the spans are written to SPANS (an .npz file).

``--probe`` imports hyperlab (compiling its bytecode, so that later
set-up times do not include it) and prints the library versions and the
BLAS thread count the runs will see.
"""

import ctypes
import json
import platform
import resource
import sys
import time
from pathlib import Path


def import_cli(root):
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    from hyperlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hyperlab imported from {cli.__file__}, not {src}")
    return cli


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def probe(root):
    import numpy as np

    import_cli(root)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}",
                "blas_threads": blas_threads(),
            }
        )
    )
    return 0


def main(root, config, out, result_path, spans_path=None):
    cli = import_cli(root)
    result = {}
    run_experiment = cli.run_experiment

    def timed_run(*args, **kwargs):
        # `hyperlab run` has validated the config when it gets here
        result["validated"] = time.monotonic()
        cli.run_experiment = run_experiment
        if spans_path is not None:
            from tracer import Recorder, install

            recorder = Recorder()
            install(recorder)
        target = cli.run_experiment
        cpu = time.process_time()
        start = time.monotonic()
        try:
            return target(*args, **kwargs)
        finally:
            result["run_s"] = time.monotonic() - start
            result["cpu_s"] = time.process_time() - cpu
            if spans_path is not None:
                recorder.dump(spans_path)

    cli.run_experiment = timed_run
    try:
        code = cli.main(["run", "--config", config, "--out", out], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
    result["exit_code"] = code if isinstance(code, int) else 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    if sys.argv[2:] == ["--probe"]:
        sys.exit(probe(sys.argv[1]))
    sys.exit(main(*sys.argv[1:]))
