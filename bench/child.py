"""Child processes of the benchmark.

    child.py setup WORKLOAD SEED
        start, import carasel, generate (or parse) the workload's inputs
        and exit: the set-up a user pays before the first call.
    child.py cli TRACE_FILE ARGS...
        run `carasel ARGS...` with the tracer installed and write the
        trace to TRACE_FILE; exits with the command's own exit code.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def setup(workload: str, seed: int) -> int:
    import carasel  # noqa: F401
    import workloads as wl

    if workload == "cli-fixtures":
        from carasel import problems

        for item in wl.cli_pool(seed):
            problems.parse_problem(item["text"])
        return 0
    pools = {"select-pool": wl.select_pool, "nash-joint": wl.nash_pool}
    wl.fingerprint(pools[workload](seed))
    return 0


def cli(trace_file: str, argv: list[str]) -> int:
    from tracer import IMPORT_SPAN, ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.problem = 0
    cli_module = tracer.span(IMPORT_SPAN, lambda: importlib.import_module("carasel.cli"))
    tracer.install()
    try:
        code = tracer.span(ROOT_SPAN, lambda: cli_module.main(argv))
    finally:
        tracer.uninstall()
    covered = tracer.total_s[IMPORT_SPAN] + tracer.total_s[ROOT_SPAN]
    tracer.dump(Path(trace_file), {"covered_s": covered})
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3])))
    if mode == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
