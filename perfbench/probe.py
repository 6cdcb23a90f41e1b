"""Child-process entry points of the polyfam benchmark.

Each command runs in a fresh interpreter started by run.py (with `src` on
PYTHONPATH) and prints one JSON object as its last line:

    probe.py import                      time `import polyfam` from cold, then
                                         the host-speed reference
    probe.py reference                   time the host-speed reference
    probe.py build TABLE N [ALPHA]       build one triangle with no cache to
                                         hit, then cross-check it
    probe.py main ARG...                 run `polyfam ARG...` through cli.main
                                         in this process, stdout captured
    probe.py traced-main ARG...          the same under the layer tracer
"""

from __future__ import annotations

import sys
from time import perf_counter

# The import probe must see polyfam import its own stdlib dependencies, so
# everything else this file needs is imported after the probe has run.


def probe_import() -> dict:
    start = perf_counter()
    import polyfam

    import_s = perf_counter() - start
    from reference import reference_seconds

    return {"import_s": import_s, "reference_s": reference_seconds(), "file": polyfam.__file__}


def probe_build(table: str, n: int, alpha: tuple) -> dict:
    import polyfam as P

    builders = {
        "comtet-1": lambda: P.comtet_first(alpha, n),
        "comtet-2": lambda: P.comtet_second(alpha, n),
        "lah": lambda: P.lah_signed(n),
    }
    start = perf_counter()
    built = builders[table]()
    build_s = perf_counter() - start
    # Cross-check against the public closed forms, outside the timed region.
    if table == "lah":
        ok = all(
            built[m, l] == P.lah_closed_form(m, l)
            for m in range(n + 1)
            for l in range(n + 1)
        )
    elif table == "comtet-2":
        ok = all(
            built[row, m] == P.comtet_second_explicit(alpha, row, m)
            for row in (n // 2, n)
            for m in range(row + 1)
        )
    else:
        ok = bool(P.inversion_check(alpha, n))
    ok = ok and built.size == n
    return {"build_s": build_s, "ok": ok}


def probe_main(argv: list[str], traced: bool) -> dict:
    import contextlib
    import io

    from polyfam import cli

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    result = {"main_s": perf_counter() - start, "exit": code, "stdout": out.getvalue()}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    return result


def main(argv: list[str]) -> int:
    command, rest = argv[0], argv[1:]
    if command == "import":
        result = probe_import()
    elif command == "build":
        from fractions import Fraction

        alpha = tuple(Fraction(a) for a in rest[2].split(",")) if len(rest) > 2 else ()
        result = probe_build(rest[0], int(rest[1]), alpha)
    elif command == "reference":
        from reference import reference_seconds

        result = {"reference_s": reference_seconds()}
    elif command in ("main", "traced-main"):
        result = probe_main(rest, traced=command == "traced-main")
    else:
        print(f"unknown probe {command!r}", file=sys.stderr)
        return 2
    import json

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
