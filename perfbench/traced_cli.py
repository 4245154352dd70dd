"""Run one gridcount CLI invocation in-process with layer spans recorded.

    python3 perfbench/traced_cli.py SPAWN_TIME ARGV...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so the first span,
``cli.startup``, covers interpreter start and the imports.  The public
functions in SPANNED are then replaced by timing wrappers on the module
that looks them up at call time; gridcount's source is not touched.  ARGV
goes to ``gridcount.cli.main`` unchanged.  After the command finishes, the
spans go to stderr as one line: ``SPAN_MARK`` followed by a JSON list.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

SPAN_MARK = "perfbench-spans "

# (module, attribute, span name, attributes taken from args and result).
# f_fast is spanned twice under one name: asympt binds it at import, while
# cli and the counts helpers look it up on counts at each call.
SPANNED: list[tuple[str, str, str, Callable[..., dict] | None]] = [
    ("totient", "build_totient_table", "totient.build_totient_table",
     lambda args, res: {"entries": res.limit, "bytes": res.phi.nbytes + res.phi_prefix.nbytes}),
    ("counts", "f_fast", "counts.f_fast",
     lambda args, res: {"terms": (args[0].n - 1) // args[0].q}),
    ("asympt", "f_fast", "counts.f_fast",
     lambda args, res: {"terms": (args[0].n - 1) // args[0].q}),
    ("counts", "count_set", "counts.count_set", None),
    ("asympt", "scan_residuals", "asympt.scan_residuals", lambda args, res: {"rows": len(res)}),
    ("asympt", "fit_log_exponent", "asympt.fit_log_exponent", None),
    ("oracle", "oracle_line_histogram", "oracle.oracle_line_histogram",
     lambda args, res: {"pairs": args[0] ** 2 * (args[0] ** 2 - 1) // 2}),
    ("oracle", "oracle_segments", "oracle.oracle_segments", None),
    ("oracle", "oracle_threshold_count", "oracle.oracle_threshold_count", None),
]
# Generators are timed per item, so the consumer's work is not counted.
STREAMED = [("totient", "iter_error_terms", "totient.iter_error_terms")]


class Tracer:
    """Spans kept in memory: name, start, end, busy seconds, parent index.

    ``busy`` is end - start, except for streamed spans where it is the time
    spent producing items; self time is busy minus the children's busy.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    def _open(self, name: str, start: float) -> dict[str, Any]:
        span = {"name": name, "start": start, "end": start, "busy": 0.0,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        return span

    def add(self, name: str, start: float, end: float) -> None:
        span = self._open(name, start)
        span["end"] = end
        span["busy"] = end - start

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        span = self._open(name, time.monotonic())
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.monotonic()
            span["busy"] = span["end"] - span["start"]

    def wrap(self, fn: Callable, name: str, attrs: Callable[..., dict] | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    try:
                        span.update(attrs(args, result))
                    except (AttributeError, IndexError, TypeError):
                        pass  # a changed signature loses the count, not the span
            return result

        return traced

    def wrap_stream(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            span = self._open(name, time.monotonic())
            span["items"] = 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    t0 = time.monotonic()
                    try:
                        item = next(gen)
                    finally:
                        span["busy"] += time.monotonic() - t0
                    span["items"] += 1
                    yield item
            except StopIteration:
                return
            finally:
                span["end"] = time.monotonic()

        return traced


def install(tracer: Tracer) -> None:
    """Swap each spanned function for its wrapper where it is looked up."""
    for mod, attr, name, attrs in SPANNED:
        module = sys.modules.get(f"gridcount.{mod}")
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap(getattr(module, attr), name, attrs))
    for mod, attr, name in STREAMED:
        module = sys.modules.get(f"gridcount.{mod}")
        if hasattr(module, attr):
            setattr(module, attr, tracer.wrap_stream(getattr(module, attr), name))


def main() -> int:
    spawned = float(sys.argv[1])
    import click

    import gridcount.cli

    tracer = Tracer()
    tracer.add("cli.startup", spawned, time.monotonic())
    install(tracer)
    code = 0
    with tracer.span("cli.main"):
        try:
            gridcount.cli.main(sys.argv[2:], standalone_mode=False)
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
    sys.stderr.write(SPAN_MARK + json.dumps(tracer.spans) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
