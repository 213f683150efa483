"""The statements of `src/` that the tier-1 tests never run.

    python3 tools/unrun.py [pytest arguments]

Run from the root of a source checkout; extra arguments go to pytest. It
runs the tier-1 suite in this process under a `sys.settrace` line tracer
that follows only code under `src/`, then prints each statement that never
ran and is not in ALLOWED, as `path:line: text`. It exits 1 when there is
such a statement, when an ALLOWED entry names no unrun statement, or when a
test fails, since a failing run covers less than a passing one.

A statement is a line that holds bytecode in the compiled module, so a
statement that spans lines counts once per line that holds a part of it.
Tests that run the package in a subprocess are not seen.

`TestLzwAtVolume` is deselected: tracing slows it past its time bound, and
other tests run its lines. The tracer slows the rest too, so hypothesis
deadlines are off.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the statements that may stay unrun: (file under src/, the statement's
# text, why no test runs it)
ALLOWED = [
    (
        "marketcomplexity/cli.py",
        "sys.exit(main())",
        "runs only when cli.py is run as a script; tests call main() instead",
    ),
]


def statements(path: Path) -> set[int]:
    """The lines of `path` that hold bytecode."""
    code = compile(path.read_bytes(), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        c = todo.pop()
        lines.update(line for _, _, line in c.co_lines() if line)  # 0: no source line
        todo.extend(k for k in c.co_consts if isinstance(k, type(code)))
    return lines


class NoDeadlines:
    """A pytest plugin that turns hypothesis deadlines off; imported before
    pytest starts, hypothesis would escape pytest's assertion rewriting."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("traced", deadline=None)
        settings.load_profile("traced")


def traced_run(pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit status on the tier-1 suite, and the lines that ran in
    each file under `src/`."""
    ran: dict[Path, set[int]] = {}
    followed: dict[str, set[int] | None] = {}  # co_filename -> its lines, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in followed:
            path = Path(name).resolve()
            followed[name] = ran.setdefault(path, set()) if SRC in path.parents else None
        lines = followed[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(
            [
                "-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                "--deselect", "tests/test_acceptance.py::TestLzwAtVolume",
                str(ROOT / "tests"), *pytest_args,
            ],
            plugins=[NoDeadlines()],
        )
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    status, ran = traced_run(argv)
    unrun = []  # (file under src/, line, text)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").split("\n")
        for lineno in sorted(statements(path) - ran.get(path, set())):
            unrun.append((path.relative_to(SRC).as_posix(), lineno, text[lineno - 1].strip()))
    failed = status != 0
    if failed:
        print(f"unrun: pytest exited {status}; the list below is incomplete")
    allowed = {(file, statement) for file, statement, _ in ALLOWED}
    for file, statement in sorted(allowed - {(f, s) for f, _, s in unrun}):
        print(f"unrun: ALLOWED entry {file}: {statement!r} names no unrun statement")
        failed = True
    unrun = [u for u in unrun if (u[0], u[2]) not in allowed]
    for file, lineno, statement in unrun:
        print(f"src/{file}:{lineno}: {statement}")
    print(f"unrun: {len(unrun)} statements not run and not allowed")
    return 1 if failed or unrun else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
