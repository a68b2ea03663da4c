"""List the statements of the package that no test executes.

As a pytest plugin, with .github on the import path:

    PYTHONPATH=src:.github python -m pytest -p never_run

it traces every line run in src/dynblotto while the tests run, by
`sys.settrace`, and prints the statements that never ran at the end of the
session.  Only statements inside functions are listed: the module and class
bodies run at import.  A statement counts as run when any line of it ran,
a compound statement (`if`, `for`, `with`, ...) when any line of its header
did; a docstring is no statement that runs.

As a script, it runs pytest with itself as the plugin and appends the list,
as Markdown, to the file named first (the job summary in CI):

    PYTHONPATH=src python .github/never_run.py "$GITHUB_STEP_SUMMARY" -q

The trace slows the suite down about threefold.  The plugin uses the
standard library only.
"""

import ast
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynblotto"


def _statements(tree: ast.AST):
    """Each statement inside a function, with the lines that count as its own."""
    def inside(node, in_function):
        for child in ast.iter_child_nodes(node):
            docstring = (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
                         and isinstance(child.value.value, str))  # no code to run
            if isinstance(child, ast.stmt) and in_function and not docstring:
                bodies = [b for b in ("body", "orelse", "finalbody", "handlers", "cases")
                          if getattr(child, b, None)]
                end = (min(getattr(child, b)[0].lineno for b in bodies) - 1 if bodies
                       else child.end_lineno)
                yield child, range(child.lineno, max(end, child.lineno) + 1)
            yield from inside(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    yield from inside(tree, False)


class Trace:
    """A pytest plugin that records every line run in the package, from
    configure to unconfigure, and reports the statements that never ran."""

    def __init__(self):
        self.ran = set()  # (file name, line number)

    def __call__(self, frame, event, arg):
        """The global trace: line events only for frames of the package's files."""
        if not frame.f_code.co_filename.startswith(str(PACKAGE)):
            return None

        def lines(frame, event, arg):
            if event == "line":
                self.ran.add((frame.f_code.co_filename, frame.f_lineno))
            return lines

        return lines

    def never_run(self) -> list:
        """(path, line, source line) of every statement of the package that never ran."""
        out = []
        for path in sorted(PACKAGE.glob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for statement, own in _statements(ast.parse(source, filename=str(path))):
                if not any((str(path), line) in self.ran for line in own):
                    out.append((path, statement.lineno, lines[statement.lineno - 1].strip()))
        return out

    def report(self) -> list:
        """The list as Markdown lines."""
        missed = self.never_run()
        root = PACKAGE.parent.parent
        out = [f"### Statements of src/dynblotto that no test executes: {len(missed)}", ""]
        out += [f"- `{path.relative_to(root)}:{line}` `{text}`" for path, line, text in missed]
        return out

    def pytest_configure(self, config):
        sys.settrace(self)
        threading.settrace(self)

    def pytest_unconfigure(self, config):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        for line in self.report():
            terminalreporter.write_line(line)


def pytest_configure(config):
    """Loaded by -p never_run: trace this session."""
    config.pluginmanager.register(Trace(), "never_run.trace")  # its own configure then runs


if __name__ == "__main__":
    import pytest

    trace = Trace()
    status = pytest.main(sys.argv[2:], plugins=[trace])
    with open(sys.argv[1], "a", encoding="utf-8") as summary:
        summary.write("\n".join(trace.report()) + "\n")
    sys.exit(0 if status in (0, 1) else status)  # a failing test is the tier-1 step's to report
