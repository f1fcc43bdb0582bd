from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# the size of src/ that every change reports its line delta against
BASELINE_SRC_LINES = 2452


def pytest_terminal_summary(terminalreporter):
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    terminalreporter.write_line(
        f"src/: {lines} lines, {lines - BASELINE_SRC_LINES:+d} against the {BASELINE_SRC_LINES}-line baseline"
    )
