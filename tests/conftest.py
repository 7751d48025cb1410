"""Shared pytest plumbing: the acceptance tests record one line per
criterion here, and the terminal summary replays them after the run so
the pass/fail verdicts are visible regardless of output capturing.
``names_read`` lists the checkpoint entries a structured reader looks up,
and ``InlineExecutor`` stands in for the worker thread.
"""

from concurrent.futures import Executor, Future

CRITERIA = {}


def record_criterion(number: int, passed: bool, detail: str = "") -> None:
    CRITERIA[number] = (passed, detail)


def names_read(reader, entries) -> list:
    """The names ``reader`` looks up in ``entries``, in lookup order."""
    names = []

    class Logged(dict):
        def __getitem__(self, name):
            names.append(name)
            return super().__getitem__(name)

    reader(Logged(entries))
    return names


class InlineExecutor(Executor):
    """Runs each submitted call at once, on the submitting thread."""

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(CRITERIA):
        passed, detail = CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d}: {verdict}{suffix}")
