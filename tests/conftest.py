"""Shared pytest plumbing: the acceptance tests record one line per
criterion here, and the terminal summary replays them after the run so
the pass/fail verdicts are visible regardless of output capturing.
``names_read`` lists the checkpoint entries a structured reader looks up,
``InlineExecutor`` stands in for the worker thread, and ``stage1_convs``
lists the convolutions of one stage-1 pass.
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


def stage1_convs(c: int, m: int, size: int, frames: int) -> list:
    """(name, grid, C_in, C_out, kernel, patch (h, w, B), padding) of every
    convolution one stage-1 pass over ``frames`` frames of ``size`` px runs."""
    convs = []
    for layer, ci, co, s in ((1, 3, 4 * c, size), (2, 4 * c, 8 * c, size // 2)):
        convs.append((f"layer{layer}.input", 1, ci, co, (3, 3), (s, s, frames), (1, 1)))
        for g in (8, 4, 2):
            convs.append((f"layer{layer}.grid{g}", g, co, co, (3, 3), (s // g, s // g, frames),
                          (1, 1)))
        convs.append((f"layer{layer}.fusion", 1, 3 * co, co, (1, 1), (s, s, frames), (0, 0)))
    convs.append(("attention", 1, 8 * c, m, (3, 3), (size // 4, size // 4, frames), (1, 1)))
    return convs


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
