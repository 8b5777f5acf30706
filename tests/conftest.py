import os
import sys


def pytest_configure(config):
    # pyproject's pythonpath puts src/ on this process's path only; the CLI
    # tests start `python -m cssdyn` in subprocesses, which inherit it here
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # one line per acceptance criterion, visible regardless of capture mode
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
