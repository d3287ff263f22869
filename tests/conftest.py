import os
import sys
import tempfile

from hypothesis import settings

# One deterministic profile for every property test: the same examples on
# every run, no per-example deadline on a noisy machine, and no example
# database.  Hypothesis still caches the constants it mines from the source;
# that cache goes to the temporary directory, not into the checkout.
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "padicah-hypothesis")
)
settings.register_profile("padicah", derandomize=True, deadline=None, database=None)
settings.load_profile("padicah")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run.

    Per-test output is captured by default, so the one-line verdicts
    recorded by the acceptance tests are replayed here where they stay
    visible in any invocation.
    """
    for name, mod in sys.modules.items():
        if name.rsplit(".", 1)[-1] != "test_acceptance":
            continue
        lines = getattr(mod, "VERDICT_LINES", None)
        if lines:
            terminalreporter.section("acceptance criteria")
            for line in lines:
                terminalreporter.write_line(line)
        break
