"""Start-up hook: install the benchmark's probes into this interpreter.

Python imports ``sitecustomize`` at start-up from ``sys.path``; the
benchmark puts this directory on ``PYTHONPATH`` only for processes of
the system under test, together with ``PERFBENCH_OUT``.
"""

import os

if os.environ.get("PERFBENCH_OUT"):
    import benchprobe

    benchprobe.install()
