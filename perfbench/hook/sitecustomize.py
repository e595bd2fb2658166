"""Loaded at start-up by every Python process of a traced server.

``perfbench`` puts this directory on ``PYTHONPATH`` only for its traced run
and names an output directory in ``PERFBENCH_SPANS``; without that variable
this file does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPANS"):
    import spanhooks

    spanhooks.install_service(os.environ["PERFBENCH_SPANS"])
