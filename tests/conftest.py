"""Test-session settings.

The suite writes no bytecode, in this process or in the CLI and demo child
processes it starts (they inherit the environment variable).  A
``src/claguerre/__pycache__`` left behind would make the benchmark harness
refuse to run on the checkout.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
