"""Set-up probe: import nullsheet.cli, then load one config.

    python perfbench/setup_probe.py CONFIG

Prints ``{"import_s": ..., "config_s": ...}``, both measured inside this
fresh interpreter; the caller times the whole process as set-up time.
"""

import json
import sys
import time

t0 = time.perf_counter()
import nullsheet.cli as cli  # noqa: E402

t1 = time.perf_counter()
cfg = cli.load_config(sys.argv[1])
cli.build_spacetime(cfg)
cli.build_curve(cfg)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "config_s": t2 - t1}))
