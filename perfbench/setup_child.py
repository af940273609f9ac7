"""Set-up cost in a fresh process: import quadtrack, then load and validate
a scenario file.  Prints one JSON object with both times in seconds.

    python3 perfbench/setup_child.py <src dir> <scenario.json>
"""

import sys
import time

src, scenario_path = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
t0 = time.perf_counter()
import quadtrack  # noqa: E402

t1 = time.perf_counter()
quadtrack.load_scenario(scenario_path)
t2 = time.perf_counter()
import json  # noqa: E402  (after timing: quadtrack's own import pays for it)

print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1,
                  "module": quadtrack.__file__}))
