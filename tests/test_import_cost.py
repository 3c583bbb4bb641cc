import json
import os
import subprocess
import sys

import quenchlab as ql


def test_import_loads_only_fft_and_special_from_scipy():
    # `import quenchlab` is most of a run's set-up time; each further scipy
    # subpackage (ndimage, spatial, sparse, ...) adds tens of milliseconds
    src = os.path.dirname(os.path.dirname(os.path.abspath(ql.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import json, sys, quenchlab; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    public = {m.split(".")[1] for m in json.loads(out) if not m.split(".")[1].startswith("_")}
    assert public == {"fft", "special", "version"}
