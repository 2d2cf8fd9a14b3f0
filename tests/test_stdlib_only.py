"""The package promises no runtime dependency outside the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import rackmod

PROBE = """
import sys
import rackmod, rackmod.cli
print("\\n".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_importing_the_package_and_cli_loads_only_the_standard_library():
    # -S keeps site hooks (such as setuptools' _distutils_hack) out of the
    # probe; the path is passed on, so a third-party import would still load
    # and be named below.
    src = str(Path(rackmod.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE],
        env={"PYTHONPATH": os.pathsep.join([src, *sys.path])},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(out.split()) - {"rackmod", "__main__"}
    assert loaded, "the probe listed no modules"
    assert sorted(loaded - sys.stdlib_module_names) == []
