"""Run one ``repro`` command in this interpreter and fail if it loaded numpy.

A script, not a test module (pytest does not collect it).  Run it from the
repository root::

    PYTHONPATH=src python tests/numpy_probe.py lint --domain all src/repro
    PYTHONPATH=src python tests/numpy_probe.py --help
    PYTHONPATH=src python tests/numpy_probe.py        # only `import repro.cli`

The command runs through :func:`repro.cli.main` and prints as usual; then
one JSON line goes to stderr, ``{"status": <the command's exit status>,
"numpy": <whether "numpy" is in sys.modules>}``.  The probe exits 1 when
numpy was imported, else 0.
"""

import json
import sys

import repro.cli

if len(sys.argv) > 1:
    try:
        status = repro.cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help and usage errors
        status = exc.code
else:
    status = 0
loaded = "numpy" in sys.modules
sys.stdout.flush()
print(json.dumps({"status": status, "numpy": loaded}), file=sys.stderr)
sys.exit(1 if loaded else 0)
