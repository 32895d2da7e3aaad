"""Entry point of one measurement sample in a fresh interpreter.

Usage: ``python3 perfbench/child.py <kind> '<json args>'`` with ``src`` on
``PYTHONPATH``.  Prints the sample's result as one JSON line.
"""

import importlib
import json
import sys

CHILDREN = {
    "campaign-cold": ("campaign_bench", "child_cold"),
    "campaign-resume": ("campaign_bench", "child_resume"),
    "lint": ("lint_bench", "child_lint"),
    "serve-replay": ("serve_bench", "child_replay"),
}


def main() -> None:
    kind, raw = sys.argv[1], sys.argv[2]
    module_name, func_name = CHILDREN[kind]
    func = getattr(importlib.import_module(module_name), func_name)
    print(json.dumps(func(json.loads(raw))))


if __name__ == "__main__":
    main()
