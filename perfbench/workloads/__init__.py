"""The benchmark's workloads.

Each module defines ``setup(ctx)``, which makes the inputs from the seed,
``operations(state)``, the fixed list of ``(name, fn)`` pairs one pass runs
(``fn(tracer, pass_dir)`` returns what the checks need), ``check(state,
results)``, which returns a list of problems, and ``fingerprint(results,
pass_dir)``, which must read the same on every pass.  ``EXPECTED_FAILURES``
names the operations that fail on every pass because of a known fault.
"""

NAMES = ("obstruction", "quantification", "pipeline")
