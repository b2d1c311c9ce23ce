"""There is no class-set disk cache: every class set is walked and certified
in the run that reads it (`quatarith.ideal_class_set`).

`cache_directory()` stays for the benchmark harness, which asks it before
each pass and stops if an operation could be served from an earlier run.
"""


def cache_directory():
    return None
