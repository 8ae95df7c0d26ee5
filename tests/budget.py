"""A wall-clock budget for a block of test code, printing a PASS or FAIL line."""

import time


class Budget:
    def __init__(self, label, description, limit):
        self.label, self.description, self.limit = label, description, limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print("PASS %s (%.2fs): %s" % (self.label, elapsed, self.description))
            assert elapsed < self.limit, "%s exceeded %.0fs budget" % (self.label, self.limit)
        else:
            print("FAIL %s (%.2fs): %s" % (self.label, elapsed, self.description))
        return False
