"""The benchmark (see README.md); a package so `bench.trace` never shadows the stdlib `trace`."""
