#!/bin/sh
# Build the benchmark if needed and run it, from the root of a checkout:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The dune cache is off so that the build reads and writes only inside
# the checkout.
exec dune exec --root . --cache disabled --display quiet perfbench/main.exe -- "$@"
