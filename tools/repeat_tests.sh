#!/bin/sh
# Run the concurrency-sensitive suites N times in a row and stop at the
# first run that fails, so a flaky (order- or timing-dependent) test
# shows up as a non-zero exit instead of an occasional red CI job.
#
# Usage: tools/repeat_tests.sh N   (from the repository root)
set -eu

if [ "$#" -ne 1 ] || ! [ "$1" -ge 1 ] 2>/dev/null; then
    echo "usage: $0 N  (N >= 1 repetitions)" >&2
    exit 2
fi

PYTHONPATH="${PYTHONPATH:-src}"
export PYTHONPATH

i=1
while [ "$i" -le "$1" ]; do
    echo "== run $i of $1"
    if ! python -m pytest tests/server tests/obs -q -p no:cacheprovider; then
        echo "run $i of $1 failed: a test flipped" >&2
        exit 1
    fi
    i=$((i + 1))
done
echo "all $1 runs passed"
