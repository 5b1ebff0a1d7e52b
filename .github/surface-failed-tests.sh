#!/usr/bin/env bash
# Append the failed-test list and the tail of the ctest log to the
# GitHub step summary. Usage: .github/surface-failed-tests.sh JOB_NAME
# (run from the repo root, after ctest in build/).
set -u
log=build/Testing/Temporary
{
    echo "## Failed tests (${1:-ctest})"
    if [ -f "$log/LastTestsFailed.log" ]; then
        echo '```'
        cat "$log/LastTestsFailed.log"
        echo '```'
    fi
    if [ -f "$log/LastTest.log" ]; then
        echo '<details><summary>LastTest.log tail</summary>'
        echo ''
        echo '```'
        tail -n 200 "$log/LastTest.log"
        echo '```'
        echo '</details>'
    fi
} >> "$GITHUB_STEP_SUMMARY"
