#!/usr/bin/env bash
# Start a ring gateway in the background, or drain the one started.
#
#   .github/gateway.sh start [repro serve flags...]
#       serve on port 7117, output in serve.log, pid in serve.pid;
#       returns once the gateway prints "listening" (fails otherwise)
#   .github/gateway.sh drain
#       SIGINT the gateway, wait for its drain, print serve.log
#
# The pid goes to a file in the working directory, so a later CI step
# (a new shell) can drain the gateway an earlier step started.
set -euo pipefail

case "${1:-}" in
  start)
    shift
    PYTHONPATH=src python -m repro serve --port 7117 "$@" \
      > serve.log 2>&1 &
    echo $! > serve.pid
    for _ in $(seq 1 100); do
      grep -q "listening" serve.log && break
      sleep 0.2
    done
    grep "listening" serve.log
    ;;
  drain)
    pid=$(cat serve.pid)
    kill -INT "$pid"
    for _ in $(seq 1 100); do
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.2
    done
    cat serve.log
    ;;
  *)
    echo "usage: $0 start [repro serve flags...] | drain" >&2
    exit 2
    ;;
esac
