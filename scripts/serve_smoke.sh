#!/usr/bin/env bash
# Serve-smoke: the routing-as-a-service daemon must hand back per-session
# artifacts bitwise identical to the single-run CLI — including for a
# session that is snapshotted and rewound from its checkpoint mid-run.
#
# Flow:
#   1. start `gcube serve` on a Unix socket,
#   2. drive $SESSIONS concurrent seeded sessions through it, each on its
#      own `gcube serve --connect` client (session s1 additionally
#      snapshots at cycle 60 and restores onto itself before finishing),
#   3. alongside them, a hostile client sends a line nested 200,000
#      deep and then one over the daemon's 8 MiB line cap; it must get
#      two `bad_request` replies while the daemon keeps serving,
#   4. replay every session as an equivalent `gcube run --threads 1`
#      invocation and gate trace + telemetry through `gcube analyze diff`
#      plus a strict byte comparison, then require a `shutdown` reply.
set -euo pipefail

BIN=${GCUBE_BIN:-target/release/gcube}
SESSIONS=${SESSIONS:-8}
WORK=$(mktemp -d)
SOCK="$WORK/gcube.sock"
DAEMON_PID=
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# One execution permit per session: this script checks daemon ≡ CLI, not
# backpressure (a `run` holds its permit for the whole run, so with fewer
# permits than sessions a busy host answers `overloaded`; the server's unit
# tests cover that reply).
"$BIN" serve --socket "$SOCK" --max-sessions 64 --workers "$SESSIONS" &
DAEMON_PID=$!
for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "serve-smoke: daemon socket never appeared" >&2; exit 1; }

# GC(10, 4) under static faults plus FTGCR — the same run shape the CLI
# comparison below re-executes. inject/drain/warmup mirror what
# `gcube run --cycles 120` derives (120 / 120*20 / 120/10).
open_line() {
  printf '{"op":"open","session":"%s","strategy":"ftgcr","config":{"n":10,"modulus":4,"rate":0.02,"inject_cycles":120,"drain_cycles":2400,"warmup_cycles":12,"seed":%d,"faults":1,"telemetry_interval":50}}\n' "$1" "$2"
}

client() {
  local id=$1 seed=$2
  {
    open_line "$id" "$seed"
    if [ "$id" = s1 ]; then
      printf '{"op":"step","session":"%s","cycles":60}\n' "$id"
      printf '{"op":"snapshot","session":"%s","path":"%s/%s.ck"}\n' "$id" "$WORK" "$id"
      printf '{"op":"restore","session":"%s","path":"%s/%s.ck"}\n' "$id" "$WORK" "$id"
    fi
    printf '{"op":"run","session":"%s"}\n' "$id"
    printf '{"op":"close","session":"%s","trace":"%s/%s.trace.jsonl","telemetry":"%s/%s.telemetry.jsonl"}\n' \
      "$id" "$WORK" "$id" "$WORK" "$id"
  } | "$BIN" serve --connect "$SOCK" > "$WORK/$id.replies.jsonl"
}

# Written before the sessions start, so only the sending competes with them.
{
  head -c 200000 /dev/zero | tr '\0' '['
  echo
  head -c $((8 * 1024 * 1024 + 1)) /dev/zero | tr '\0' 'x'
  echo
} > "$WORK/hostile.jsonl"
hostile() {
  "$BIN" serve --connect "$SOCK" < "$WORK/hostile.jsonl" > "$WORK/hostile.replies.jsonl"
}

pids=()
for i in $(seq "$SESSIONS"); do
  client "s$i" $((1000 + i)) &
  pids+=($!)
done
hostile &
pids+=($!)
for p in "${pids[@]}"; do wait "$p"; done

bad=$(grep -c '"code":"bad_request"' "$WORK/hostile.replies.jsonl" || true)
if [ "$bad" != 2 ]; then
  echo "serve-smoke: hostile client got $bad bad_request replies, want 2:" >&2
  head -c 2000 "$WORK/hostile.replies.jsonl" >&2
  exit 1
fi

for i in $(seq "$SESSIONS"); do
  replies="$WORK/s$i.replies.jsonl"
  if grep -q '"error"' "$replies"; then
    echo "serve-smoke: error reply for session s$i:" >&2
    cat "$replies" >&2
    exit 1
  fi
done
grep -q '"rewound":true' "$WORK/s1.replies.jsonl" \
  || { echo "serve-smoke: s1 was never rewound from its checkpoint" >&2; exit 1; }

for i in $(seq "$SESSIONS"); do
  "$BIN" run 10 4 --rate 0.02 --cycles 120 --faults 1 --seed $((1000 + i)) \
    --strategy ftgcr --threads 1 --telemetry-interval 50 \
    --trace "$WORK/cli_s$i.trace.jsonl" \
    --telemetry "$WORK/cli_s$i.telemetry.jsonl" > /dev/null
  "$BIN" analyze diff "$WORK/cli_s$i.trace.jsonl" "$WORK/s$i.trace.jsonl"
  cmp "$WORK/cli_s$i.trace.jsonl" "$WORK/s$i.trace.jsonl"
  # Telemetry across a restore is suffix-only (DESIGN.md §16): the
  # rewound session's time series restarts at the checkpoint, so only
  # the uninterrupted sessions are gated on it. The trace — the
  # deterministic stream the replay verifier works from — must be
  # bitwise identical for every session, rewound or not.
  if [ "$i" != 1 ]; then
    "$BIN" analyze diff "$WORK/cli_s$i.telemetry.jsonl" "$WORK/s$i.telemetry.jsonl"
    cmp "$WORK/cli_s$i.telemetry.jsonl" "$WORK/s$i.telemetry.jsonl"
  fi
done

printf '{"op":"shutdown"}\n' | "$BIN" serve --connect "$SOCK" > "$WORK/shutdown.jsonl"
grep -q '"op":"shutdown"' "$WORK/shutdown.jsonl" \
  || { echo "serve-smoke: the daemon did not acknowledge shutdown" >&2; exit 1; }
wait "$DAEMON_PID"
DAEMON_PID=
echo "serve-smoke: $SESSIONS concurrent sessions bitwise-identical to the CLI (s1 rewound mid-run), hostile lines refused"
