#!/usr/bin/env bash
# Crash-consistency gate: kill `dslog ingest`, `dslog db compact` and
# `dslog serve` at EVERY gated IO of a commit in turn and require, after
# each kill, that the surviving database verifies, answers queries, and
# accepts the retried operation — plain and gzip. Every commit the sweeps
# kill rotates the log: the first ingest into an empty directory starts
# it, the ingest after a one-edge database's first makes
# a checkpoint due, and so does the served auto-commit; a compaction and a
# gzip conversion (an ingest that flips the directory's mode) always
# start a fresh log. The reader commands run after each kill (`db
# verify`, `db history`, `query`) must leave every byte of the database
# as the kill left it: only a commit writes.
#
# The kill is deterministic, not timing-based: the hidden `--crash-at-io N`
# flag installs an IoPolicy that makes the process exit(86) at the N-th
# gated IO of its commit (the segment write, the fresh log's write, the
# log append, every file and directory sync) — after writing half the
# bytes when that IO is a write, so recovery faces a genuinely torn file
# or log frame. Each sweep walks N = 1, 2, … until the command runs out of
# IOs to die at and exits 0; kills before the commit point (the log
# fdatasync of an incremental commit, the fresh log's rename of a
# checkpoint commit) must leave the old snapshot, kills after it the new
# one.
#
# Usage: scripts/crash_consistency.sh [path-to-dslog-binary]
set -euo pipefail

BIN=${1:-${DSLOG_BIN:-target/release/dslog}}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
MAX_IOS=64

# Three small lineage relations (Figure 1B layout: out attrs, then in).
printf '0,0,0\n0,0,1\n1,1,0\n1,1,1\n2,2,0\n2,2,1\n' > "$WORK/ab.csv"
printf '0,1\n1,2\n2,0\n'                            > "$WORK/bc.csv"
printf '0,2\n1,1\n2,0\n'                            > "$WORK/cd.csv"

# Run "$@" expecting the injected crash: 0 means it completed (the sweep
# is over), 86 means it died where told to, anything else fails the gate.
crashed() {
    set +e
    "$@"
    local rc=$?
    set -e
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 86 ]; then
        echo "FAIL: \`$*\` exited $rc, expected the injected 86 (or 0)" >&2
        exit 1
    fi
    return "$rc"
}

# Which generation a kill left: the new one answers a query along "$2",
# the old one does not know its first array. Along one sweep the kills
# must leave the old generation up to some IO — the commit point — and the
# new one from it on, never the old one again after the new.
seen_new=0
check_generation() {
    if "$BIN" query --db "$1" --path "$2" --cells 1 > /dev/null 2>&1; then
        seen_new=1
    elif [ "$seen_new" = 1 ]; then
        echo "FAIL: the kill at IO $n left the old generation after an earlier kill left the new one" >&2
        exit 1
    fi
}

# Fail unless some kill of the sweep left the new generation: the commit
# point is a gated IO, and IOs follow it.
require_new_seen() {
    if [ "$seen_new" != 1 ]; then
        echo "FAIL: no kill of the $1 sweep left the new generation" >&2
        exit 1
    fi
}

# Every file of database "$1" with its checksum, sorted by name.
db_image() {
    (cd "$1" && cksum -- * | LC_ALL=C sort -k3)
}

# Fail unless database "$1" still has the image "$2" (see db_image): the
# reader commands run since must not have written to it.
require_unchanged() {
    if [ "$(db_image "$1")" != "$2" ]; then
        echo "FAIL: a reader command changed $1 after the kill at IO $n" >&2
        exit 1
    fi
}

# Verify a database and fail on leftover debris.
verify_clean() {
    local out
    out=$("$BIN" db verify "$1")
    if echo "$out" | grep -q "warning: stale"; then
        echo "$out"
        echo "FAIL: stale debris survived recovery in $1" >&2
        exit 1
    fi
}

for mode in plain gzip; do
    flags=()
    [ "$mode" = gzip ] && flags=(--gzip)

    # First-ingest sweep: the first commit into an empty directory, killed
    # at IO n. Before its commit point the kill leaves no database, only
    # debris (the writer lock, the segment, a temp log) that the retried
    # ingest must take for an empty directory and sweep; from it on, the
    # database the retry extends.
    echo "== first ingest crash sweep ($mode) =="
    n=1
    while :; do
        if [ "$n" -gt "$MAX_IOS" ]; then
            echo "FAIL: first ingest still crashing after $MAX_IOS injection points" >&2
            exit 1
        fi
        db="$WORK/db-first-$mode-$n"
        if crashed "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv" \
            "${flags[@]}" --crash-at-io "$n"; then
            echo "   first ingest completed past $((n - 1)) kill point(s)"
            break
        fi
        "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv" "${flags[@]}"
        verify_clean "$db"
        "$BIN" query --db "$db" --path B,A --cells 1 > /dev/null
        n=$((n + 1))
    done

    # Ingest sweep: a fresh one-generation database per kill point; the
    # second ingest dies at IO n. The surviving snapshot must verify
    # (debris is reported, not fatal), show its history, and answer
    # queries; the retried ingest and one more on top must land, leaving a
    # stale-free mixed-generation database.
    echo "== ingest crash sweep ($mode) =="
    n=1
    seen_new=0
    while :; do
        if [ "$n" -gt "$MAX_IOS" ]; then
            echo "FAIL: ingest still crashing after $MAX_IOS injection points" >&2
            exit 1
        fi
        db="$WORK/db-ingest-$mode-$n"
        "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv" "${flags[@]}"
        if crashed "$BIN" ingest --db "$db" --in B:3 --out C:3 --csv "$WORK/bc.csv" \
            "${flags[@]}" --crash-at-io "$n"; then
            echo "   ingest completed past $((n - 1)) kill point(s)"
            require_new_seen ingest
            break
        fi
        image=$(db_image "$db")
        "$BIN" db verify "$db" > /dev/null
        check_generation "$db" C,B
        "$BIN" db history "$db" > /dev/null
        "$BIN" query --db "$db" --path B,A --cells 1 > /dev/null
        require_unchanged "$db" "$image"
        "$BIN" ingest --db "$db" --in B:3 --out C:3 --csv "$WORK/bc.csv" "${flags[@]}"
        "$BIN" ingest --db "$db" --in C:3 --out D:3 --csv "$WORK/cd.csv" "${flags[@]}"
        verify_clean "$db"
        "$BIN" query --db "$db" --path D,C,B,A --cells 1 > /dev/null
        n=$((n + 1))
    done

    # Compaction sweep: one three-generation database, `db compact` killed
    # at IO n, then n + 1, … on whatever the previous kill left — the
    # accreted segments before the fresh log's rename, the compacted one
    # after it. The completed compaction must verify stale-free, leave
    # nothing but the one on-disk shape, and still take an incremental
    # commit on top.
    echo "== compact crash sweep ($mode) =="
    db="$WORK/db-compact-$mode"
    "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv" "${flags[@]}"
    "$BIN" ingest --db "$db" --in B:3 --out C:3 --csv "$WORK/bc.csv" "${flags[@]}"
    "$BIN" ingest --db "$db" --in C:3 --out D:3 --csv "$WORK/cd.csv" "${flags[@]}"
    n=1
    while :; do
        if [ "$n" -gt "$MAX_IOS" ]; then
            echo "FAIL: compaction still crashing after $MAX_IOS injection points" >&2
            exit 1
        fi
        if crashed "$BIN" db compact "$db" --crash-at-io "$n"; then
            echo "   compaction completed past $((n - 1)) kill point(s)"
            break
        fi
        image=$(db_image "$db")
        "$BIN" db verify "$db" > /dev/null
        "$BIN" db history "$db" > /dev/null
        "$BIN" query --db "$db" --path D,C,B,A --cells 1 > /dev/null
        require_unchanged "$db" "$image"
        n=$((n + 1))
    done
    "$BIN" db verify "$db"
    # Exactly the one on-disk shape: the retired logs, the live log, one
    # segment, the writer lock.
    shape=$(ls "$db" | sed -e 's/^segment-0\.g[0-9]*\.seg$/segment-0.g*.seg/' \
        -e 's/^ops\.g[0-9]*\.log$/ops.g*.log/' | LC_ALL=C sort -u | tr '\n' ' ')
    segments=$(ls "$db" | grep -c '^segment-')
    if [ "$shape" != "ops.g*.log ops.log segment-0.g*.seg writer.lock " ] || [ "$segments" != 1 ]; then
        ls "$db"
        echo "FAIL: completed compaction left $shape" >&2
        exit 1
    fi
    verify_clean "$db"
    "$BIN" query --db "$db" --path D,C,B,A --cells 1 > /dev/null
    "$BIN" ingest --db "$db" --in D:3 --out E:3 --csv "$WORK/cd.csv" "${flags[@]}"
    "$BIN" db verify "$db" > /dev/null
    "$BIN" query --db "$db" --path E,D,C,B,A --cells 1 > /dev/null

    # Conversion sweep: a fresh two-generation database per kill point;
    # an ingest in the other gzip mode rewrites every table into it, and
    # dies at IO n. The surviving snapshot must verify, show its history
    # and answer queries, and the retried conversion must land.
    echo "== gzip conversion crash sweep ($mode) =="
    other=(--gzip)
    [ "$mode" = gzip ] && other=()
    n=1
    seen_new=0
    while :; do
        if [ "$n" -gt "$MAX_IOS" ]; then
            echo "FAIL: conversion still crashing after $MAX_IOS injection points" >&2
            exit 1
        fi
        db="$WORK/db-convert-$mode-$n"
        "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv" "${flags[@]}"
        "$BIN" ingest --db "$db" --in B:3 --out C:3 --csv "$WORK/bc.csv" "${flags[@]}"
        if crashed "$BIN" ingest --db "$db" --in C:3 --out D:3 --csv "$WORK/cd.csv" \
            "${other[@]}" --crash-at-io "$n"; then
            echo "   conversion completed past $((n - 1)) kill point(s)"
            require_new_seen conversion
            break
        fi
        image=$(db_image "$db")
        "$BIN" db verify "$db" > /dev/null
        check_generation "$db" D,C
        "$BIN" db history "$db" > /dev/null
        "$BIN" query --db "$db" --path C,B,A --cells 1 > /dev/null
        require_unchanged "$db" "$image"
        "$BIN" ingest --db "$db" --in C:3 --out D:3 --csv "$WORK/cd.csv" "${other[@]}"
        verify_clean "$db"
        "$BIN" query --db "$db" --path D,C,B,A --cells 1 > /dev/null
        n=$((n + 1))
    done
done

# Network serving sweep: `dslog serve --listen` with auto-commit after
# every pending edge and the crash armed. A client's ingest trips the
# threshold and the whole server dies at IO n of that auto-commit, the
# client still connected (it loses its session, which is expected). Past
# the last kill point the session's `shutdown` ends the server normally.
echo "== serve crash sweep (--listen, mid-auto-commit) =="
printf 'define C:3\ningest B C 0,1;1,2;2,0\nshutdown\n' > "$WORK/serve.session"
n=1
seen_new=0
while :; do
    if [ "$n" -gt "$MAX_IOS" ]; then
        echo "FAIL: server still crashing after $MAX_IOS injection points" >&2
        exit 1
    fi
    db="$WORK/db-serve-$n"
    addr_file="$WORK/serve-$n.addr"
    "$BIN" ingest --db "$db" --in A:3x2 --out B:3 --csv "$WORK/ab.csv"
    "$BIN" serve --db "$db" --listen 127.0.0.1:0 --addr-file "$addr_file" \
        --auto-commit-edges 1 --crash-at-io "$n" > "$WORK/serve.log" 2>&1 &
    server=$!
    for _ in $(seq 1 100); do
        [ -s "$addr_file" ] && break
        sleep 0.1
    done
    if [ ! -s "$addr_file" ]; then
        echo "FAIL: server never bound" >&2
        cat "$WORK/serve.log" >&2
        exit 1
    fi
    "$BIN" client --addr "$(cat "$addr_file")" --script "$WORK/serve.session" \
        > "$WORK/client.out" 2>&1 || true
    if crashed wait "$server"; then
        echo "   server completed past $((n - 1)) kill point(s)"
        require_new_seen serve
        verify_clean "$db"
        "$BIN" query --db "$db" --path C,B,A --cells 1 > /dev/null
        break
    fi
    # The surviving generation must verify and answer queries; the
    # half-committed network edge is recoverable debris, not corruption.
    # Re-ingesting it must leave a clean, stale-free database behind.
    image=$(db_image "$db")
    "$BIN" db verify "$db" > /dev/null
    check_generation "$db" C,B
    "$BIN" db history "$db" > /dev/null
    "$BIN" query --db "$db" --path B,A --cells 1 > /dev/null
    require_unchanged "$db" "$image"
    "$BIN" ingest --db "$db" --in B:3 --out C:3 --csv "$WORK/bc.csv"
    verify_clean "$db"
    "$BIN" query --db "$db" --path C,B,A --cells 1 > /dev/null
    n=$((n + 1))
done

echo "crash-consistency gate OK"
