#!/usr/bin/env sh
# End-to-end probes of the seqver command line. The check matrix
# (seqver --check=<group>) drives the verifier libraries directly; these
# probes drive the same features through the flags a user types:
#
#   1. --cache-dir: a second run on the same store reports a hit with
#      seeded predicates in its --cache-stats line;
#   2. --portfolio=parallel: the Karr tier counter (commut_karr) survives
#      the statistics-hub merge on an affine loop;
#   3. --commut-cache=persist: a warm parallel run with two jobs reports
#      nonzero hub-merged commut_shared_hits;
#   4. preparation counters (edges_pruned, fusion_*) of a fused program
#      are equal under --order=seq --stats and --portfolio=parallel
#      --stats: one record per prepared program on every path;
#   5. malformed numbers, unknown order or check-group names, and option
#      combinations that would be silently ignored are usage errors
#      (exit 2);
#   6. --cache-dir under the default sequential portfolio: the deferred
#      store of the winner's proof is counted in the --cache-stats line,
#      on the cold run and on the warm one.
#   7. an integer literal beyond int64 is a parse error (exit 2), not
#      an abort (exit 134).
#
# Usage: tools/cli_probes.sh [path/to/seqver]   (default build/tools/seqver)
set -eu

SEQVER=${1:-build/tools/seqver}
if [ ! -x "$SEQVER" ]; then
  echo "error: $SEQVER not built (cmake -B build -S . && cmake --build build)" >&2
  exit 2
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/seqver_cli_probes.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
FAILED=0
fail() {
  echo "FAIL: $*" >&2
  FAILED=1
}

cat > "$WORK/loop.conc" <<'EOF'
var int i := 0;
var int total := 0;
thread worker {
  while (i < 5) {
    total := total + 1;
    i := i + 1;
  }
}
thread checker { assert total <= 5; }
EOF

cat > "$WORK/affine.conc" <<'EOF'
var int i := 0;
var int total := 0;
thread worker {
  while (i < 5) {
    total := total + 2;
    i := i + 1;
  }
}
thread checker { assert total <= 10; }
EOF

# x is private to thread a, so x := x + 1 moves right past everything and
# fuses with the shared commit y := y + 1 into one transaction.
cat > "$WORK/fusable.conc" <<'EOF'
var int x := 0;
var int y := 0;
thread a { x := x + 1; y := y + 1; }
thread b { assert y <= 1; }
EOF

# 1. --cache-dir warm hit.
"$SEQVER" --order=seq --cache-dir="$WORK/proofs" --cache-stats \
          "$WORK/loop.conc" > /dev/null
WARM=$("$SEQVER" --order=seq --cache-dir="$WORK/proofs" --cache-stats \
         "$WORK/loop.conc" | grep '^cache:' || true)
case "$WARM" in
  "cache: 1 hit(s), 0 miss(es), "*" 0 seeded predicate(s)"*)
    fail "warm --cache-dir run hit the cache but seeded nothing: $WARM" ;;
  "cache: 1 hit(s), 0 miss(es), "*)
    echo "cache-dir probe: ok (${WARM#cache: })" ;;
  *)
    fail "warm --cache-dir run did not report a cache hit: ${WARM:-<missing>}" ;;
esac

# 2. Karr counter through the hub merge. The winning worker may settle
# before ever consulting the affine tier, so read the merged totals.
MERGED=$("$SEQVER" --portfolio=parallel --stats "$WORK/affine.conc" \
           | grep '^merged stats:' || true)
case "$MERGED" in
  *commut_karr=0*|*commut_karr=,*|"")
    fail "commut_karr did not merge under --portfolio=parallel: ${MERGED:-<missing>}" ;;
  *commut_karr=*)
    echo "karr-merge probe: ok" ;;
  *)
    fail "commut_karr absent from merged stats: $MERGED" ;;
esac

# 3. Shared oracle, persisted: racing-timing shared hits are
# nondeterministic, so run twice; the second run's workers start from the
# disk-loaded table and must hit it.
"$SEQVER" --portfolio=parallel --jobs=2 --commut-cache=persist \
          --cache-dir="$WORK/commut" "$WORK/affine.conc" > /dev/null
MERGED=$("$SEQVER" --portfolio=parallel --jobs=2 --commut-cache=persist \
                   --cache-dir="$WORK/commut" --stats "$WORK/affine.conc" \
           | grep '^merged stats:' || true)
case "$MERGED" in
  *commut_shared_hits=0*|*commut_shared_hits=,*|"")
    fail "commut_shared_hits did not merge under --commut-cache=persist: ${MERGED:-<missing>}" ;;
  *commut_shared_hits=*)
    echo "commut-oracle warm probe: ok" ;;
  *)
    fail "commut_shared_hits absent from merged stats: $MERGED" ;;
esac

# 4. Preparation counters, equal on the sequential and parallel paths.
prep_counters() {
  grep "$1" | grep -o '\(edges_pruned\|karr_pruned\|fusion_[a-z_]*\)=[0-9]*' \
    | sort | tr '\n' ' '
}
SEQ=$("$SEQVER" --order=seq --fuse --stats "$WORK/fusable.conc" \
        | prep_counters '^stats:')
PAR=$("$SEQVER" --portfolio=parallel --jobs=2 --fuse --stats \
        "$WORK/fusable.conc" | prep_counters '^merged stats:')
case "$SEQ" in
  *fusion_transactions=0*|"")
    fail "--order=seq --stats reports no fusion: ${SEQ:-<missing>}" ;;
  *)
    if [ "$SEQ" = "$PAR" ]; then
      echo "prep-counter probe: ok ($SEQ)"
    else
      fail "preparation counters differ: seq [$SEQ] vs parallel [$PAR]"
    fi ;;
esac

# 5. Usage errors.
expect_usage_error() {
  RC=0
  "$SEQVER" "$@" "$WORK/loop.conc" > /dev/null 2>&1 || RC=$?
  if [ "$RC" -ne 2 ]; then
    fail "seqver $* exited $RC, expected 2"
  fi
}
expect_usage_error --timeout=abc
expect_usage_error --timeout=5s
expect_usage_error --timeout=-1
expect_usage_error --timeout=
expect_usage_error --jobs=abc
expect_usage_error --jobs=-2
expect_usage_error --rand-seed=xyz
expect_usage_error --rand-seed=99999999999999999999
expect_usage_error --simulate=abc
expect_usage_error --commut-cache=persist
expect_usage_error --commut-cache=conservative
expect_usage_error --cache-dir="$WORK/x" --no-cache --commut-cache=persist
expect_usage_error --order=no-such-order
expect_usage_error --rand-seed=10 --order='rand(1)'
expect_usage_error --check=no-such-group
expect_usage_error --check=tiers,slow
# Control: well-formed values still parse.
"$SEQVER" --order='rand(8)' --timeout=30.5 --jobs=2 --rand-seed=7 \
          --simulate=3 "$WORK/loop.conc" > /dev/null ||
  fail "well-formed options rejected"
echo "usage-error probe: done"

# 6. Deferred portfolio store.
for RUN in cold warm; do
  LINE=$("$SEQVER" --cache-dir="$WORK/portfolio" --cache-stats \
           "$WORK/loop.conc" | grep '^cache:' || true)
  case "$LINE" in
    *", 1 store(s)")
      echo "portfolio-store probe ($RUN): ok (${LINE#cache: })" ;;
    *)
      fail "$RUN sequential-portfolio run did not count its store: ${LINE:-<missing>}" ;;
  esac
done

# 7. Out-of-range integer literal.
printf 'var int x := 99999999999999999999;\nthread a { assert x == 0; }\n' \
  > "$WORK/long_literal.conc"
RC=0
"$SEQVER" --order=seq "$WORK/long_literal.conc" > /dev/null 2>&1 || RC=$?
if [ "$RC" -ne 2 ]; then
  fail "out-of-range integer literal exited $RC, expected 2 (a parse error)"
else
  echo "long-literal probe: ok"
fi

exit "$FAILED"
