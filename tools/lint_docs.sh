#!/usr/bin/env bash
# Keeps the prose honest. Three checks over the repo's documentation,
# plus one over the code's result files:
#
#   1. Internal links resolve: every relative markdown link target in
#      README.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md must exist
#      on disk (anchors are stripped; http(s) links skipped).
#      CHANGES.md is exempt everywhere: it is a historical log, and
#      history legitimately names symbols and files that no longer
#      exist.
#   2. Architecture coverage: docs/ARCHITECTURE.md has a `src/<module>/`
#      section for EVERY top-level directory under src/, discovered
#      dynamically — adding a module without documenting it fails.
#   3. Dead symbols: identifiers that were removed from the tree must not
#      survive in the docs (e.g. kRippleSlow, replaced by
#      RippleParam::Slow() two PRs ago). The denylist below is the
#      graveyard.
#   4. Result files: no C++ code outside obs::BenchReporter
#      (src/obs/bench_report.cc) opens ".csv" files. All benchmark result
#      emission flows through the reporter so BENCH_<suite>.json, the CSV
#      panels and the bench_check.py gate stay consistent.
#
# Usage: tools/lint_docs.sh   (exit 0 clean, 1 on violations)
set -euo pipefail

cd "$(dirname "$0")/.."

FAIL=0

DOC_FILES=(README.md EXPERIMENTS.md ROADMAP.md docs/*.md)

# --- 1. internal link check -------------------------------------------
for doc in "${DOC_FILES[@]}"; do
  [[ -f "$doc" ]] || continue
  dir=$(dirname "$doc")
  # Inline markdown links: [text](target). One per line via grep -o.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path="${target%%#*}"          # drop the anchor
    [[ -n "$path" ]] || continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "lint_docs: dead link in $doc -> $target" >&2
      FAIL=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" 2>/dev/null \
           | sed 's/.*(\(.*\))/\1/' || true)
done

# --- 2. every src module has an ARCHITECTURE.md section ----------------
ARCH=docs/ARCHITECTURE.md
if [[ ! -f "$ARCH" ]]; then
  echo "lint_docs: $ARCH is missing" >&2
  FAIL=1
else
  for mod_dir in src/*/; do
    mod=$(basename "$mod_dir")
    if ! grep -q "^#.*src/$mod/" "$ARCH"; then
      echo "lint_docs: $ARCH has no section heading for src/$mod/" >&2
      FAIL=1
    fi
  done
fi

# --- 3. dead symbols ---------------------------------------------------
# Names removed from the tree; docs mentioning them are stale. Extend
# this list whenever an API is deleted or renamed.
DEAD_SYMBOLS=(
  kRippleSlow
  'compat::Run'
  'RunTopK('
  'RunSkyline('
  SharedLoadTable
  ShardedPeerMutex
  SetVisitObserver
  SetLinkBias
  ObservePeerLoad
  peer_visits
  lock_shards
  AdaptiveOptions
  FromLegacy
  ComputeSkylineScalar
  MergeSkylines
  SelectTopKScalar
  AnyDominatesColumns
  SetTracer
  SetJournal
  SetProfiler
  kAdminPing
  kAdminSnapshot
  kAdminHealth
  AdminPong
  AdminHealthReport
  DedupAndDominanceSort
  SortedIds
  sorted_ids_
  ids_ready_
  SkylineState
  SkybandState
  'Expects('
  next_session_
  EventSimulator
  MeasureFrameBytes
  kBareFrameBytes
)
for sym in "${DEAD_SYMBOLS[@]}"; do
  hits=$(grep -rnF -- "$sym" "${DOC_FILES[@]}" 2>/dev/null || true)
  if [[ -n "$hits" ]]; then
    echo "lint_docs: dead symbol '$sym' still referenced:" >&2
    echo "$hits" >&2
    FAIL=1
  fi
done

# --- 4. CSV emission outside the sanctioned reporter --------------------
# A `.csv` string literal in C++ code means someone is hand-rolling result
# files again.
CSV_HITS=$(grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
             -e '\.csv"' src bench examples tests tools \
           | grep -v '^src/obs/bench_report\.cc:' || true)
if [[ -n "$CSV_HITS" ]]; then
  echo "lint_docs: raw .csv emission outside obs::BenchReporter:" >&2
  echo "$CSV_HITS" >&2
  echo "route results through bench::Reporter() / BenchReporter::WritePanelCsv" >&2
  FAIL=1
fi

if [[ "$FAIL" -ne 0 ]]; then
  echo "lint_docs: fix the violations above" >&2
  exit 1
fi
echo "lint_docs: clean"
