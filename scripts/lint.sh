#!/usr/bin/env bash
# Static-analysis gate: reprolint (AST invariants) + strict mypy on the
# typed core.  Blocking in CI; run locally before pushing.
#
#   scripts/lint.sh             lint the whole repo
#   scripts/lint.sh --changed   lint only files changed vs main (fast path)
#
# Extra arguments after the mode are passed through to reprolint
# (e.g. `scripts/lint.sh -- --format json`).
set -euo pipefail

cd "$(dirname "$0")/.."

LINT_PATHS=(src tools scripts benchmarks examples)
CHANGED=0
PASSTHROUGH=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --changed) CHANGED=1; shift ;;
        --) shift; PASSTHROUGH+=("$@"); break ;;
        *) PASSTHROUGH+=("$1"); shift ;;
    esac
done

status=0

if [[ "$CHANGED" -eq 1 ]]; then
    # Fast path: only re-lint files this branch touches.  Project-level
    # rules (A/B coverage) need the full picture, so they still see the
    # whole test tree; per-file rules run on the diff only.
    base=$(git merge-base HEAD main 2>/dev/null || echo main)
    mapfile -t changed_files < <(
        git diff --name-only "$base" -- '*.py' |
            grep -E '^(src|tools|scripts|benchmarks|examples)/' || true
    )
    existing=()
    for f in "${changed_files[@]:-}"; do
        [[ -n "$f" && -f "$f" ]] && existing+=("$f")
    done
    if [[ ${#existing[@]} -eq 0 ]]; then
        echo "lint.sh: no changed python files vs $base — nothing to lint"
    else
        echo "== reprolint (changed files vs $base) =="
        python -m tools.reprolint "${existing[@]}" --tests tests \
            ${PASSTHROUGH[@]+"${PASSTHROUGH[@]}"} || status=$?
    fi
else
    echo "== reprolint =="
    python -m tools.reprolint "${LINT_PATHS[@]}" --tests tests \
        ${PASSTHROUGH[@]+"${PASSTHROUGH[@]}"} || status=$?
fi

echo
echo "== mypy (typed core) =="
if python -c "import mypy" >/dev/null 2>&1; then
    python -m mypy --config-file mypy.ini || status=$?
else
    echo "mypy not installed — skipping locally (CI runs it as a blocking step;"
    echo "the reprolint typed-core rule covers annotation completeness here)"
fi

exit "$status"
