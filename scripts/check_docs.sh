#!/usr/bin/env bash
#===- scripts/check_docs.sh - keep the docs honest -----------------------===//
#
# Verifies that every repo path, C++ symbol, test name and CLI flag
# referenced in README.md and docs/*.md actually exists in the tree, so
# the documentation cannot silently rot as code moves. Registered as the
# ctest `check_docs`; run manually from the repo root:
#
#   bash scripts/check_docs.sh
#
# What gets checked (tokens inside single-backtick inline code spans;
# fenced code blocks are skipped — they hold command transcripts, not
# references):
#   - path-like tokens (contain '/' under a known top-level dir, or are
#    top-level files with a known extension) must exist on disk
#   - qualified C++ symbols (ns::Name, Class::member) must appear in
#     src/ sources
#   - `--flag` tokens must appear in examples/benchmark_runner.cpp,
#     examples/store_tool.cpp or examples/serve_tool.cpp
#   - `clgen-store <sub> [--flag ...]` / `clgen-serve <sub> [--flag ...]`
#     invocations: every subcommand and option word must be handled by
#     the matching tool source, so documented CLI usage cannot rot
#   - SuiteName.TestName tokens must appear under tests/
#   - every *.md file named in a comment under src/, bench/, examples/
#     or tests/ must exist, at the repo root, under docs/ or at the
#     path given
#   - every -DCLGS_<NAME> build setting named anywhere in the docs
#     (fenced blocks included), CMakeLists.txt, src/, bench/, examples/,
#     tests/ or scripts/ must be declared in CMakeLists.txt by option( or
#     set(... CACHE, so a deleted build option cannot live on in prose
#
#===----------------------------------------------------------------------===//

set -u
cd "$(dirname "$0")/.."

DOCS=(README.md docs/*.md)
FAILURES=0

fail() {
  echo "check_docs: $1" >&2
  FAILURES=$((FAILURES + 1))
}

# Emit every inline-code token of one file, skipping ``` fences.
inline_tokens() {
  awk '
    /^[[:space:]]*```/ { fenced = !fenced; next }
    !fenced {
      line = $0
      while (match(line, /`[^`]+`/)) {
        print substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
    }
  ' "$1"
}

for DOC in "${DOCS[@]}"; do
  [ -f "$DOC" ] || { fail "documentation file missing: $DOC"; continue; }

  while IFS= read -r TOKEN; do
    # --- clgen-store invocations (checked before the space filter:
    # "clgen-store gc --dry-run" is a reference, not prose) -------------
    case "$TOKEN" in
    clgen-store | "clgen-store "*)
      SUB_SEEN=0
      for WORD in $TOKEN; do
        case "$WORD" in
        clgen-store) ;;
        --*)
          if ! grep -qF -- "\"$WORD\"" examples/store_tool.cpp; then
            fail "$DOC references clgen-store option \`$WORD\` not handled by examples/store_tool.cpp"
          fi
          ;;
        [a-z]*)
          # The first lowercase word is the subcommand; later ones are
          # operands (directory names, values) and are not checked.
          if [ "$SUB_SEEN" -eq 0 ]; then
            SUB_SEEN=1
            if ! grep -qF -- "\"$WORD\"" examples/store_tool.cpp; then
              fail "$DOC references clgen-store subcommand \`$WORD\` not handled by examples/store_tool.cpp"
            fi
          fi
          ;;
        *) ;; # Operand placeholder (DIR, N, ...): skip.
        esac
      done
      continue
      ;;
    clgen-serve | "clgen-serve "*)
      SUB_SEEN=0
      for WORD in $TOKEN; do
        case "$WORD" in
        clgen-serve) ;;
        --*)
          if ! grep -qF -- "\"$WORD\"" examples/serve_tool.cpp; then
            fail "$DOC references clgen-serve option \`$WORD\` not handled by examples/serve_tool.cpp"
          fi
          ;;
        [a-z]*)
          if [ "$SUB_SEEN" -eq 0 ]; then
            SUB_SEEN=1
            if ! grep -qF -- "\"$WORD\"" examples/serve_tool.cpp; then
              fail "$DOC references clgen-serve subcommand \`$WORD\` not handled by examples/serve_tool.cpp"
            fi
          fi
          ;;
        *) ;; # Operand placeholder (PATH, DIR, N, ...): skip.
        esac
      done
      continue
      ;;
    esac

    case "$TOKEN" in
    # Tokens with placeholders, options, spaces or globs are prose, not
    # checkable references ("docs/*.md", "--cache-dir DIR", "-j", ...).
    *" "* | *"*"* | *"<"* | *"..."* | *"…"*) continue ;;
    esac

    # --- CLI flags of the runner / lifecycle tools ----------------------
    case "$TOKEN" in
    --*)
      if ! grep -qF -- "\"$TOKEN\"" examples/benchmark_runner.cpp &&
         ! grep -qF -- "\"$TOKEN\"" examples/store_tool.cpp &&
         ! grep -qF -- "\"$TOKEN\"" examples/serve_tool.cpp; then
        fail "$DOC references flag \`$TOKEN\` not handled by examples/benchmark_runner.cpp, examples/store_tool.cpp or examples/serve_tool.cpp"
      fi
      continue
      ;;
    -*) continue ;; # Short options / compiler switches: prose.
    esac

    # --- Repo paths -----------------------------------------------------
    case "$TOKEN" in
    src/* | tests/* | docs/* | examples/* | bench/* | scripts/*)
      [ -e "$TOKEN" ] || fail "$DOC references missing path \`$TOKEN\`"
      continue
      ;;
    *.md | *.json | *.txt | CMakeLists.txt)
      [ -e "$TOKEN" ] || fail "$DOC references missing file \`$TOKEN\`"
      continue
      ;;
    esac

    # --- Qualified C++ symbols (ns::Name, Class::member, ...) -----------
    if printf '%s' "$TOKEN" | grep -Eq '^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)+(\(\))?$'; then
      # Every component must appear in src/ next to its neighbour; the
      # cheap-but-sharp approximation is grepping for the trailing
      # "Parent::Leaf" pair, or else for a "Leaf" declaration in a file
      # that opens the Parent scope (namespace, class or struct Parent),
      # so a symbol that moved to another namespace is caught.
      PARENT=$(printf '%s' "$TOKEN" | sed 's/()$//' | awk -F'::' '{ print $(NF-1) }')
      LEAF=$(printf '%s' "$TOKEN" | sed 's/()$//' | awk -F'::' '{ print $NF }')
      if ! grep -rqF "$PARENT::$LEAF" src/; then
        mapfile -t SCOPES < <(grep -rlE "(namespace|class|struct)[[:space:]]+${PARENT}([[:space:]]*[{:]|[[:space:]]*\$|[[:space:]]+final)" src/)
        if [ "${#SCOPES[@]}" -eq 0 ] ||
           ! grep -qE "(struct|class|enum class|void|bool|double|float|[A-Za-z0-9_>&*] )${LEAF}[[:space:](;{]" "${SCOPES[@]}"; then
          fail "$DOC references symbol \`$TOKEN\` not found in src/"
        fi
      fi
      continue
    fi

    # --- Test names (Suite.Test) ----------------------------------------
    if printf '%s' "$TOKEN" | grep -Eq '^[A-Z][A-Za-z0-9]*Test\.[A-Za-z0-9]+$'; then
      SUITE=${TOKEN%%.*}
      NAME=${TOKEN#*.}
      if ! grep -rqE "TEST(_F)?\($SUITE, *$NAME\)" tests/; then
        fail "$DOC references test \`$TOKEN\` not found under tests/"
      fi
      continue
    fi
  done < <(inline_tokens "$DOC")
done

# --- Documents cited in source comments ---------------------------------
while IFS= read -r HIT; do
  SRC=${HIT%%:*}
  for NAME in $(printf '%s\n' "${HIT#*:}" | grep -oE '[A-Za-z0-9_./-]+\.md\b'); do
    NAME=${NAME#./}
    if [ ! -e "$NAME" ] && [ ! -e "docs/$NAME" ]; then
      fail "$SRC cites missing document \`$NAME\` in a comment"
    fi
  done
done < <(grep -rHoE --include='*.h' --include='*.cpp' --include='*.inc' \
           '(//|/\*|^[[:space:]]*\*).*\.md\b.*' src bench examples tests)

# --- Build settings named as -DCLGS_<NAME> -------------------------------
DECLARED=$(tr '\n' ' ' < CMakeLists.txt |
           grep -oE 'option\([[:space:]]*CLGS_[A-Z0-9_]+|set\([[:space:]]*CLGS_[A-Z0-9_]+[^)]*CACHE' |
           grep -oE 'CLGS_[A-Z0-9_]+' | sort -u)
while IFS=: read -r SRC SETTING; do
  if ! printf '%s\n' "$DECLARED" | grep -qx -- "${SETTING#-D}"; then
    fail "$SRC names build setting \`$SETTING\` that CMakeLists.txt does not declare"
  fi
done < <(grep -rHoE -- '-DCLGS_[A-Z0-9_]+' "${DOCS[@]}" CMakeLists.txt \
           src bench examples tests scripts | sort -u)

if [ "$FAILURES" -ne 0 ]; then
  echo "check_docs: $FAILURES stale documentation reference(s)" >&2
  exit 1
fi
echo "check_docs: all documentation references resolve"
