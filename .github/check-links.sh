#!/usr/bin/env bash
# Markdown link checker for the docs CI job.
#
# Validates, for README.md, DESIGN.md, ROADMAP.md, and docs/*.md:
#   - relative file links point at files that exist;
#   - intra-page `#anchor` fragments match a real heading of the page;
#   - cross-page `file.md#anchor` fragments match a real heading of the
#     target file.
# Anchors are compared against GitHub's heading slugs (lowercase, backticks
# and punctuation stripped, spaces to dashes; a trailing -N disambiguator
# for duplicated headings is accepted). External URLs are skipped — CI must
# not depend on the network.
#
# It also fails when README.md, DESIGN.md or docs/*.md name something a PR
# deleted — the real-mode suite of PR 20 (its results file, its
# diffuse-bench flags), the float64/float32 host-I/O pairs PR 21 folded
# into ReadBuffer/WriteBuffer, and legion's simulation hooks that moved
# behind legion.Backend into machine.Pricer (the old backend interface,
# its setter, the sim cost path, its metadata probe, the compile-charge
# switch) — so a sentence cannot outlive what it quoted. ROADMAP.md is exempt: it keeps history. The one-character
# brackets keep this script from matching its own pattern in a
# repository-wide grep.
set -u

removed='BENCH[_]real|-real[p]reset|-check[r]eal|diffuse-bench -(real|compare|serve|ranks|all)\b'
removed="$removed"'|(Read|Write)[A]ll32' # also inside msgReadAll32/msgWriteAll32
removed="$removed"'|[R]emoteBackend|[S]etRemote|[e]xecuteSim|[S]imMetadataLen|[C]hargeCompile'

# slugs_of FILE: print the GitHub anchor slug of every heading, skipping
# fenced code blocks (a `# comment` inside a fence is not a heading).
slugs_of() {
  awk 'BEGIN{f=0}
       /^(```|~~~)/{f=!f; next}
       f{next}
       /^#+ /{print}' "$1" |
    sed -E 's/^#+ +//; s/`//g' |
    tr '[:upper:]' '[:lower:]' |
    sed -E 's/[^a-z0-9 _-]//g; s/ /-/g'
}

fail=0
for f in README.md DESIGN.md ROADMAP.md docs/*.md; do
  [ -e "$f" ] || continue
  dir=$(dirname "$f")
  if [ "$f" != ROADMAP.md ] && hits=$(grep -nE -e "$removed" "$f"); then
    echo "$f: names something removed (the real-mode suite: see docs/BENCHMARKS.md; ReadAll32/WriteAll32: see DESIGN.md, the wire):"
    echo "$hits"
    fail=1
  fi
  # while read (not an unquoted for) so links with spaces — e.g. a
  # [text](file.md "Title") form — survive as one token; the title part
  # is then stripped.
  while IFS= read -r link; do
    case "$link" in
      http://* | https://* | mailto:*) continue ;;
    esac
    link=${link%% \"*}
    path=${link%%#*}
    frag=""
    case "$link" in
      *#*) frag=${link#*#} ;;
    esac
    if [ -n "$path" ] && [ ! -e "$dir/$path" ]; then
      echo "$f: broken link -> $path"
      fail=1
      continue
    fi
    if [ -n "$frag" ]; then
      if [ -n "$path" ]; then
        target="$dir/$path"
      else
        target="$f"
      fi
      case "$target" in
        *.md) ;;
        *) continue ;; # fragments into non-markdown targets are not checked
      esac
      base=$(printf '%s' "$frag" | sed -E 's/-[0-9]+$//')
      if ! slugs_of "$target" | grep -qxF -e "$frag" -e "$base"; then
        echo "$f: broken anchor -> $link (no heading slugs to '$frag' in $target)"
        fail=1
      fi
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done
exit $fail
