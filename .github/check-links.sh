#!/usr/bin/env bash
# Markdown link checker for the docs CI job, and the guard that keeps
# every CI command in one place: each `run:` of every workflow in
# .github/workflows must be `bash .github/ci-local.sh ID...`, and each ID
# a step the script defines (a `step ID ...` line), so no check is
# written twice and none names a step that is gone. It fails, too, when
# it finds no step in the script or no `run:` in the workflows, so a
# renamed file cannot pass it unchecked.
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
# switch), and the second shard-group executor path with its counters
# (the stage loop, its shard dispatch, the halo-volume estimate, the
# wavefront group count, the per-stage barrier count), and feedback-directed
# scheduling (its setter, mode getter and on-switch, the calibration hook,
# the calibrated cost source, the rank environment variable, the
# diffuse-trace flag and table, the bit-identity test), and the rank
# mesh's tcp transport and serve's batching (the transport and bind
# environment variables, the rendered peer list, the explicit-transport
# context, the provider lookup, the batch limit and its diffuse-serve
# flag), and the rank drain's four message protocols that one ordered-patch
# rule replaced (the halo send and staging, the reduction-destination
# sync, the rank DAG walk, the halo fault kind), and the in-process
# wavefront DAG (its construction, the executor's DAG drain and serial walk,
# its node counters, the dependence records and their halo kind, the
# run-ahead mode), and legion's executor-policy switch that the reference
# backend internal/oracle replaced (the setter, both policies, the
# per-point executor), and legion's program cache that the one
# structural kernel cache absorbed (its attach step and its bound), and
# kir's blocked GEMV tier that no workload reached (its execution
# entry, its two kernels, its x-spill threshold), and the pool's second
# batch mode that ran an in-process shard group's (task, shard) units,
# and the per-analysis window scan the session's key stream replaced
# (its type, its store record, its key fold) with cunum's operand
# dedup and stride-of-ones helpers, and legion's second and third
# binding recipes, the per-point executor step, the in-process group
# loop and the rank footprint and instance helpers that one tile-box
# function, one bind and one run path replaced, and serve's per-tenant
# memory quota (the core type, its error, the session hooks, the serve
# config field, the client predicate, the wire field, the diffuse-serve
# flag, the diffuse-trace column), and the store repartition that moved
# no data (the array, runtime and store methods, the argument's
# generation, the store's shard count, the constraint and generation
# they were documented as), and the serve surfaces no benchmark workload
# drives (the service binary, its example, its operator guide, and
# diffuse-trace's serve mode with its transport flag), and the rank
# fault script that moved into internal/dist's tests (its environment
# variable, its constant, its parser), and kir's separate kernel passes
# that one composer replaced (the concatenation, the remap, the optimize
# pipeline with its loop-fusion and scalarization passes, the kernel
# clone), and kir's task-local parameters that a fused kernel no longer
# carries (the demotion, the buffer analysis, the kernel's flags), and
# the codegen program's lowered-loop count that a codegen tier lowering
# every element loop made constant, with the façade's two simulation
# helpers no caller used, and kir's two copies of the native-routine
# apparatus that one lane layer replaced (the two non-amd64 files, the
# two test hooks, the two switches, the two bit tests), and the lane
# layer's six AVX2 routines no workload paid for (min, the two compares,
# select, neg and abs) with the set of arithmetic bits that one AVX2 bit
# replaced and the Go min the interpreter's math.Min replaced, and the
# rank's decode-ahead goroutine that one control loop replaced (its loop
# and its decoded-message type), and the rank bootstrap that inherited
# socket pairs replaced (the rendezvous directory and its environment
# variable, the parent's socket file, the dial retry, the mesh dial and
# accept, the hello message) —
# so a sentence cannot
# outlive what it quoted. ROADMAP.md is exempt: it keeps history. The one-character
# brackets keep this script from matching its own pattern in a
# repository-wide grep.
set -u
cd "$(dirname "$0")/.."

removed='BENCH[_]real|-real[p]reset|-check[r]eal|diffuse-bench -(real|compare|serve|ranks|all)\b'
removed="$removed"'|(Read|Write)[A]ll32' # also inside msgReadAll32/msgWriteAll32
removed="$removed"'|[R]emoteBackend|[S]etRemote|[e]xecuteSim|[S]imMetadataLen|[C]hargeCompile'
removed="$removed"'|[r]unShardStage|[r]unShards\b|[H]aloElemsMoved|[W]avefrontGroups|[B]arrierStages'
removed="$removed"'|[S]etFeedback|[F]eedbackOn\b|[F]eedbackOf\b|[a]ttachCalibration|[N]ewCalibrated|[m]achine\.Calibrated\b'
removed="$removed"'|DIFFUSE_[F]EEDBACK|-[n]ofeedback|[p]rintCalibration|[T]estFeedbackBitIdentical'
removed="$removed"'|DIFFUSE_DIST_[T]RANSPORT|DIFFUSE_DIST_[B]IND|DIFFUSE_[P]EERS|[N]ewDistributedTransportContext'
removed="$removed"'|[B]atchMax|[P]roviderFor|(^|[^[:alnum:]])-[b]atch\b'
removed="$removed"'|[s]endHalos|[s]tagedHalo|[s]yncRedDests|[r]unWavefrontDist|:[h]alo:'
removed="$removed"'|[b]uildWavefrontDAG|[r]unDAG|[d]rainSerial|[W]avefrontNodes|[H]aloNodes|[F]oldNodes|[S]tageDep|[D]epHalo|[W]avefrontOn'
removed="$removed"'|[S]etExecPolicy|[E]xecPerPoint|[E]xecChunked|[e]xecutePerPoint'
removed="$removed"'|[a]ttachProgramLocked|[m]axProgs'
removed="$removed"'|[e]xecGEMVCg|[g]emvBlocked|[g]emvXSpillBytes|column-[b]locked'
removed="$removed"'|[r]unUnits'
removed="$removed"'|[W]indowScan|[S]canStore|\b[d]edup\b|[o]nesOf'
removed="$removed"'|[b]indPoint|[b]indUnion|[e]xecPoint|[r]unGroupLocal|[t]iledShardSpan|[s]hardInstances'
removed="$removed"'|[A]rray\.Reshard|[R]untime\.Reshard|[S]tore\.Reshard|\b[S]hardGen\b|\b[S]hardCount\b|[Ss]ixth fusion constraint|[Rr]epartition generation'
removed="$removed"'|core\.[Q]uota|[Q]uotaError|[S]etQuota|[R]eclaimQuota|[T]enantQuota|[I]sOverQuota|[o]ver_quota|(^|[^[:alnum:]])-[q]uota\b|[q]uotaUsed'
removed="$removed"'|diffuse-[s]erve|examples/[s]erve\b|[S]ERVING\.md|[s]ervetransport|diffuse-trace -[s]erve'
removed="$removed"'|DIFFUSE_DIST_[F]AULTS|[E]nvFaults|[P]arseSchedule'
removed="$removed"'|kir\.[C]oncat\b|kir\.[O]ptimize\b|(^|[^[:alnum:]])[F]useLoops|(^|[^[:alnum:]])[S]calarize\b|[K]ernel\.(Remap|Clone)\b'
removed="$removed"'|[M]arkLocal|[b]ufferLocals|[K]ernel\.Local\b'
removed="$removed"'|[C]odegenProgram\.Lowered|\.[L]owered\(\)|diffuse\.[S]imConfig|[A]100Machine'
removed="$removed"'|\b([m]in|[g]e|[l]e|[s]el|[n]eg|[a]bs)QuadsAVX2|\b[l]aneArith\b|\b[m]inOf\b'
removed="$removed"'|[d]ecodeLoop|\b[c]tlOp\b|[d]ecode-ahead'
removed="$removed"'|DIFFUSE_DIST_[D]IR|[d]ialRetry|[c]onnectMesh|[m]sgHello|[p]arent\.sock|[r]endezvous directory'
removed="$removed"'|[g]emv_other\.go|[v]math_other\.go|[S]etGEMVNative|[S]etVMathNative|[g]emvNative|[v]mathNative|[T]estGEMVNativeMatchesGo|[T]estVMathMatchesMath'

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

steps=" $(grep -oE '^[[:space:]]*step [a-z0-9-]+ ' .github/ci-local.sh | awk '{printf "%s ", $2}')"
if [ "$steps" = " " ]; then
  echo ".github/ci-local.sh: no \`step ID\` line found"
  fail=1
fi
runs=0
while IFS= read -r line; do
  runs=$((runs + 1))
  rest=${line#*:}                # FILE:LINE:TEXT, as grep -Hn prints it
  at=${line%%:*}:${rest%%:*}
  cmd=$(printf '%s' "${rest#*:}" | sed -E 's/^[[:space:]]*(-[[:space:]]+)?run:[[:space:]]*//')
  if ! printf '%s' "$cmd" | grep -qE '^bash \.github/ci-local\.sh( [a-z0-9-]+)+[[:space:]]*$'; then
    echo "$at: runs a command of its own; write the check as a step of .github/ci-local.sh and run it by id: $cmd"
    fail=1
    continue
  fi
  for id in ${cmd#bash .github/ci-local.sh }; do
    case "$steps" in
      *" $id "*) ;;
      *) echo "$at: .github/ci-local.sh has no step '$id'"; fail=1 ;;
    esac
  done
done < <(grep -sHnE '^[[:space:]]*(-[[:space:]]+)?run:' .github/workflows/*.yml .github/workflows/*.yaml)
if [ "$runs" -eq 0 ]; then
  echo ".github/workflows: no \`run:\` step found"
  fail=1
fi

for f in README.md DESIGN.md ROADMAP.md docs/*.md; do
  [ -e "$f" ] || continue
  dir=$(dirname "$f")
  if [ "$f" != ROADMAP.md ] && hits=$(grep -nE -e "$removed" "$f"); then
    echo "$f: names something removed (the real-mode suite: see docs/BENCHMARKS.md; ReadAll32/WriteAll32: see DESIGN.md, the wire; the stage-barrier executor path: see DESIGN.md, sharded execution; feedback scheduling: see DESIGN.md, static schedule; the tcp rank mesh and serve batching: see docs/ARCHITECTURE.md, distributed execution; the rank drain: see docs/ARCHITECTURE.md, distributed execution; the wavefront DAG: see DESIGN.md, one drain loop; the executor policies: see DESIGN.md, the reference backend; the blocked GEMV: see DESIGN.md, kernel backends; the unit batch: see DESIGN.md, one drain loop; the window scan: see DESIGN.md, memoization and kernel identity; the binding recipes and run paths: see DESIGN.md, execution engine; the memory quota: see docs/ARCHITECTURE.md, service mode; the store repartition: see DESIGN.md, sharded execution; the serve binary, example, guide and trace mode: see docs/ARCHITECTURE.md, service mode; the rank fault script: see docs/ARCHITECTURE.md, fault injection; the kernel passes and the task-local parameters: see DESIGN.md, memoization and kernel identity; the lowered-loop count: see DESIGN.md, kernel backends; the per-routine lane switches, hooks, fallback files and bit tests: see DESIGN.md, kernel backends; the retired lane routines and bits: see DESIGN.md, kernel backends; the rank decode-ahead: see docs/ARCHITECTURE.md, distributed execution):"
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
