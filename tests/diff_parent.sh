#!/usr/bin/env bash
# Behaviour diff against an earlier commit. Builds REV (default HEAD~1)
# from `git archive` in a temporary directory, builds the working tree in
# build/, runs the seeded surfaces on both and compares them:
#   - failure_drill: stdout, both CSVs and the Prometheus dump;
#   - hotkey_skew rebalance: stdout and CSV;
#   - scenario_suite: stdout, every CSV and both Prometheus dumps;
#   - perfbench --small on seed 1, traced and untraced: every value the
#     benchmark marks deterministic.
# Prints every file and value that differs and exits nonzero, naming the
# first; exits 0 when everything is byte-identical. A change that alters
# behaviour on purpose legitimately differs, so this is a review tool:
# run_all.sh and CI do not call it.
# Usage: tests/diff_parent.sh [rev]
set -euo pipefail

rev="${1:-HEAD~1}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
commit="$(git -C "${repo_root}" rev-parse --verify "${rev}^{commit}")"
work="$(mktemp -d)"
trap 'rm -rf "${work}"' EXIT

mkdir -p "${work}/base"
git -C "${repo_root}" archive "${commit}" | tar -x -C "${work}/base"

log="${work}/log.txt"
quiet() {  # runs "$@" with its output in the log, shown only on failure
  "$@" >> "${log}" 2>&1 || { cat "${log}"; echo "failed: $*"; exit 1; }
}

build_tree() {  # $1 = source root
  quiet cmake -B "$1/build" -S "$1"
  quiet cmake --build "$1/build" -j "$(nproc)" \
    --target failure_drill hotkey_skew scenario_suite
}

run_surfaces() {  # $1 = source root, $2 = output dir
  local dir
  for dir in drill rebalance scenarios; do mkdir -p "$2/${dir}"; done
  (cd "$2/drill" && SEDNA_OUT_DIR="$2/drill" \
    "$1/build/examples/failure_drill" > stdout.txt)
  (cd "$2/rebalance" && SEDNA_OUT_DIR="$2/rebalance" \
    "$1/build/bench/hotkey_skew" rebalance > stdout.txt)
  (cd "$2/scenarios" && SEDNA_OUT_DIR="$2/scenarios" \
    "$1/build/bench/scenario_suite" > stdout.txt)
  # Both trees write their runs under one directory: the heap measure
  # behind store.bytes_per_item shifts with the length of that path.
  quiet python3 - "$1/perfbench" "$2/perfbench.txt" "${work}/runs" <<'EOF'
import sys

sys.path.insert(0, sys.argv[1])
import run  # noqa: E402  (perfbench/run.py of the tree under test)

if not run.build():
    sys.exit("perfbench build failed")
run.RUNS_DIR = sys.argv[3]
with open(sys.argv[2], "w") as out:
    for workload in ("paper_fig8", "ycsb_a_large", "durable_churn"):
        for trace in (False, True):
            report, _ = run.run_binary(workload, 1, 1, trace, small=True)
            if report is None:
                sys.exit(f"perfbench {workload} failed")
            for name, m in sorted(report["metrics"].items()):
                if m["deterministic"]:
                    out.write(f"perfbench {workload} trace={int(trace)} "
                              f"{name} = {m['value']}\n")
EOF
}

echo "building ${rev} (${commit:0:12}) and the working tree..."
build_tree "${work}/base"
build_tree "${repo_root}"
echo "running both..."
run_surfaces "${work}/base" "${work}/out-base"
run_surfaces "${repo_root}" "${work}/out-head"

differences=()
while IFS= read -r file; do
  [ "${file}" = "perfbench.txt" ] && continue
  if ! cmp -s "${work}/out-base/${file}" "${work}/out-head/${file}"; then
    differences+=("file ${file}")
  fi
done < <(cd "${work}/out-base" && find . -type f -printf '%P\n' | sort)
while IFS= read -r file; do
  [ -e "${work}/out-base/${file}" ] || differences+=("new file ${file}")
done < <(cd "${work}/out-head" && find . -type f -printf '%P\n' | sort)
while IFS= read -r line; do
  differences+=("value ${line}")
done < <(diff "${work}/out-base/perfbench.txt" \
              "${work}/out-head/perfbench.txt" | grep '^[<>]' || true)

if [ "${#differences[@]}" -eq 0 ]; then
  echo "diff_parent: identical to ${rev}"
  exit 0
fi
for d in "${differences[@]}"; do echo "differs: ${d}"; done
echo "diff_parent: ${#differences[@]} difference(s) from ${rev}; first: ${differences[0]}"
exit 1
