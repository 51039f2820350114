#!/usr/bin/env bash
# Host-time layers of a sweep, from gprof's flat profile.
#
# Usage: tools/profile_layers.sh SPEC...
#
# SPEC is anything `archgraph_sweep run` accepts: a spec string or a canned
# grid name. For example, the SMP half of the Fig. 1 list-ranking workload:
#
#   tools/profile_layers.sh \
#     "kernel=lr_hj machine=smp:procs={1,8} layout={ordered,random} n=262144"
#
# The script configures a Release build with -pg in a temporary directory,
# builds archgraph_sweep there, runs `archgraph_sweep run SPEC... --jobs 1`
# (serial, so one gmon.out covers every cell), and folds the self time of
# each symbol in `gprof -b -p` into host layers:
#
#   queue          sim::EventQueue and the std algorithms and containers it
#                  instantiates over sim::Event
#   machine model  the rest of archgraph::sim: MTA/SMP/GPU event loops,
#                  issue logic, caches, coherence, bus and banks
#   memory         simulated memory (SimMemory, SimArray) and the coroutine
#                  frame pool
#   verify         the sequential oracles and validators a cell is checked
#                  against
#   input          list and graph generation
#   other          everything else, kernel coroutine bodies included
#
# -pg blocks some inlining, so small hot functions are overstated; compare
# layers between two commits profiled the same way, not against untraced
# wall times. The temporary directory is removed on exit.
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: $0 SPEC..." >&2
  exit 2
fi

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "== configure + build (-pg, Release) in $WORK ==" >&2
if ! { cmake -S "$ROOT" -B "$WORK/build" -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg &&
       cmake --build "$WORK/build" --target archgraph_sweep_cli \
         -j "$(nproc)"; } >"$WORK/build.log" 2>&1; then
  tail -n 30 "$WORK/build.log" >&2
  exit 1
fi
BIN="$WORK/build/tools/archgraph_sweep"

echo "== run (--jobs 1) ==" >&2
# gmon.out is written to the working directory at exit.
(cd "$WORK" && "$BIN" run "$@" --jobs 1 --no-progress \
    --out "$WORK/cells.jsonl" >&2)

gprof -b -p --demangle "$BIN" "$WORK/gmon.out" >"$WORK/flat.txt"

python3 - "$WORK/flat.txt" <<'EOF'
import re
import sys

# First match wins, so the narrow layers come before "machine model".
LAYERS = [
    ("verify", re.compile(
        r"archgraph::core::(rank_sequential|cc_union_find|color_greedy_seq|"
        r"bfs_tree_seq|normalize_labels)|archgraph::graph::validate::|"
        r"UnionFind")),
    ("input", re.compile(
        r"archgraph::graph::|archgraph::sweep::make_input|archgraph::Prng|"
        r"splitmix64")),
    ("queue", re.compile(r"archgraph::sim::(EventQueue|Event\b)")),
    ("memory", re.compile(
        r"archgraph::sim::(SimMemory|SimArray|detail::FramePool)")),
    ("machine model", re.compile(r"archgraph::sim::")),
]
ORDER = [name for name, _ in LAYERS] + ["other"]

# Flat-profile rows: %time, cumulative s, self s, then optionally calls and
# two per-call columns, then the symbol.
ROW = re.compile(r"^\s*[\d.]+\s+[\d.]+\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def qualified_name(symbol):
    """The symbol without its parameter list, so a function is classified
    by where it lives, not by the types it takes."""
    name = symbol.replace("(anonymous namespace)", "anon")
    return name.split("(", 1)[0]


self_s = {name: 0.0 for name in ORDER}
top = {name: [] for name in ORDER}
with open(sys.argv[1]) as f:
    for line in f:
        m = ROW.match(line)
        if not m:
            continue
        seconds, symbol = float(m.group(1)), m.group(2).strip()
        name = qualified_name(symbol)
        layer = next((n for n, rx in LAYERS if rx.search(name)), "other")
        self_s[layer] += seconds
        top[layer].append((seconds, name))

total = sum(self_s.values())
if total <= 0:
    sys.exit("profile_layers: gprof recorded no samples")
print(f"{'layer':<14} {'self s':>9} {'share':>7}   largest symbols")
for name in ORDER:
    syms = sorted(top[name], reverse=True)[:3]
    shown = "; ".join(f"{s if len(s) <= 60 else s[:57] + '...'} {t:.2f}s"
                      for t, s in syms)
    print(f"{name:<14} {self_s[name]:9.2f} {self_s[name] / total:7.1%}   "
          f"{shown}")
print(f"{'total':<14} {total:9.2f}")
print()
print("""\
notes:
- -pg does not attribute kernel coroutine bodies to their own symbols; they
  land in 'other' under neighbouring symbols such as obs::label_next_region,
  std::deque<long>::_M_push_back_aux or core::sim_rank_list_hj.
- Standard-library code over plain types (e.g. a std::unordered_map of
  integers) cannot be told apart by owner and also lands in 'other'.
- gprof samples only the executable's own code: time in shared libraries
  (libc, libstdc++) is not counted, so the total is below the wall time.""")
EOF
