#!/usr/bin/env bash
# CI smoke job: the serving subsystem end-to-end in a few seconds.
# Uses the installed `mmbench` entry point when available, otherwise the
# in-tree CLI module.
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v mmbench >/dev/null 2>&1; then
    run=(mmbench)
else
    export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
    run=(python -m repro.core.cli)
fi

"${run[@]}" serve --workload avmnist --arrival-rate 100 --policy adaptive

# Multi-tenant mixed serving: every scenario shape, three heterogeneous
# devices, per-tenant SLO-attainment reporting.
for mix in uniform heavy-head diurnal bursty; do
    "${run[@]}" serve --mix "$mix" --arrival-rate 2000 --n-requests 2000 \
        --workloads avmnist,mmimdb,transfuser --devices 2080ti,orin,nano \
        --policy adaptive
done

# Fine-tuning mix: background training jobs hold stream shares of every
# device while the inference traffic keeps being served.
"${run[@]}" serve --mix finetune --arrival-rate 2000 --n-requests 2000 \
    --workloads avmnist,mmimdb,transfuser --devices 2080ti,orin,nano \
    --finetune-share 0.25 --policy adaptive

# Chaos scenarios: every named fault plan against the same mix, plus a
# JSON plan from disk; each run must print the conservation line
# ("completed + shed = issued") and the per-device fault windows.
for chaos in single-failure rolling-restart thermal-brownout flaky-device; do
    "${run[@]}" serve --mix heavy-head --faults "$chaos" \
        --arrival-rate 2000 --n-requests 2000 \
        --workloads avmnist,mmimdb,transfuser --devices 2080ti,orin,nano \
        --policy adaptive | grep "issued (conserved)"
done
plandir="$(mktemp -d)"
cat > "$plandir/plan.json" <<'EOF'
{"events": [
  {"kind": "down", "device": "nano", "time": 0.05},
  {"kind": "recover", "device": "nano", "time": 0.3},
  {"kind": "throttle", "device": "orin", "time": 0.1, "until": 0.5, "factor": 2.0}
]}
EOF
"${run[@]}" serve --mix heavy-head --faults "$plandir/plan.json" \
    --arrival-rate 2000 --n-requests 2000 --request-deadline 0.5 \
    --workloads avmnist,mmimdb,transfuser --devices 2080ti,orin,nano \
    --policy adaptive | grep "Per-device fault windows"
rm -rf "$plandir"

# Fleet-scale serving: grouped replicas, reactive autoscaling, and
# group-level chaos scenarios. Plans apply to every replica of a group
# (stalls included), with the same retry flags as the classic paths.
"${run[@]}" serve --fleet --groups 2080ti:4,orin:2,nano:2 \
    --mix heavy-head --workloads avmnist,mmimdb,transfuser \
    --arrival-rate 3000 --n-requests 3000 --policy adaptive \
    | grep "Per-group fleet breakdown"
"${run[@]}" serve --fleet --groups 2080ti:1:6 --workloads transfuser \
    --policy fixed --batch-size 8 --arrival-rate 6000 --n-requests 3000 \
    --autoscale queue:16:0.02:0.04 --autoscale-max 6 \
    | grep "autoscaling:"
"${run[@]}" serve --fleet --groups 2080ti:2,nano:2 --workloads avmnist \
    --faults single-failure --arrival-rate 1500 --n-requests 2000 \
    --policy fixed --batch-size 8 | grep "issued (conserved)"
"${run[@]}" serve --fleet --groups 2080ti:2,nano:2 --workloads avmnist \
    --faults flaky-device --retry-max 5 --arrival-rate 1500 \
    --n-requests 2000 --policy fixed --batch-size 8 | grep "stalled"

# Traced-training breakdown: per-pass/per-stage table + cross-check.
"${run[@]}" train-analyze --workload avmnist --batch-size 8 --cross-check

# Execution-graph ingest: export a native trace, re-ingest it through the
# full report/sweep/serve surface, and price an external golden fixture
# (unknown-op fraction surfaced in the output).
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
"${run[@]}" export --workload avmnist --batch-size 8 -o "$tmpdir/avmnist.json"
"${run[@]}" ingest "$tmpdir/avmnist.json" --report
"${run[@]}" ingest "$tmpdir/avmnist.json" --sweep 1,8,32 --devices 2080ti,nano
"${run[@]}" ingest "$tmpdir/avmnist.json" --serve --arrival-rate 500 \
    --n-requests 1000 --devices 2080ti,nano
"${run[@]}" ingest tests/fixtures/execution_graphs/transformer_train.json \
    --report | grep "unknown ops: 1/11"

# Persistent store: a cold run fills the cache with one entry, the corpus
# commands list it, and a second run warm-hits it from disk.
cachedir="$tmpdir/cache"
"${run[@]}" run --workload avmnist --batch-size 2 --backend meta \
    --cache-dir "$cachedir" | grep "1 captures"
"${run[@]}" store ls --cache-dir "$cachedir" | grep avmnist
"${run[@]}" store stats --cache-dir "$cachedir" | grep "1 entry"
"${run[@]}" run --workload avmnist --batch-size 2 --backend meta \
    --cache-dir "$cachedir" | grep "0 captures"

# Static lint: the exported graph and the whole store lint clean
# under --strict; a counterexample fixture keeps failing (exit 1) and a
# baseline written from its findings suppresses them.
"${run[@]}" lint --strict "$tmpdir/avmnist.json"
"${run[@]}" store lint --strict --cache-dir "$cachedir"
if "${run[@]}" lint tests/fixtures/execution_graphs/cyclic.json; then
    echo "lint missed the cyclic fixture" >&2; exit 1
fi
"${run[@]}" lint --strict tests/fixtures/execution_graphs/unknown_ops.json \
    --write-baseline "$tmpdir/baseline.json" || true
"${run[@]}" lint --strict tests/fixtures/execution_graphs/unknown_ops.json \
    --baseline "$tmpdir/baseline.json" | grep "1 suppressed"
