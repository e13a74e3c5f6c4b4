#!/usr/bin/env bash
# Repository CI gate: gofmt, vet, build (also for arm64), full test suite,
# then the concurrency suites under the race detector (the serving
# runtime's correctness claims — overlapping requests, per-request stat
# scopes, pooled buffers — only mean something raced), and finally the
# chaos stage: the fault-injection suite twice under -race, since its bugs
# are scheduling-dependent by nature.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l (tracked .go files)"
UNFORMATTED="$(git ls-files -z '*.go' | xargs -0 gofmt -l)"
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt: these files need formatting:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet ./cmd/..."
go vet ./cmd/...

echo "== go build ./..."
go build ./...

echo "== go build ./cmd/..."
go build ./cmd/...

echo "== GOARCH=arm64 go vet ./internal/tensor/ && GOARCH=arm64 go build ./..."
# Cross-check the portable (!amd64) matmul kernel so it cannot rot while
# amd64 runs the assembly one.
GOARCH=arm64 go vet ./internal/tensor/
GOARCH=arm64 go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/cluster/... ./internal/comm/... ./internal/trace/... ./internal/obs/... ./internal/adapt/... ./internal/balance/..."
go test -race ./internal/cluster/... ./internal/comm/... ./internal/trace/... ./internal/obs/... ./internal/adapt/... ./internal/balance/...

echo "== chaos: go test -race -count=2 (fault-injection suite)"
go test -race -count=2 -run \
    'Chaos|Killed|Dropped|Corrupt|Stalled|AllWorkersDead|Probation|NonRetryable|Flaky|OpTimeout|VerifyFrame|Framed|TCPSend|DecodeHostile|DecodeDeclared' \
    ./internal/cluster/... ./internal/comm/... ./internal/tensor/...

echo "== chaos: go test -race -count=3 (batched recovery suite)"
# The batched fault-tolerance claims — a worker killed mid-fused-step parks
# the co-batched survivors and resumes them bit-identically — are
# scheduling-dependent; run them three times under the race detector.
go test -race -count=3 -run 'TestBatchedGenerate|TestBatchWindow' ./internal/cluster/

echo "== admin smoke: worker -local serves /metrics and /healthz"
# Start an in-process engine with the admin listener, serve two requests,
# and hold; scrape the listener while it holds and require the serving
# metric families the dashboards depend on.
ADMIN_ADDR="127.0.0.1:19155"
ADMIN_LOG="$(mktemp)"
go run ./cmd/voltage-worker -local 2 -model tiny -requests 2 -words 8 \
    -admin "$ADMIN_ADDR" -hold 30s -timeout 2m >"$ADMIN_LOG" 2>&1 &
ADMIN_PID=$!
trap 'kill "$ADMIN_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG"' EXIT
METRICS=""
for _ in $(seq 1 100); do
    if METRICS="$(curl -fsS "http://$ADMIN_ADDR/metrics" 2>/dev/null)" \
        && grep -q 'voltage_requests_total{outcome="ok"} 2' <<<"$METRICS"; then
        break
    fi
    METRICS=""
    sleep 0.3
done
if [ -z "$METRICS" ]; then
    echo "admin smoke: listener never served 2 completed requests" >&2
    cat "$ADMIN_LOG" >&2
    exit 1
fi
for family in \
    'voltage_request_latency_seconds_bucket' \
    'voltage_comm_bytes_sent_total{rank="terminal"}' \
    'voltage_errors_total{type="timeout"}' \
    'voltage_health_state{rank="0"}' \
    'voltage_queue_length'; do
    grep -qF "$family" <<<"$METRICS" || {
        echo "admin smoke: /metrics missing $family" >&2
        exit 1
    }
done
curl -fsS "http://$ADMIN_ADDR/healthz" | grep -q '"ok":true' || {
    echo "admin smoke: /healthz not ok" >&2
    exit 1
}
kill "$ADMIN_PID" 2>/dev/null || true
wait "$ADMIN_PID" 2>/dev/null || true

echo "== gateway smoke: voltage-server -local serves /v1/classify, /metrics, and sheds"
# Start the inference gateway over a 3-worker in-process engine with a
# deliberately tiny interactive queue (cap 1, one worker, paced compute),
# serve one classification, then fire a burst and require at least one
# typed 429 shed plus the gateway metric families.
GW_ADDR="127.0.0.1:19156"
GW_LOG="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny -layers 1 -listen "$GW_ADDR" \
    -queue-interactive 1 -gateway-workers 1 -device-flops 2e4 \
    -hold 60s -drain-timeout 5s >"$GW_LOG" 2>&1 &
GW_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG"' EXIT
CLASSIFY=""
for _ in $(seq 1 100); do
    if CLASSIFY="$(curl -fsS -X POST "http://$GW_ADDR/v1/classify" \
        -d '{"tokens":[1,2,3,4]}' 2>/dev/null)" \
        && grep -q '"logits"' <<<"$CLASSIFY"; then
        break
    fi
    CLASSIFY=""
    sleep 0.3
done
if [ -z "$CLASSIFY" ]; then
    echo "gateway smoke: /v1/classify never answered" >&2
    cat "$GW_LOG" >&2
    exit 1
fi
# Burst past the queue cap: with one paced worker and a cap-1 queue, at
# least one of six concurrent requests must shed with HTTP 429.
BURST_CODES="$(for _ in $(seq 1 6); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
        "http://$GW_ADDR/v1/classify" -d '{"tokens":[1,2,3,4]}' &
done; wait)"
grep -q '429' <<<"$BURST_CODES" || {
    echo "gateway smoke: burst produced no 429 shed (codes: $BURST_CODES)" >&2
    cat "$GW_LOG" >&2
    exit 1
}
GW_METRICS="$(curl -fsS "http://$GW_ADDR/metrics")"
for family in \
    'voltage_gateway_queue_depth{class="interactive"}' \
    'voltage_gateway_queue_depth{class="batch"}' \
    'voltage_gateway_shed_total{cause="queue_full"}' \
    'voltage_gateway_queue_wait_seconds_bucket' \
    'voltage_requests_total'; do
    grep -qF "$family" <<<"$GW_METRICS" || {
        echo "gateway smoke: /metrics missing $family" >&2
        exit 1
    }
done
curl -fsS "http://$GW_ADDR/v1/queue" | grep -q '"interactive"' || {
    echo "gateway smoke: /v1/queue missing class report" >&2
    exit 1
}
kill "$GW_PID" 2>/dev/null || true
wait "$GW_PID" 2>/dev/null || true

echo "== batched-decode smoke: concurrent /v1/generate streams fuse into one batch"
# Start the gateway over a decoder engine with continuous batching on and a
# generous coalescing window, fire 4 concurrent streaming generates, require
# every stream to complete, then require the batch metrics to show fused
# steps at width > 1 (the streams actually co-batched, not serialized).
BD_ADDR="127.0.0.1:19157"
BD_LOG="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny-decoder -listen "$BD_ADDR" \
    -gateway-workers 4 -max-batch 8 -batch-window 200ms \
    -hold 60s -drain-timeout 5s >"$BD_LOG" 2>&1 &
BD_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" "$BD_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG" "$BD_LOG"' EXIT
BD_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$BD_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        BD_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$BD_READY" ]; then
    echo "batched-decode smoke: gateway never became healthy" >&2
    cat "$BD_LOG" >&2
    exit 1
fi
BD_DIR="$(mktemp -d)"
(
    for i in 1 2 3 4; do
        curl -sN -X POST "http://$BD_ADDR/v1/generate" \
            -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":8}" \
            >"$BD_DIR/stream$i" &
    done
    wait
)
for i in 1 2 3 4; do
    grep -q '"done":true' "$BD_DIR/stream$i" || {
        echo "batched-decode smoke: stream $i never completed" >&2
        cat "$BD_DIR/stream$i" "$BD_LOG" >&2
        exit 1
    }
    grep -q '"error"' "$BD_DIR/stream$i" && {
        echo "batched-decode smoke: stream $i reported an error" >&2
        cat "$BD_DIR/stream$i" >&2
        exit 1
    }
done
rm -rf "$BD_DIR"
BD_METRICS="$(curl -fsS "http://$BD_ADDR/metrics")"
for family in \
    'voltage_batch_size_count' \
    'voltage_fused_steps_total' \
    'voltage_batch_joins_total' \
    'voltage_batch_wait_seconds_count'; do
    grep -qF "$family" <<<"$BD_METRICS" || {
        echo "batched-decode smoke: /metrics missing $family" >&2
        exit 1
    }
done
# Mean fused width > 1 ⟺ histogram sum exceeds its count.
awk '
    /^voltage_batch_size_sum /   { sum = $2 }
    /^voltage_batch_size_count / { count = $2 }
    END {
        if (count == 0 || sum <= count) {
            printf "batched-decode smoke: mean batch width %.3f over %d steps, want > 1\n", \
                (count ? sum / count : 0), count > "/dev/stderr"
            exit 1
        }
    }' <<<"$BD_METRICS"
kill "$BD_PID" 2>/dev/null || true
wait "$BD_PID" 2>/dev/null || true

echo "== batched-chaos smoke: worker killed mid-batch, streams still complete"
# Same concurrent-generate workload, but rank 1's transport dies after 21
# receives — past the 4 co-batched prefills (4 receives each), into the
# fused decode steps (1 receive per step). With -retries 2 the batcher must
# blame rank 1, re-slice over the survivors, and resume: every stream still
# finishes cleanly and /metrics records the recovery.
BC_ADDR="127.0.0.1:19158"
BC_LOG="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny-decoder -listen "$BC_ADDR" \
    -gateway-workers 4 -max-batch 8 -batch-window 200ms -retries 2 \
    -chaos-kill-rank 1 -chaos-kill-after 21 \
    -hold 60s -drain-timeout 5s >"$BC_LOG" 2>&1 &
BC_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" "$BD_PID" "$BC_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG" "$BD_LOG" "$BC_LOG"' EXIT
BC_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$BC_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        BC_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$BC_READY" ]; then
    echo "batched-chaos smoke: gateway never became healthy" >&2
    cat "$BC_LOG" >&2
    exit 1
fi
BC_DIR="$(mktemp -d)"
(
    for i in 1 2 3 4; do
        curl -sN -X POST "http://$BC_ADDR/v1/generate" \
            -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":8}" \
            >"$BC_DIR/stream$i" &
    done
    wait
)
BC_DONE=0
for i in 1 2 3 4; do
    if grep -q '"done":true' "$BC_DIR/stream$i" && ! grep -q '"error"' "$BC_DIR/stream$i"; then
        BC_DONE=$((BC_DONE + 1))
    fi
done
if [ "$BC_DONE" -lt 1 ]; then
    echo "batched-chaos smoke: no stream survived the mid-batch worker kill" >&2
    cat "$BC_DIR"/stream* "$BC_LOG" >&2
    exit 1
fi
# The recovery must be visible on the stream tails and the metrics: at
# least one sequence reports retries, and the recovery counter moved.
grep -hq '"retries":' "$BC_DIR"/stream* || {
    echo "batched-chaos smoke: no stream reported retries on its done line" >&2
    cat "$BC_DIR"/stream* >&2
    exit 1
}
rm -rf "$BC_DIR"
BC_METRICS="$(curl -fsS "http://$BC_ADDR/metrics")"
for family in \
    'voltage_batch_recoveries_total' \
    'voltage_batch_seqs_resumed_total'; do
    grep -E "^${family}.* [1-9]" <<<"$BC_METRICS" >/dev/null || {
        echo "batched-chaos smoke: /metrics $family never moved" >&2
        grep -F "$family" <<<"$BC_METRICS" >&2 || true
        exit 1
    }
done
kill "$BC_PID" 2>/dev/null || true
wait "$BC_PID" 2>/dev/null || true

echo "== load smoke: voltage-load replays a seeded mixed trace, summary schema-checked"
# Start a batching gateway, replay the checked-in 2-second mixed-class
# trace with the load harness, and gate on the harness's own checks:
# -require-served fails unless both classes completed requests, and -check
# validates the summary JSON against the harness schema (the same Go
# helper that guards BENCH_<pr>.json files — no external deps).
LS_ADDR="127.0.0.1:19159"
LS_LOG="$(mktemp)"
LS_SUM="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny-decoder -listen "$LS_ADDR" \
    -gateway-workers 8 -max-batch 8 -batch-window 2ms \
    -hold 120s -drain-timeout 5s >"$LS_LOG" 2>&1 &
LS_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" "$BD_PID" "$BC_PID" "$LS_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG" "$BD_LOG" "$BC_LOG" "$LS_LOG" "$LS_SUM"' EXIT
LS_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$LS_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        LS_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$LS_READY" ]; then
    echo "load smoke: gateway never became healthy" >&2
    cat "$LS_LOG" >&2
    exit 1
fi
go run ./cmd/voltage-load -trace scripts/bench/trace-smoke.json \
    -target "http://$LS_ADDR" -out "$LS_SUM" -require-served || {
    echo "load smoke: harness run failed" >&2
    cat "$LS_LOG" >&2
    exit 1
}
go run ./cmd/voltage-load -check "$LS_SUM" || {
    echo "load smoke: summary JSON failed the schema check" >&2
    cat "$LS_SUM" >&2
    exit 1
}
kill "$LS_PID" 2>/dev/null || true
wait "$LS_PID" 2>/dev/null || true

echo "== obs smoke: flight recorder and Chrome trace export over a live gateway"
# Boot a batching gateway with request tracing on, replay the seeded smoke
# trace, then require the diagnostics surface: /debug/flight answers with
# recorded events, and the harness downloads a Chrome trace export that
# validates as trace JSON (-trace-out fails unless the document carries a
# traceEvents array).
OBS_ADDR="127.0.0.1:19160"
OBS_LOG="$(mktemp)"
OBS_SUM="$(mktemp)"
OBS_TRACE="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny-decoder -listen "$OBS_ADDR" \
    -gateway-workers 8 -max-batch 8 -batch-window 2ms -trace \
    -hold 120s -drain-timeout 5s >"$OBS_LOG" 2>&1 &
OBS_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" "$BD_PID" "$BC_PID" "$LS_PID" "$OBS_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG" "$BD_LOG" "$BC_LOG" "$LS_LOG" "$LS_SUM" "$OBS_LOG" "$OBS_SUM" "$OBS_TRACE"' EXIT
OBS_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$OBS_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        OBS_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$OBS_READY" ]; then
    echo "obs smoke: gateway never became healthy" >&2
    cat "$OBS_LOG" >&2
    exit 1
fi
go run ./cmd/voltage-load -trace scripts/bench/trace-smoke.json \
    -target "http://$OBS_ADDR" -out "$OBS_SUM" -require-served \
    -trace-out "$OBS_TRACE" || {
    echo "obs smoke: harness run or trace export failed" >&2
    cat "$OBS_LOG" >&2
    exit 1
}
grep -q '"traceEvents"' "$OBS_TRACE" || {
    echo "obs smoke: exported Chrome trace missing traceEvents" >&2
    head -c 500 "$OBS_TRACE" >&2
    exit 1
}
grep -q '"ph":"X"' "$OBS_TRACE" || {
    echo "obs smoke: exported Chrome trace carries no spans" >&2
    head -c 500 "$OBS_TRACE" >&2
    exit 1
}
OBS_FLIGHT="$(curl -fsS "http://$OBS_ADDR/debug/flight")"
grep -q '"kind"' <<<"$OBS_FLIGHT" || {
    echo "obs smoke: /debug/flight returned no events" >&2
    echo "$OBS_FLIGHT" >&2
    exit 1
}
grep -q '"profile"' <<<"$OBS_FLIGHT" || {
    echo "obs smoke: /debug/flight dump missing profile" >&2
    exit 1
}
kill "$OBS_PID" 2>/dev/null || true
wait "$OBS_PID" 2>/dev/null || true

echo "== adapt smoke: controller re-slices the partition around a throttled rank"
# Boot a paced 3-worker engine with rank 2 throttled 4x and the adaptive
# controller on a fast evaluation cadence, drive two rounds of concurrent
# generates so the fused-step profile sees the skew, then require the loop
# to have closed: voltage_repartitions_total moved and the slow rank's
# installed partition share shrank well below its even third.
AD_ADDR="127.0.0.1:19161"
AD_LOG="$(mktemp)"
go run ./cmd/voltage-server -local 3 -model tiny-decoder -listen "$AD_ADDR" \
    -gateway-workers 8 -max-batch 8 -batch-window 2ms \
    -device-flops 4e6 -chaos-slow-rank 2 -chaos-slow-factor 4 \
    -adapt -adapt-interval 25ms -adapt-evals 2 -adapt-cooldown 250ms \
    -hold 120s -drain-timeout 5s >"$AD_LOG" 2>&1 &
AD_PID=$!
trap 'kill "$ADMIN_PID" "$GW_PID" "$BD_PID" "$BC_PID" "$LS_PID" "$OBS_PID" "$AD_PID" 2>/dev/null || true; rm -f "$ADMIN_LOG" "$GW_LOG" "$BD_LOG" "$BC_LOG" "$LS_LOG" "$LS_SUM" "$OBS_LOG" "$OBS_SUM" "$OBS_TRACE" "$AD_LOG"' EXIT
AD_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$AD_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        AD_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$AD_READY" ]; then
    echo "adapt smoke: gateway never became healthy" >&2
    cat "$AD_LOG" >&2
    exit 1
fi
for _ in 1 2; do
    (
        for i in 1 2 3 4; do
            curl -sN -X POST "http://$AD_ADDR/v1/generate" \
                -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":12}" >/dev/null &
        done
        wait
    )
done
# The controller keeps evaluating the stored profile after the burst
# drains; poll for the install.
AD_METRICS=""
for _ in $(seq 1 100); do
    AD_METRICS="$(curl -fsS "http://$AD_ADDR/metrics")"
    if awk '
        /^voltage_repartitions_total\{/ { moved += $2 }
        END { exit !(moved >= 1) }' <<<"$AD_METRICS"; then
        break
    fi
    AD_METRICS=""
    sleep 0.3
done
if [ -z "$AD_METRICS" ]; then
    echo "adapt smoke: voltage_repartitions_total never moved" >&2
    curl -fsS "http://$AD_ADDR/metrics" | grep -E 'repartition|partition_ratio' >&2 || true
    cat "$AD_LOG" >&2
    exit 1
fi
awk '
    /^voltage_partition_ratio\{rank="2"\} / { ratio = $2; seen = 1 }
    END {
        if (!seen || ratio >= 0.3) {
            printf "adapt smoke: slow rank partition share %.3f, want < 0.3\n", ratio > "/dev/stderr"
            exit 1
        }
    }' <<<"$AD_METRICS"
grep -qF 'voltage_batch_migrations_total' <<<"$AD_METRICS" || {
    echo "adapt smoke: /metrics missing voltage_batch_migrations_total" >&2
    exit 1
}
kill "$AD_PID" 2>/dev/null || true
wait "$AD_PID" 2>/dev/null || true

echo "CI OK"
