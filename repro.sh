#!/usr/bin/env bash
# End-to-end reproduction on the default seed-42 synthetic corpus.
#
# Emits, under $OUT (default ./repro_out):
#   eval_rf/model_{roc,pr}.csv + eval_baselines/{etm,hm}_{roc,pr}.csv   (curve comparison)
#   eval_logistic/metrics.json                                          (logistic regression)
#   ci_{rf,etm,hm}/ci.json                                              (block-bootstrap CIs)
#   op_{rf,etm,hm}/operating_points.csv                                 (trade-off tables)
#   capture/event_capture.csv                                           (captured/missed flows)
#   explain/attributions.csv + importance.csv                           (per-input attributions)
#   tw_sweep/tw_<w>/metrics.json                                        (training-weight trade-offs)
#   cv_table/cv_results.csv                                             (history-length CV scores)
# and ends by checking that every *.json under $OUT parses as strict JSON (no NaN or Infinity).
#
# REPS=10000 by default; set REPS=500 (and SKIP_SLOW=1 to drop the training-weight
# and CV sweeps) for a quick pass.
set -euo pipefail

OUT="${OUT:-repro_out}"
SEED=42
REPS="${REPS:-10000}"
EWS="${EWS:-debris-ews}"

mkdir -p "$OUT"

# "== <title>" opens a section; the seconds the previous one took are printed first
section() {
  if [ -n "${SECTION_START:-}" ]; then echo "   ($((SECONDS - SECTION_START)) s)"; fi
  SECTION_START=$SECONDS
  [ $# -eq 0 ] || echo "== $*"
}

section "synthetic corpus (seed $SEED)"
$EWS synth --seed $SEED --out "$OUT/corpus"

section "dataset windows and split"
$EWS build-dataset \
  --rainfall "$OUT/corpus/rainfall.csv" \
  --events "$OUT/corpus/debris_events.csv" \
  --out "$OUT/data" --seed $SEED

section "random forest (48 most recent hours, tuned defaults)"
$EWS train \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/model_rf" --seed $SEED --hours 48

section "test-split evaluation"
$EWS eval \
  --model "$OUT/model_rf/model.json" \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/eval_rf" --split test

section "logistic regression (48 most recent hours) and its test-split evaluation"
$EWS train \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/model_logistic" --seed $SEED --hours 48 --model logistic
$EWS eval \
  --model "$OUT/model_logistic/model.json" \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/eval_logistic" --split test

section "EAR threshold baselines"
$EWS sweep-baselines \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --thresholds "$OUT/corpus/thresholds.csv" \
  --out "$OUT/eval_baselines" --split test

section "block-bootstrap confidence intervals ($REPS replicates)"
$EWS bootstrap-ci --scores "$OUT/eval_rf/scores.csv"            --out "$OUT/ci_rf"  --seed $SEED --reps "$REPS"
$EWS bootstrap-ci --scores "$OUT/eval_baselines/etm_scores.csv" --out "$OUT/ci_etm" --seed $SEED --reps "$REPS"
$EWS bootstrap-ci --scores "$OUT/eval_baselines/hm_scores.csv"  --out "$OUT/ci_hm"  --seed $SEED --reps "$REPS"

section "operating-point tables"
$EWS operating-points --scores "$OUT/eval_rf/scores.csv"            --out "$OUT/op_rf"
$EWS operating-points --scores "$OUT/eval_baselines/etm_scores.csv" --out "$OUT/op_etm"
$EWS operating-points --scores "$OUT/eval_baselines/hm_scores.csv"  --out "$OUT/op_hm"

section "captured/missed debris flows per threshold"
$EWS event-capture \
  --scores "$OUT/eval_rf/scores.csv" \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/capture"

section "attributions for the test split"
# exact interventional attributions of the evaluated forest: one pass per leaf
# over all rows and background rows at once
$EWS explain \
  --model "$OUT/model_rf/model.json" \
  --rainfall "$OUT/corpus/rainfall.csv" --manifest "$OUT/data/manifest.json" \
  --out "$OUT/explain" --seed $SEED --max-rows 400 --background-rows 64

if [ -z "${SKIP_SLOW:-}" ]; then
  section "training-weight trade-off sweep (reduced corpus)"
  $EWS synth --seed 7 --stations 18 --weeks 24 --out "$OUT/corpus_small"
  $EWS build-dataset \
    --rainfall "$OUT/corpus_small/rainfall.csv" \
    --events "$OUT/corpus_small/debris_events.csv" \
    --out "$OUT/data_small" --seed 7
  for w in 0.001 0.01 0.1 1 10 100 1000; do
    $EWS train \
      --rainfall "$OUT/corpus_small/rainfall.csv" --manifest "$OUT/data_small/manifest.json" \
      --out "$OUT/tw_sweep/tw_$w" --seed $SEED --hours 48 --trees 20 --training-weight "$w"
    $EWS eval \
      --model "$OUT/tw_sweep/tw_$w/model.json" \
      --rainfall "$OUT/corpus_small/rainfall.csv" --manifest "$OUT/data_small/manifest.json" \
      --out "$OUT/tw_sweep/tw_$w" --split test
  done

  section "history-length CV table (reduced corpus)"
  for h in 6 12 24 48; do
    cat > "$OUT/grid_h.json" <<EOF
[{"n_trees": 20, "max_depth": 15, "min_samples_leaf": 2}]
EOF
    $EWS cv \
      --rainfall "$OUT/corpus_small/rainfall.csv" --manifest "$OUT/data_small/manifest.json" \
      --out "$OUT/cv_table/h$h" --seed 11 --grid "$OUT/grid_h.json" --k 10 --hours "$h"
  done
fi

section "strict JSON: no NaN or Infinity in any artifact"
python3 - "$OUT" <<'EOF'
import json, pathlib, sys

def reject(constant):
    raise ValueError(f"{constant} is not JSON")

bad = 0
for path in sorted(pathlib.Path(sys.argv[1]).rglob("*.json")):
    try:
        json.loads(path.read_text(), parse_constant=reject)
    except ValueError as exc:
        print(f"not strict JSON: {path}: {exc}", file=sys.stderr)
        bad += 1
sys.exit(1 if bad else 0)
EOF

section
echo "done: artifacts under $OUT in $SECONDS s"
