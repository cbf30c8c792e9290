#!/bin/sh
# Runs every paper experiment at its recorded scale (scripts/experiments.list)
# and stores each report as results/<id>-scale<scale>.txt, the names
# scripts/fill_experiments.sh splices into EXPERIMENTS.md. Arguments go to
# dsbench as they are: -quick trims sweeps and training for a smoke pass
# (minutes on one core) into the same file names, -v logs progress.
set -e
cd "$(dirname "$0")/.."
mkdir -p results
grep -v -e '^#' -e '^$' scripts/experiments.list | while read -r exp scale; do
  echo ">>> $exp (scale $scale)" >&2
  go run ./cmd/dsbench -exp "$exp" -scale "$scale" -seed 1 "$@" < /dev/null > "results/$exp-scale$scale.txt"
done
echo "all experiments done" >&2
