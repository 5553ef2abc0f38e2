# The train and compare runs that CI's "Byte identity across processes" and
# "Results across BLAS kernels" steps both make, listed once. Source this
# file, then call
#
#   ci_runs OUT CSV CONFIG
#
# with OUT an empty directory, CSV a labeled dataset for load_csv and CONFIG
# a JSON config file. Run <name> writes its artifacts under OUT/<name> and
# its stdout to OUT/<name>.stdout; the names are train-boost,
# train-stratified, train-random, train-single, train-csv, train-config and
# compare. Each run is the boostlab CLI under the caller's environment.

ci_runs() {
  out=$1 csv=$2 config=$3
  flags="--blob-counts 60,20 --epochs 5 --hidden-units 4 --seeds 0,1"
  for sampler in boost stratified random; do
    python -m boostlab.cli train --sampler $sampler $flags \
      --out "$out/train-$sampler" > "$out/train-$sampler.stdout"
  done
  python -m boostlab.cli train --blob-counts 60,20 --epochs 5 --hidden-units 4 --seeds 0 \
    --out "$out/train-single" > "$out/train-single.stdout"
  python -m boostlab.cli train --dataset "$csv" --pareto-scale 0 --epochs 5 --hidden-units 4 \
    --seeds 0,1 --out "$out/train-csv" > "$out/train-csv.stdout"
  python -m boostlab.cli train --config "$config" --out "$out/train-config" \
    > "$out/train-config.stdout"
  python -m boostlab.cli compare $flags --out "$out/compare" > "$out/compare.stdout"
}
