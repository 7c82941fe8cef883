#!/usr/bin/env python3
"""Train a Performance Estimator for the embedded (RISC-V) platform.

This is boxes 1 and 2 of the paper's Fig. 2: profile phase-sequence
permutations of the BEEBS suite, then search preprocessing x model
combinations (Tables III / IV) for the best-fitting estimator per metric.

Run:  python examples/train_performance_estimator.py
"""

from repro.pe import PerformanceEstimator
from repro.profiling import DataExtractor
from repro.sim import Platform
from repro.workloads import load_suite


def main():
    platform = Platform("riscv")
    workloads = load_suite("beebs")
    print(f"Data Extraction: {len(workloads)} BEEBS workloads "
          f"on {platform.target} ...")
    extractor = DataExtractor(platform, workloads)
    dataset = extractor.extract(n_sequences=10, seed=7)
    print(f"  -> {len(dataset)} data points "
          f"({extractor.extraction_seconds:.1f}s)")

    print("\nPE training: heuristic search over preprocessing x model")
    estimator = PerformanceEstimator().train(
        dataset, mode="heuristic", n_trials=12,
        model_names=("ridge", "kernel-ridge", "random-forest", "huber",
                     "mlp"),
        preprocessor_names=("mean-std", "robust", "power"),
        seed=0)
    print(f"  -> trained in {estimator.training_seconds:.1f}s\n")
    print(estimator.summary())

    # Use the PE: predict the metrics of a program it has never executed.
    workload = workloads[0]
    module = workload.compile()
    predicted = estimator.predict_module(module, platform)
    measured = platform.profile(workload.compile()).metrics()
    print(f"\nprediction vs measurement for '{workload.name}':")
    for metric in estimator.metrics:
        error = abs(predicted[metric] - measured[metric]) \
            / max(abs(measured[metric]), 1e-12)
        print(f"  {metric:14s} predicted {predicted[metric]:12.3f}  "
              f"measured {measured[metric]:12.3f}  "
              f"({100 * error:.1f}% off)")


if __name__ == "__main__":
    main()
